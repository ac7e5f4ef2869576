// On-disk persistence of columns and tables: one binary file per column
// plus a schema manifest per table, mirroring MonetDB's per-BAT files and
// the COPY BINARY bulk-append path (paper §3.2).
//
// Durability model:
//   - Column files come in one raw and one compressed layout. Raw "GCL2"
//     files carry a CRC32C over the header and one per 256 KiB payload
//     chunk. Compressed "GPC1" files encode every 256 KiB chunk on its own
//     (compression.h codecs) and carry a CRC per stored chunk plus one
//     over the whole decoded payload. Every reader checks the CRCs.
//   - The manifest ("GCT2") carries a generation number and a whole-file
//     CRC32C footer, and records the file name of every column.
//   - All files are written with the atomic durable protocol (tmp ->
//     fsync -> rename -> fsync dir). Both table writers write generation
//     N's column files under new names and swap the manifest last, so a
//     crash at ANY point leaves the previous generation fully readable.
#ifndef GEOCOL_COLUMNS_COLUMN_FILE_H_
#define GEOCOL_COLUMNS_COLUMN_FILE_H_

#include <string>
#include <vector>

#include "columns/compression.h"
#include "columns/flat_table.h"
#include "util/status.h"

namespace geocol {

/// Decoded payload bytes covered by each column-file chunk.
constexpr size_t kColumnChunkBytes = 256 * 1024;

/// Writes a raw column to `path` atomically:
/// magic "GCL2" | type(u8) | count(u64) | chunk_bytes(u32) | header crc |
/// chunk crcs | raw values.
Status WriteColumnFile(const Column& column, const std::string& path);

/// Writes `column` as a compressed "GPC1" file (atomically):
/// magic | type u8 | count u64 | chunk_bytes u32 | payload crc | header
/// crc | per-chunk {codec u8, bytes u32, crc u32} directory | compressed
/// chunks. Every chunk is encoded independently (kAuto picks per chunk),
/// which is what lets the paged tier decompress on demand.
/// `stats->compressed_bytes` reports the full on-disk size.
Status WriteChunkedCompressedColumnFile(const Column& column,
                                        const std::string& path,
                                        ColumnCodec codec = ColumnCodec::kAuto,
                                        CompressionStats* stats = nullptr);

/// Reads a "GCL2" or "GPC1" column file; the magic picks the decoder. The
/// column name is not stored in the file; callers supply it (it is the
/// file's role in the table manifest). `verify_checksums` exists so
/// benchmarks can measure the verification overhead; corruption checks
/// that need no extra pass (sizes, magic, types) always run.
Result<ColumnPtr> ReadColumnFile(const std::string& path,
                                 const std::string& name,
                                 bool verify_checksums = true);

/// Appends the values of a column file to `column` — the COPY BINARY
/// fast path. Types must match; checksums are verified.
Status AppendColumnFile(const std::string& path, Column* column);

/// The chunk directory of a column file, parsed and header-verified
/// without touching the payload — everything the paged open needs to
/// fault chunks on demand.
struct ColumnFileLayout {
  struct Chunk {
    uint64_t offset = 0;        ///< file offset of the stored bytes
    uint32_t stored_bytes = 0;  ///< on-disk bytes (== decoded for GCL2)
    uint32_t crc = 0;           ///< CRC32C of the stored bytes
    ColumnCodec codec = ColumnCodec::kRaw;
  };
  DataType type = DataType::kFloat64;
  uint64_t count = 0;
  uint32_t chunk_bytes = 0;  ///< decoded bytes per chunk (last may be short)
  bool compressed = false;   ///< GPC1: chunks are codec payloads
  uint32_t payload_crc = 0;  ///< CRC32C of the whole decoded payload
  std::vector<Chunk> chunks;
};
Result<ColumnFileLayout> ReadColumnFileLayout(const std::string& path);

/// Writes a raw C-array dump (no header): exactly what the paper's binary
/// loader emits per attribute before COPY BINARY. Atomic, so a reader
/// never observes a torn dump.
Status WriteRawDump(const Column& column, const std::string& path);

/// Reads a raw C-array dump into `dst` — the COPY BINARY step of the
/// binary loader, which points `dst` at the dump's rows inside a column it
/// has already grown. The dump must hold exactly `bytes` bytes; any other
/// size is Corruption naming `path`.
Status ReadRawDump(const std::string& path, void* dst, uint64_t bytes);

/// The parsed `<dir>/schema.gct` manifest: which columns a table has and
/// which file currently holds each of them.
struct TableManifest {
  struct ManifestColumn {
    std::string name;
    DataType type = DataType::kFloat64;
    std::string filename;  ///< file name within the table dir
  };

  std::string table_name;
  /// Incremented by every successful table write; generation N's column
  /// files are named `<col>.gN.gcl` (raw) or `<col>.gN.gcz` (GPC1), so
  /// writing N+1 never touches them.
  uint64_t generation = 0;
  std::vector<ManifestColumn> columns;
};

/// Writes `<dir>/schema.gct` atomically with a CRC32C footer. This is the
/// commit point of a table write: readers follow the manifest, so the swap
/// atomically publishes the generation it references.
Status WriteTableManifest(const std::string& dir, const TableManifest& m);

/// Reads and checksum-verifies `<dir>/schema.gct`.
Result<TableManifest> ReadTableManifest(const std::string& dir);

/// Removes files in `dir` that a crashed or superseded table write left
/// behind: `*.tmp` files and `*.gcl`/`*.gcz` files not referenced by
/// `keep`. Best effort — failures are ignored.
void CleanStaleTableFiles(const std::string& dir, const TableManifest& keep);

/// Persists a whole table into directory `dir` crash-safely:
/// `<dir>/schema.gct` manifest + `<dir>/<col>.gN.gcl` per column. After a
/// crash at any injected failure point, ReadTableDir returns either the
/// previous table or the new one — never an error, never mixed data.
Status WriteTableDir(const FlatTable& table, const std::string& dir);

/// WriteTableDir with GPC1 column files (`<dir>/<col>.gN.gcz`). The result
/// opens resident (ReadTableDir) and paged (ReadTableDirPaged) with
/// bit-identical contents. Returns the on-disk column bytes via
/// `total_bytes` when non-null.
Status WriteChunkedCompressedTableDir(const FlatTable& table,
                                      const std::string& dir,
                                      uint64_t* total_bytes = nullptr);

/// Loads a table persisted by either writer, resident.
Result<FlatTable> ReadTableDir(const std::string& dir,
                               bool verify_checksums = true);

}  // namespace geocol

#endif  // GEOCOL_COLUMNS_COLUMN_FILE_H_
