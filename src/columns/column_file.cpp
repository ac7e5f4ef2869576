#include "columns/column_file.h"

#include <cstring>

#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/tempdir.h"

namespace geocol {

namespace {

constexpr char kRawColumnMagic[4] = {'G', 'C', 'L', '2'};
constexpr char kCompressedColumnMagic[4] = {'G', 'P', 'C', '1'};
constexpr char kTableMagic[4] = {'G', 'C', 'T', '2'};

/// GPC1 directory entry: codec u8 | stored bytes u32 | crc u32.
constexpr size_t kCompressedDirEntryBytes = 1 + 4 + 4;

constexpr uint64_t kMaxPlausibleRows = uint64_t{1} << 40;

uint64_t NumChunks(uint64_t payload_bytes, uint64_t chunk_bytes) {
  return payload_bytes == 0 ? 0
                            : (payload_bytes + chunk_bytes - 1) / chunk_bytes;
}

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

/// Parses and verifies the header and chunk directory of a GCL2 or GPC1
/// file — the one place that dispatches on the column-file magic — and
/// checks that the file holds exactly the stored chunks. Leaves `r` at the
/// first payload byte. `payload_crc` stays 0 for GCL2 files.
Result<ColumnFileLayout> ReadColumnFileHeader(BinaryReader* r,
                                              const std::string& path) {
  ColumnFileLayout h;
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::memcmp(magic, kCompressedColumnMagic, 4) == 0) {
    h.compressed = true;
  } else if (std::memcmp(magic, kRawColumnMagic, 4) != 0) {
    return Status::Corruption("bad column file magic: " + path);
  }

  uint8_t type_byte = 0;
  uint32_t header_crc = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&type_byte));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h.count));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h.chunk_bytes));
  if (h.compressed) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h.payload_crc));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&header_crc));
  uint32_t computed = Crc32c(magic, 4);
  computed = Crc32cExtend(computed, &type_byte, 1);
  computed = Crc32cExtend(computed, &h.count, 8);
  computed = Crc32cExtend(computed, &h.chunk_bytes, 4);
  if (h.compressed) computed = Crc32cExtend(computed, &h.payload_crc, 4);
  if (computed != header_crc) {
    return Status::Corruption("column file header crc mismatch (stored " +
                              CrcHex(header_crc) + ", computed " +
                              CrcHex(computed) + "): " + path);
  }
  if (type_byte >= kNumDataTypes) {
    return Status::Corruption("bad column type byte " +
                              std::to_string(type_byte) + ": " + path);
  }
  h.type = static_cast<DataType>(type_byte);
  if (h.count > kMaxPlausibleRows) {
    return Status::Corruption("column file: implausible row count " +
                              std::to_string(h.count) + ": " + path);
  }
  if (h.chunk_bytes == 0 || h.chunk_bytes > (1u << 30) ||
      h.chunk_bytes % DataTypeSize(h.type) != 0) {
    return Status::Corruption("column file: bad chunk size: " + path);
  }

  const uint64_t payload = h.count * DataTypeSize(h.type);
  const uint64_t nchunks = NumChunks(payload, h.chunk_bytes);
  std::vector<uint8_t> dir;
  GEOCOL_RETURN_NOT_OK(r->ReadVector(
      &dir, nchunks * (h.compressed ? kCompressedDirEntryBytes : 4)));
  h.chunks.resize(nchunks);
  uint64_t offset = r->Tell();
  for (uint64_t c = 0; c < nchunks; ++c) {
    ColumnFileLayout::Chunk& ch = h.chunks[c];
    ch.offset = offset;
    if (h.compressed) {
      const uint8_t* e = dir.data() + c * kCompressedDirEntryBytes;
      if (e[0] > static_cast<uint8_t>(ColumnCodec::kDelta)) {
        return Status::Corruption("column file: bad chunk codec: " + path);
      }
      ch.codec = static_cast<ColumnCodec>(e[0]);
      std::memcpy(&ch.stored_bytes, e + 1, 4);
      std::memcpy(&ch.crc, e + 5, 4);
    } else {
      ch.stored_bytes = static_cast<uint32_t>(
          std::min<uint64_t>(h.chunk_bytes, payload - c * h.chunk_bytes));
      std::memcpy(&ch.crc, dir.data() + c * 4, 4);
    }
    offset += ch.stored_bytes;
  }
  const uint64_t stored = offset - r->Tell();
  if (r->Remaining() != stored) {
    return Status::Corruption("column file size mismatch (payload " +
                              std::to_string(r->Remaining()) + " bytes, " +
                              std::to_string(stored) + " expected): " + path);
  }
  return h;
}

/// Reads the payload into `out`, verifying every stored chunk's CRC and,
/// for GPC1, decoding it and checking the whole-payload CRC.
Status ReadColumnPayload(BinaryReader* r, const ColumnFileLayout& h,
                         const std::string& path, bool verify, uint8_t* out) {
  const uint64_t payload = h.count * DataTypeSize(h.type);
  if (!h.compressed && !verify) return r->ReadBytes(out, payload);
  GEOCOL_METRIC_COUNTER(c_verifies, "geocol_crc_chunk_verifies_total");
  GEOCOL_METRIC_COUNTER(c_failures, "geocol_crc_failures_total");
  std::vector<uint8_t> scratch;  // stored bytes of a GPC1 chunk
  for (uint64_t c = 0; c < h.chunks.size(); ++c) {
    const ColumnFileLayout::Chunk& ch = h.chunks[c];
    const uint64_t off = c * h.chunk_bytes;
    uint8_t* stored = out + off;
    if (h.compressed) {
      scratch.resize(ch.stored_bytes);
      stored = scratch.data();
    }
    GEOCOL_RETURN_NOT_OK(r->ReadBytes(stored, ch.stored_bytes));
    // Verify chunk by chunk, while the freshly read bytes are hot in cache.
    if (verify) {
      uint32_t crc = Crc32c(stored, ch.stored_bytes);
      c_verifies.Increment();
      if (crc != ch.crc) {
        c_failures.Increment();
        return Status::Corruption("column chunk " + std::to_string(c) +
                                  " crc mismatch (stored " + CrcHex(ch.crc) +
                                  ", computed " + CrcHex(crc) + "): " + path);
      }
    }
    if (h.compressed) {
      const uint64_t len = std::min<uint64_t>(h.chunk_bytes, payload - off);
      Status st = DecompressChunkPayload(h.type, ch.codec, stored,
                                         ch.stored_bytes,
                                         len / DataTypeSize(h.type), out + off);
      if (!st.ok()) {
        return Status::Corruption("column chunk " + std::to_string(c) + ": " +
                                  st.message() + ": " + path);
      }
    }
  }
  if (h.compressed && verify && Crc32c(out, payload) != h.payload_crc) {
    c_failures.Increment();
    return Status::Corruption("column payload crc mismatch: " + path);
  }
  return Status::OK();
}

/// The generation/manifest-swap protocol of both table writers: the next
/// generation's column files go under fresh names, so the files the
/// current manifest references are never touched and the old table stays
/// fully readable until the manifest swap.
Status WriteTableGeneration(const FlatTable& table, const std::string& dir,
                            bool compressed, uint64_t* total_bytes) {
  GEOCOL_RETURN_NOT_OK(table.Validate());
  GEOCOL_RETURN_NOT_OK(MakeDir(dir));
  uint64_t gen = 1;
  if (PathExists(dir + "/schema.gct")) {
    auto old = ReadTableManifest(dir);
    if (old.ok()) gen = old->generation + 1;
  }
  TableManifest m;
  m.table_name = table.name();
  m.generation = gen;
  uint64_t total = 0;
  for (const auto& col : table.columns()) {
    std::string fname = col->name() + ".g" + std::to_string(gen) +
                        (compressed ? ".gcz" : ".gcl");
    const std::string path = dir + "/" + fname;
    if (compressed) {
      CompressionStats stats;
      GEOCOL_RETURN_NOT_OK(WriteChunkedCompressedColumnFile(
          *col, path, ColumnCodec::kAuto, &stats));
      total += stats.compressed_bytes;
    } else {
      GEOCOL_RETURN_NOT_OK(WriteColumnFile(*col, path));
    }
    m.columns.push_back({col->name(), col->type(), fname});
  }
  GEOCOL_RETURN_NOT_OK(WriteTableManifest(dir, m));  // the commit point
  CleanStaleTableFiles(dir, m);
  if (total_bytes != nullptr) *total_bytes = total;
  return Status::OK();
}

}  // namespace

Status WriteColumnFile(const Column& column, const std::string& path) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "WriteColumnFile: paged columns are read-only (reopen the table "
        "resident to rewrite)");
  }
  const uint8_t* payload = column.raw_data();
  const uint64_t payload_bytes = column.raw_size_bytes();
  const uint32_t chunk_bytes = kColumnChunkBytes;

  BufferWriter header;
  header.WriteBytes(kRawColumnMagic, 4);
  header.WriteScalar<uint8_t>(static_cast<uint8_t>(column.type()));
  header.WriteScalar<uint64_t>(column.size());
  header.WriteScalar<uint32_t>(chunk_bytes);
  uint32_t header_crc = Crc32c(header.buffer().data(), header.size());

  std::vector<uint32_t> chunk_crcs(NumChunks(payload_bytes, chunk_bytes));
  for (uint64_t c = 0; c < chunk_crcs.size(); ++c) {
    uint64_t off = c * uint64_t{chunk_bytes};
    uint64_t len = std::min<uint64_t>(chunk_bytes, payload_bytes - off);
    chunk_crcs[c] = Crc32c(payload + off, len);
  }

  BinaryWriter w;
  GEOCOL_RETURN_NOT_OK(w.OpenAtomic(path));
  Status st = [&]() -> Status {
    GEOCOL_RETURN_NOT_OK(w.WriteBytes(header.buffer().data(), header.size()));
    GEOCOL_RETURN_NOT_OK(w.WriteScalar<uint32_t>(header_crc));
    GEOCOL_RETURN_NOT_OK(w.WriteVector(chunk_crcs));
    for (uint64_t c = 0; c < chunk_crcs.size(); ++c) {
      uint64_t off = c * uint64_t{chunk_bytes};
      uint64_t len = std::min<uint64_t>(chunk_bytes, payload_bytes - off);
      GEOCOL_RETURN_NOT_OK(w.WriteBytes(payload + off, len));
    }
    return w.Commit();
  }();
  if (!st.ok()) w.Abandon();
  return st;
}

Result<ColumnPtr> ReadColumnFile(const std::string& path,
                                 const std::string& name,
                                 bool verify_checksums) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileLayout h, ReadColumnFileHeader(&r, path));
  auto col = std::make_shared<Column>(name, h.type);
  GEOCOL_RETURN_NOT_OK(ReadColumnPayload(&r, h, path, verify_checksums,
                                         col->AppendUninitialized(h.count)));
  return col;
}

Status WriteChunkedCompressedColumnFile(const Column& column,
                                        const std::string& path,
                                        ColumnCodec codec,
                                        CompressionStats* stats) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "WriteChunkedCompressedColumnFile: paged columns are read-only "
        "(reopen the table resident to rewrite)");
  }
  const uint8_t* payload = column.raw_data();
  const uint64_t payload_bytes = column.raw_size_bytes();
  const uint32_t chunk_bytes = kColumnChunkBytes;
  const size_t width = column.width();
  const uint64_t nchunks = NumChunks(payload_bytes, chunk_bytes);

  BufferWriter header;
  header.WriteBytes(kCompressedColumnMagic, 4);
  header.WriteScalar<uint8_t>(static_cast<uint8_t>(column.type()));
  header.WriteScalar<uint64_t>(column.size());
  header.WriteScalar<uint32_t>(chunk_bytes);
  header.WriteScalar<uint32_t>(Crc32c(payload, payload_bytes));
  uint32_t header_crc = Crc32c(header.buffer().data(), header.size());

  BufferWriter dir;
  std::vector<std::vector<uint8_t>> compressed(nchunks);
  uint64_t codec_counts[4] = {0, 0, 0, 0};
  for (uint64_t c = 0; c < nchunks; ++c) {
    uint64_t off = c * uint64_t{chunk_bytes};
    uint64_t len = std::min<uint64_t>(chunk_bytes, payload_bytes - off);
    ColumnCodec chosen = ColumnCodec::kRaw;
    compressed[c] = CompressChunkPayload(column.type(), payload + off,
                                         len / width, codec, &chosen);
    dir.WriteScalar<uint8_t>(static_cast<uint8_t>(chosen));
    dir.WriteScalar<uint32_t>(static_cast<uint32_t>(compressed[c].size()));
    dir.WriteScalar<uint32_t>(
        Crc32c(compressed[c].data(), compressed[c].size()));
    ++codec_counts[static_cast<uint8_t>(chosen)];
  }

  BinaryWriter w;
  GEOCOL_RETURN_NOT_OK(w.OpenAtomic(path));
  Status st = [&]() -> Status {
    GEOCOL_RETURN_NOT_OK(w.WriteBytes(header.buffer().data(), header.size()));
    GEOCOL_RETURN_NOT_OK(w.WriteScalar<uint32_t>(header_crc));
    GEOCOL_RETURN_NOT_OK(w.WriteBytes(dir.buffer().data(), dir.size()));
    for (const std::vector<uint8_t>& chunk : compressed) {
      GEOCOL_RETURN_NOT_OK(w.WriteBytes(chunk.data(), chunk.size()));
    }
    return w.Commit();
  }();
  if (!st.ok()) {
    w.Abandon();
    return st;
  }
  if (stats != nullptr) {
    // Chunks choose codecs independently; report the dominant one.
    size_t best = 0;
    for (size_t k = 1; k < 4; ++k) {
      if (codec_counts[k] > codec_counts[best]) best = k;
    }
    stats->codec = static_cast<ColumnCodec>(best);
    stats->uncompressed_bytes = payload_bytes;
    stats->compressed_bytes = w.bytes_written();
  }
  return Status::OK();
}

Result<ColumnFileLayout> ReadColumnFileLayout(const std::string& path) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileLayout layout,
                          ReadColumnFileHeader(&r, path));
  if (!layout.compressed) {
    // Fold the on-disk chunk CRCs into the whole-payload CRC: one
    // precomputed operator for the fixed chunk length, generic combine
    // for the short tail.
    Crc32cCombineOp op = Crc32cCombineOpFor(layout.chunk_bytes);
    for (const ColumnFileLayout::Chunk& ch : layout.chunks) {
      layout.payload_crc =
          ch.stored_bytes == layout.chunk_bytes
              ? Crc32cCombineWithOp(op, layout.payload_crc, ch.crc)
              : Crc32cCombine(layout.payload_crc, ch.crc, ch.stored_bytes);
    }
  }
  return layout;
}

Status AppendColumnFile(const std::string& path, Column* column) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  GEOCOL_ASSIGN_OR_RETURN(ColumnFileLayout h, ReadColumnFileHeader(&r, path));
  if (h.type != column->type()) {
    return Status::InvalidArgument("type mismatch appending " + path);
  }
  std::vector<uint8_t> buf(h.count * DataTypeSize(h.type));
  GEOCOL_RETURN_NOT_OK(
      ReadColumnPayload(&r, h, path, /*verify=*/true, buf.data()));
  column->AppendRaw(buf.data(), h.count);
  return Status::OK();
}

Status WriteRawDump(const Column& column, const std::string& path) {
  if (column.paged()) {
    return Status::InvalidArgument(
        "WriteRawDump: paged columns are read-only (reopen the table "
        "resident to dump)");
  }
  return WriteFileAtomic(path, column.raw_data(), column.raw_size_bytes());
}

Status ReadRawDump(const std::string& path, void* dst, uint64_t bytes) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  if (r.Remaining() != bytes) {
    return Status::Corruption("raw dump holds " +
                              std::to_string(r.Remaining()) +
                              " bytes, expected " + std::to_string(bytes) +
                              ": " + path);
  }
  return r.ReadBytes(dst, bytes);
}

Status WriteTableManifest(const std::string& dir, const TableManifest& m) {
  BufferWriter b;
  b.WriteBytes(kTableMagic, 4);
  b.WriteScalar<uint64_t>(m.generation);
  b.WriteString(m.table_name);
  b.WriteScalar<uint32_t>(static_cast<uint32_t>(m.columns.size()));
  for (const auto& col : m.columns) {
    b.WriteString(col.name);
    b.WriteScalar<uint8_t>(static_cast<uint8_t>(col.type));
    b.WriteString(col.filename);
  }
  uint32_t crc = Crc32c(b.buffer().data(), b.size());
  b.WriteScalar<uint32_t>(crc);
  return WriteFileAtomic(dir + "/schema.gct", b.buffer().data(), b.size());
}

Result<TableManifest> ReadTableManifest(const std::string& dir) {
  const std::string path = dir + "/schema.gct";
  std::vector<uint8_t> bytes;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  if (bytes.size() < 8) {
    return Status::Corruption("table manifest too small: " + path);
  }
  if (std::memcmp(bytes.data(), kTableMagic, 4) != 0) {
    return Status::Corruption("bad table manifest magic: " + path);
  }
  const size_t body_size = bytes.size() - 4;
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body_size, 4);
  uint32_t computed = Crc32c(bytes.data(), body_size);
  if (stored != computed) {
    return Status::Corruption("table manifest crc mismatch (stored " +
                              CrcHex(stored) + ", computed " +
                              CrcHex(computed) + "): " + path);
  }

  TableManifest m;
  BufferReader r(bytes.data() + 4, body_size - 4);
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&m.generation));
  GEOCOL_RETURN_NOT_OK(r.ReadString(&m.table_name));
  uint32_t ncols = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&ncols));
  // Each column entry is at least 9 bytes; with the 4096 cap a corrupt
  // count fails here instead of allocating.
  if (ncols > 4096 || ncols > r.remaining()) {
    return Status::Corruption("implausible column count " +
                              std::to_string(ncols) + ": " + path);
  }
  m.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    TableManifest::ManifestColumn col;
    GEOCOL_RETURN_NOT_OK(r.ReadString(&col.name));
    uint8_t type_byte = 0;
    GEOCOL_RETURN_NOT_OK(r.ReadScalar(&type_byte));
    if (type_byte >= kNumDataTypes) {
      return Status::Corruption("bad column type in manifest: " + path);
    }
    col.type = static_cast<DataType>(type_byte);
    GEOCOL_RETURN_NOT_OK(r.ReadString(&col.filename));
    m.columns.push_back(std::move(col));
  }
  return m;
}

void CleanStaleTableFiles(const std::string& dir, const TableManifest& keep) {
  std::vector<std::string> files;
  for (const char* suffix : {".gcl", ".gcz", ".tmp"}) {
    ListFiles(dir, suffix, &files);
  }
  for (const std::string& full : files) {
    std::string base = full.substr(full.find_last_of('/') + 1);
    bool referenced = false;
    for (const auto& col : keep.columns) referenced |= base == col.filename;
    if (!referenced) RemoveFile(full);
  }
}

Status WriteTableDir(const FlatTable& table, const std::string& dir) {
  return WriteTableGeneration(table, dir, /*compressed=*/false, nullptr);
}

Status WriteChunkedCompressedTableDir(const FlatTable& table,
                                      const std::string& dir,
                                      uint64_t* total_bytes) {
  return WriteTableGeneration(table, dir, /*compressed=*/true, total_bytes);
}

Result<FlatTable> ReadTableDir(const std::string& dir, bool verify_checksums) {
  GEOCOL_ASSIGN_OR_RETURN(TableManifest m, ReadTableManifest(dir));
  FlatTable table(m.table_name);
  for (const auto& mc : m.columns) {
    GEOCOL_ASSIGN_OR_RETURN(
        ColumnPtr col,
        ReadColumnFile(dir + "/" + mc.filename, mc.name, verify_checksums));
    if (col->type() != mc.type) {
      return Status::Corruption("manifest/file type mismatch for " + mc.name);
    }
    GEOCOL_RETURN_NOT_OK(table.AddColumn(std::move(col)));
  }
  GEOCOL_RETURN_NOT_OK(table.Validate());
  return table;
}

}  // namespace geocol
