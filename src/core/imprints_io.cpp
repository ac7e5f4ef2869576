#include "core/imprints_io.h"

#include <cmath>
#include <cstring>

#include "telemetry/metrics.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/logging.h"

namespace geocol {

namespace {

constexpr char kImprintsMagic[4] = {'G', 'I', 'M', '2'};

/// Parses the index body (everything after the column fingerprint).
Result<ImprintsIndex> ParseImprintsBody(BufferReader* r,
                                        const std::string& path) {
  uint64_t epoch = 0, rows = 0;
  uint32_t values_per_line = 0, num_bins = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&epoch));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&rows));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&values_per_line));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&num_bins));
  if (num_bins < 2 || num_bins > 64) {
    return Status::Corruption("imprints file: bad bin count: " + path);
  }
  std::vector<double> bounds;
  GEOCOL_RETURN_NOT_OK(r->ReadVector(&bounds, num_bins));
  GEOCOL_ASSIGN_OR_RETURN(BinBounds bins, BinBounds::FromRawUppers(bounds));

  uint64_t dict_size = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&dict_size));
  std::vector<uint32_t> packed;
  GEOCOL_RETURN_NOT_OK(r->ReadVector(&packed, dict_size));
  std::vector<ImprintsIndex::DictEntry> dict(packed.size());
  for (size_t i = 0; i < packed.size(); ++i) {
    dict[i].count = packed[i] & 0x7FFFFFFFu;
    dict[i].repeat = (packed[i] & 0x80000000u) != 0;
  }
  uint64_t num_vectors = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&num_vectors));
  std::vector<uint64_t> vectors;
  GEOCOL_RETURN_NOT_OK(r->ReadVector(&vectors, num_vectors));
  return ImprintsIndex::Restore(bins, values_per_line, rows, epoch,
                                std::move(vectors), std::move(dict));
}

}  // namespace

uint32_t ColumnFingerprint(const Column& column) {
  uint8_t type_byte = static_cast<uint8_t>(column.type());
  uint32_t crc = Crc32c(&type_byte, 1);
  // Fold in the payload CRC instead of re-scanning the bytes: on the paged
  // tier payload_crc32c() is answered from the on-disk chunk directory, so
  // sidecar freshness checks never fault a single chunk. For resident
  // columns Crc32cCombine(crc, Crc32c(data), n) == Crc32cExtend(crc, data,
  // n), so fingerprints (and existing sidecars) are unchanged.
  return Crc32cCombine(crc, column.payload_crc32c(), column.raw_size_bytes());
}

Status WriteImprintsFile(const ImprintsIndex& index, const std::string& path,
                         uint32_t column_fingerprint) {
  BufferWriter w;
  w.WriteBytes(kImprintsMagic, 4);
  w.WriteScalar<uint32_t>(column_fingerprint);
  w.WriteScalar<uint64_t>(index.built_epoch());
  w.WriteScalar<uint64_t>(index.num_rows());
  w.WriteScalar<uint32_t>(index.values_per_line());
  w.WriteScalar<uint32_t>(index.num_bins());
  for (uint32_t b = 0; b < index.num_bins(); ++b) {
    w.WriteScalar<double>(index.bins().upper(b));
  }
  const auto& dict = index.dictionary();
  w.WriteScalar<uint64_t>(dict.size());
  for (const auto& e : dict) {
    // Packed: low 31 bits count, top bit repeat.
    uint32_t packed = e.count | (e.repeat ? 0x80000000u : 0u);
    w.WriteScalar<uint32_t>(packed);
  }
  w.WriteScalar<uint64_t>(index.vectors().size());
  w.WriteVector(index.vectors());
  // Whole-file CRC32C footer, then an atomic publish: a reader sees the
  // previous sidecar or this one in full, and any bit rot is detected.
  w.WriteScalar<uint32_t>(Crc32c(w.buffer().data(), w.size()));
  const auto& buf = w.buffer();
  return WriteFileAtomic(path, buf.data(), buf.size());
}

Result<ImprintsIndex> ReadImprintsFile(const std::string& path,
                                       ImprintsFileMeta* meta) {
  std::vector<uint8_t> data;
  GEOCOL_RETURN_NOT_OK(ReadFileBytes(path, &data));
  if (data.size() < 8) {
    return Status::Corruption("imprints file too small: " + path);
  }
  if (std::memcmp(data.data(), kImprintsMagic, 4) != 0) {
    return Status::Corruption("bad imprints file magic: " + path);
  }
  uint32_t stored = 0;
  std::memcpy(&stored, data.data() + data.size() - 4, 4);
  data.resize(data.size() - 4);
  uint32_t computed = Crc32c(data.data(), data.size());
  if (stored != computed) {
    return Status::Corruption("imprints file crc mismatch: " + path);
  }
  BufferReader r(data.data() + 4, data.size() - 4);
  uint32_t fingerprint = 0;
  GEOCOL_RETURN_NOT_OK(r.ReadScalar(&fingerprint));
  if (meta != nullptr) meta->column_fingerprint = fingerprint;
  return ParseImprintsBody(&r, path);
}

Result<ImprintsIndex> LoadOrBuildImprints(const Column& column,
                                          const std::string& path,
                                          const ImprintsOptions& options,
                                          ThreadPool* pool) {
  // One CRC pass over the column payload per sidecar adoption (cached by
  // ImprintManager afterwards) — without it, a sidecar keyed only by
  // column name could be adopted by a same-named, same-sized column of a
  // different table and silently mis-prune scans.
  const uint32_t fingerprint = ColumnFingerprint(column);
  GEOCOL_METRIC_COUNTER(c_loads, "geocol_imprint_sidecar_loads_total");
  GEOCOL_METRIC_COUNTER(c_quarantines, "geocol_imprint_sidecar_quarantines_total");
  GEOCOL_METRIC_COUNTER(c_stale, "geocol_imprint_sidecar_stale_total");
  bool overwrite_stale = false;
  if (PathExists(path)) {
    ImprintsFileMeta meta;
    Result<ImprintsIndex> loaded = ReadImprintsFile(path, &meta);
    if (loaded.ok() && meta.column_fingerprint == fingerprint &&
        loaded->built_epoch() == column.epoch() &&
        loaded->num_rows() == column.size()) {
      c_loads.Increment();
      return loaded;
    }
    if (!loaded.ok()) {
      // Corrupt sidecar: keep the evidence out of the load path and
      // rebuild from the (authoritative) column data.
      c_quarantines.Increment();
      std::string quarantine = path + ".quarantined";
      GEOCOL_LOG(Warning)
              .With("path", path)
              .With("quarantine", quarantine)
              .With("error", loaded.status().ToString())
          << "quarantining corrupt imprints sidecar";
      Status moved = RenameFile(path, quarantine);
      if (!moved.ok()) {
        GEOCOL_LOG(Warning).With("path", path).With("error", moved.ToString())
            << "could not quarantine sidecar";
      }
    } else {
      c_stale.Increment();
      overwrite_stale = true;
      GEOCOL_LOG(Info)
              .With("path", path)
              .With("sidecar_fingerprint", meta.column_fingerprint)
              .With("column_fingerprint", fingerprint)
              .With("sidecar_epoch", loaded->built_epoch())
              .With("column_epoch", column.epoch())
              .With("sidecar_rows", loaded->num_rows())
              .With("column_rows", column.size())
          << "imprints sidecar is stale; rebuilding";
    }
  }
  GEOCOL_ASSIGN_OR_RETURN(ImprintsIndex built,
                          ImprintsIndex::Build(column, options, pool));
  Status persisted = WriteImprintsFile(built, path, fingerprint);
  if (!persisted.ok()) {
    // The sidecar is cache; the freshly built index is still good.
    GEOCOL_LOG(Warning).With("path", path).With("error", persisted.ToString())
        << "could not persist imprints sidecar";
  } else if (overwrite_stale) {
    GEOCOL_LOG(Info).With("path", path) << "rewrote imprints sidecar";
  }
  return built;
}

}  // namespace geocol
