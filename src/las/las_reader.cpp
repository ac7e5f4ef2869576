#include "las/las_reader.h"

#include <algorithm>
#include <cstring>

#include "las/laz.h"

namespace geocol {

namespace {
constexpr char kLasMagic[4] = {'G', 'L', 'A', 'S'};

Status ReadHeader(BinaryReader* r, LasHeader* h) {
  char magic[4];
  GEOCOL_RETURN_NOT_OK(r->ReadBytes(magic, 4));
  if (std::memcmp(magic, kLasMagic, 4) != 0) {
    return Status::Corruption("not a GLAS tile (bad magic)");
  }
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->point_count));
  for (double& v : h->scale) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->offset) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->min_world) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  for (double& v : h->max_world) GEOCOL_RETURN_NOT_OK(r->ReadScalar(&v));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->record_length));
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&h->compressed));
  if (h->record_length != kLasRecordBytes) {
    return Status::Corruption("unsupported record length " +
                              std::to_string(h->record_length));
  }
  for (int a = 0; a < 3; ++a) {
    if (h->scale[a] <= 0.0) return Status::Corruption("non-positive scale");
  }
  return Status::OK();
}

/// Reads `count` serialized records into `out`; `raw` is the staging
/// buffer. The count is bounded by the bytes left in the file first.
Status ReadRecords(BinaryReader* r, uint64_t count, std::vector<uint8_t>* raw,
                   std::vector<LasPointRecord>* out) {
  GEOCOL_RETURN_NOT_OK(r->CheckRemaining(count, kLasRecordBytes));
  GEOCOL_RETURN_NOT_OK(r->ReadVector(raw, count * kLasRecordBytes));
  out->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    DeserializeRecord(raw->data() + i * kLasRecordBytes, &(*out)[i]);
  }
  return Status::OK();
}

/// `st` with `path` prefixed to its message.
Status InFile(const std::string& path, Status st) {
  if (st.ok()) return st;
  return Status(st.code(), path + ": " + st.message());
}
}  // namespace

Result<LasHeader> ReadLasHeader(const std::string& path) {
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  LasHeader h;
  GEOCOL_RETURN_NOT_OK(InFile(path, ReadHeader(&r, &h)));
  return h;
}

Result<LasTile> ReadLasFile(const std::string& path) {
  LasTileReader reader;
  GEOCOL_RETURN_NOT_OK(reader.Open(path));
  LasTile tile;
  tile.header = reader.header();
  // Open bounded an uncompressed count by the file size; a LAZ count only
  // by the payload, so its records grow as they decode.
  if (tile.header.compressed == 0) {
    tile.points.reserve(tile.header.point_count);
  }
  while (true) {
    GEOCOL_ASSIGN_OR_RETURN(std::span<const LasPointRecord> block,
                            reader.NextBlock(kLazChunkSize));
    if (block.empty()) return tile;
    tile.points.insert(tile.points.end(), block.begin(), block.end());
  }
}

Status AppendLasFile(const std::string& path, FlatTable* table) {
  LasTileReader reader;
  GEOCOL_RETURN_NOT_OK(reader.Open(path));
  while (true) {
    GEOCOL_ASSIGN_OR_RETURN(std::span<const LasPointRecord> block,
                            reader.NextBlock(kLazChunkSize));
    if (block.empty()) return Status::OK();
    GEOCOL_RETURN_NOT_OK(AppendTileToTable(reader.header(), block, table));
  }
}

Status LasTileReader::Open(const std::string& path) {
  path_ = path;
  returned_ = 0;
  chunk_returned_ = 0;
  records_.clear();
  GEOCOL_RETURN_NOT_OK(file_.Open(path));
  GEOCOL_RETURN_NOT_OK(InFile(path, ReadHeader(&file_, &header_)));
  if (header_.compressed == 0) {
    return InFile(path,
                  file_.CheckRemaining(header_.point_count, kLasRecordBytes));
  }
  GEOCOL_RETURN_NOT_OK(InFile(path, file_.ReadScalar(&payload_left_)));
  GEOCOL_RETURN_NOT_OK(InFile(path, file_.CheckRemaining(payload_left_, 1)));
  return InFile(path, CheckLazPointCount(header_.point_count, payload_left_));
}

Result<std::span<const LasPointRecord>> LasTileReader::NextBlock(
    size_t max_records) {
  const uint64_t left = header_.point_count - returned_;
  if (header_.compressed == 0) {
    const uint64_t count = std::min<uint64_t>(max_records, left);
    GEOCOL_RETURN_NOT_OK(
        InFile(path_, ReadRecords(&file_, count, &raw_, &records_)));
    returned_ += count;
    return std::span<const LasPointRecord>(records_);
  }
  if (chunk_returned_ == records_.size() && left > 0) {
    // Decode the next chunk; its bytes come straight from the file.
    const LazByteSource source =
        [this](size_t n) -> Result<std::span<const uint8_t>> {
      if (n > payload_left_) return Status::Corruption("LAZ payload truncated");
      raw_.resize(n);
      GEOCOL_RETURN_NOT_OK(file_.ReadBytes(raw_.data(), n));
      payload_left_ -= n;
      return std::span<const uint8_t>(raw_);
    };
    records_.resize(std::min<uint64_t>(kLazChunkSize, left));
    chunk_returned_ = 0;
    Status st = LazDecodeChunk(source, records_);
    if (!st.ok()) {
      records_.clear();
      return InFile(path_, st);
    }
  }
  const size_t count = std::min(max_records, records_.size() - chunk_returned_);
  std::span<const LasPointRecord> block =
      std::span<const LasPointRecord>(records_).subspan(chunk_returned_, count);
  chunk_returned_ += count;
  returned_ += count;
  return block;
}

}  // namespace geocol
