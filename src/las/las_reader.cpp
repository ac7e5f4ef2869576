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

/// Reads and decodes the whole LAZ payload that follows the header.
Status ReadLazRecords(BinaryReader* r, uint64_t count,
                      std::vector<LasPointRecord>* out) {
  uint64_t payload_size = 0;
  GEOCOL_RETURN_NOT_OK(r->ReadScalar(&payload_size));
  std::vector<uint8_t> payload;
  GEOCOL_RETURN_NOT_OK(r->ReadVector(&payload, payload_size));
  return LazDecompress(payload, count, out);
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
  BinaryReader r;
  GEOCOL_RETURN_NOT_OK(r.Open(path));
  LasTile tile;
  GEOCOL_RETURN_NOT_OK(InFile(path, ReadHeader(&r, &tile.header)));
  uint64_t n = tile.header.point_count;
  std::vector<uint8_t> raw;
  GEOCOL_RETURN_NOT_OK(InFile(
      path, tile.header.compressed != 0
                ? ReadLazRecords(&r, n, &tile.points)
                : ReadRecords(&r, n, &raw, &tile.points)));
  return tile;
}

Status LasTileReader::Open(const std::string& path) {
  path_ = path;
  returned_ = 0;
  GEOCOL_RETURN_NOT_OK(file_.Open(path));
  GEOCOL_RETURN_NOT_OK(InFile(path, ReadHeader(&file_, &header_)));
  return InFile(path,
                header_.compressed != 0
                    ? ReadLazRecords(&file_, header_.point_count, &records_)
                    : file_.CheckRemaining(header_.point_count,
                                           kLasRecordBytes));
}

Result<std::span<const LasPointRecord>> LasTileReader::NextBlock(
    size_t max_records) {
  const uint64_t count =
      std::min<uint64_t>(max_records, header_.point_count - returned_);
  std::span<const LasPointRecord> block;
  if (header_.compressed != 0) {
    block = std::span<const LasPointRecord>(records_).subspan(returned_, count);
  } else {
    GEOCOL_RETURN_NOT_OK(
        InFile(path_, ReadRecords(&file_, count, &raw_, &records_)));
    block = records_;
  }
  returned_ += count;
  return block;
}

}  // namespace geocol
