#include "baselines/block_store.h"

#include <algorithm>
#include <numeric>

#include "geom/predicates.h"
#include "las/laz.h"
#include "sfc/hilbert.h"
#include "sfc/morton.h"
#include "util/timer.h"

namespace geocol {

Result<BlockStore> BlockStore::Build(std::vector<LasPointRecord> points,
                                     const LasHeader& header,
                                     const Options& options,
                                     BuildStats* stats) {
  if (options.points_per_block == 0) {
    return Status::InvalidArgument("points_per_block must be positive");
  }
  BlockStore store;
  store.header_ = header;
  store.num_points_ = points.size();

  LasTile shim;
  shim.header = header;

  // ---- Sort along the space-filling curve.
  Timer t;
  if (options.order != BlockOrder::kAcquisition && !points.empty()) {
    Box extent;
    for (const auto& p : points) {
      extent.Extend(shim.WorldX(p), shim.WorldY(p));
    }
    std::vector<uint64_t> codes(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      double wx = shim.WorldX(points[i]);
      double wy = shim.WorldY(points[i]);
      codes[i] = options.order == BlockOrder::kMorton
                     ? MortonEncodeScaled(wx, wy, extent)
                     : HilbertEncodeScaled(wx, wy, extent);
    }
    std::vector<uint32_t> perm(points.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::sort(perm.begin(), perm.end(),
              [&](uint32_t a, uint32_t b) { return codes[a] < codes[b]; });
    std::vector<LasPointRecord> sorted(points.size());
    for (size_t i = 0; i < perm.size(); ++i) sorted[i] = points[perm[i]];
    points = std::move(sorted);
  }
  if (stats != nullptr) stats->sort_seconds = t.ElapsedSeconds();

  // ---- Cut into blocks and record bounding boxes.
  t.Restart();
  size_t nblocks =
      (points.size() + options.points_per_block - 1) / options.points_per_block;
  store.blocks_.resize(nblocks);
  for (size_t b = 0; b < nblocks; ++b) {
    size_t first = b * options.points_per_block;
    size_t last =
        std::min(points.size(), first + options.points_per_block);
    Block& block = store.blocks_[b];
    block.count = static_cast<uint32_t>(last - first);
    for (size_t i = first; i < last; ++i) {
      block.box.Extend(shim.WorldX(points[i]), shim.WorldY(points[i]));
    }
  }
  if (stats != nullptr) stats->block_seconds = t.ElapsedSeconds();

  // ---- Compress each block's points.
  t.Restart();
  for (size_t b = 0; b < nblocks; ++b) {
    Block& block = store.blocks_[b];
    GEOCOL_RETURN_NOT_OK(LazCompress(
        std::span<const LasPointRecord>(points).subspan(
            b * options.points_per_block, block.count),
        &block.payload));
  }
  if (stats != nullptr) stats->compress_seconds = t.ElapsedSeconds();

  // ---- R-tree over block boxes.
  t.Restart();
  std::vector<RTree::Entry> entries;
  entries.reserve(nblocks);
  for (size_t b = 0; b < nblocks; ++b) {
    entries.push_back({store.blocks_[b].box, b});
  }
  store.block_index_ = RTree::BulkLoad(std::move(entries), options.rtree_fanout);
  if (stats != nullptr) stats->index_seconds = t.ElapsedSeconds();
  return store;
}

Result<std::vector<PointXYZ>> BlockStore::QueryGeometry(
    const Geometry& geometry, double buffer, QueryStats* stats) const {
  QueryStats local;
  local.blocks_total = blocks_.size();
  Box env = geometry.Envelope();
  if (buffer > 0) env = env.Expanded(buffer);

  std::vector<uint64_t> candidate_blocks;
  block_index_.QueryBox(env, &candidate_blocks);
  std::sort(candidate_blocks.begin(), candidate_blocks.end());

  LasTile shim;
  shim.header = header_;
  std::vector<PointXYZ> out;
  std::vector<LasPointRecord> records;
  for (uint64_t b : candidate_blocks) {
    const Block& block = blocks_[b];
    ++local.blocks_candidate;
    GEOCOL_RETURN_NOT_OK(LazDecompress(block.payload, block.count, &records));
    local.points_decompressed += records.size();
    for (const LasPointRecord& rec : records) {
      Point p{shim.WorldX(rec), shim.WorldY(rec)};
      if (!env.Contains(p)) continue;
      bool hit = buffer > 0 ? GeometryDWithin(geometry, p, buffer)
                            : GeometryContainsPoint(geometry, p);
      if (hit) out.push_back({p.x, p.y, shim.WorldZ(rec)});
    }
  }
  local.results = out.size();
  if (stats != nullptr) *stats = local;
  return out;
}

uint64_t BlockStore::PayloadBytes() const {
  uint64_t total = 0;
  for (const Block& b : blocks_) total += b.payload.size();
  return total;
}

uint64_t BlockStore::IndexBytes() const {
  return blocks_.size() * (sizeof(Box) + sizeof(uint32_t)) +
         block_index_.MemoryBytes();
}

}  // namespace geocol
