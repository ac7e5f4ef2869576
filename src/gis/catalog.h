// The catalog: named point-cloud tables (flat, Hilbert-sharded or live)
// and named vector layers. This is what the SQL front end resolves
// FROM clauses against, and what the demo scenarios assemble.
#ifndef GEOCOL_GIS_CATALOG_H_
#define GEOCOL_GIS_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/live_table.h"
#include "core/shard_router.h"
#include "core/spatial_engine.h"
#include "gis/layer.h"
#include "util/status.h"

namespace geocol {

/// What one statement against a point cloud executes with: the pinned
/// view, plus the engine (flat and live tables) or router (sharded tables)
/// serving it. The view keeps its shards, their engines and columns
/// alive; a router lives as long as the catalog.
struct PinnedPointCloud {
  std::shared_ptr<const ShardsView> view;
  SpatialQueryEngine* engine = nullptr;
  ShardRouter* router = nullptr;
};

/// Named dataset registry.
class Catalog {
 public:
  /// Registers a point cloud table: a constant one-shard view over it,
  /// whose shard engine is created with `options`. `options.cache` is the
  /// table's one result-cache binding; nothing rebinds it per statement.
  Status AddPointCloud(const std::string& name,
                       std::shared_ptr<FlatTable> table,
                       EngineOptions options = {});

  Status AddLayer(std::shared_ptr<VectorLayer> layer);

  /// Registers a Hilbert-sharded point cloud; queries route through a
  /// ShardRouter built with `options`. Shares the point-cloud/layer
  /// namespace.
  Status AddShardedPointCloud(const std::string& name,
                              std::shared_ptr<ShardedTable> table,
                              EngineOptions options = {});

  /// Registers a live (appendable) point cloud. Statements against it pin
  /// the table's current epoch snapshot at plan time, so appends landing
  /// mid-statement never shift rows or free columns under the executor.
  Status AddLivePointCloud(const std::string& name,
                           std::shared_ptr<LiveTable> table);

  bool HasPointCloud(const std::string& name) const {
    return flat_.count(name) != 0;
  }
  bool HasLayer(const std::string& name) const {
    return layers_.count(name) != 0;
  }

  /// Pins point cloud `name` (flat, sharded or live) for one statement: the
  /// flat table's constant view, the router's current view, or the live
  /// table's current epoch. NotFound for any other name.
  Result<PinnedPointCloud> PinPointCloud(const std::string& name);

  /// The engine serving flat table `name` (its one shard's engine).
  Result<SpatialQueryEngine*> GetEngine(const std::string& name);
  /// Flat table `name` (its one shard's table).
  Result<const FlatTable*> GetTable(const std::string& name);
  Result<std::shared_ptr<VectorLayer>> GetLayer(const std::string& name);
  Result<ShardRouter*> GetRouter(const std::string& name);

  std::vector<std::string> PointCloudNames() const;
  std::vector<std::string> LayerNames() const;
  std::vector<std::string> ShardedPointCloudNames() const;

 private:
  bool NameTaken(const std::string& name) const {
    return flat_.count(name) != 0 || layers_.count(name) != 0 ||
           routers_.count(name) != 0 || live_tables_.count(name) != 0;
  }

  struct FlatCloud {
    std::shared_ptr<LocalShard> shard;
    std::shared_ptr<const ShardsView> view;
  };
  std::map<std::string, FlatCloud> flat_;
  std::map<std::string, std::shared_ptr<VectorLayer>> layers_;
  std::map<std::string, std::unique_ptr<ShardRouter>> routers_;
  std::map<std::string, std::shared_ptr<LiveTable>> live_tables_;
};

}  // namespace geocol

#endif  // GEOCOL_GIS_CATALOG_H_
