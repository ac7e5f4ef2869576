#include "gis/catalog.h"

namespace geocol {

Status Catalog::AddPointCloud(const std::string& name,
                              std::shared_ptr<FlatTable> table,
                              EngineOptions options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  auto shard = std::make_shared<LocalShard>(std::move(table), options);
  FlatCloud& flat = flat_[name];
  flat.view = ShardsView::Single(shard, "x", "y");
  flat.shard = std::move(shard);
  return Status::OK();
}

Status Catalog::AddShardedPointCloud(const std::string& name,
                                     std::shared_ptr<ShardedTable> table,
                                     EngineOptions options) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  routers_[name] = std::make_unique<ShardRouter>(std::move(table), options);
  return Status::OK();
}

Status Catalog::AddLivePointCloud(const std::string& name,
                                  std::shared_ptr<LiveTable> table) {
  if (table == nullptr) return Status::InvalidArgument("null live table");
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  live_tables_[name] = std::move(table);
  return Status::OK();
}

Status Catalog::AddLayer(std::shared_ptr<VectorLayer> layer) {
  if (layer == nullptr) return Status::InvalidArgument("null layer");
  const std::string& name = layer->name();
  if (NameTaken(name)) {
    return Status::AlreadyExists("dataset '" + name + "' exists");
  }
  layers_[name] = std::move(layer);
  return Status::OK();
}

Result<PinnedPointCloud> Catalog::PinPointCloud(const std::string& name) {
  PinnedPointCloud pinned;
  if (auto it = flat_.find(name); it != flat_.end()) {
    pinned.view = it->second.view;
    pinned.engine = &it->second.shard->engine();
  } else if (auto rt = routers_.find(name); rt != routers_.end()) {
    pinned.view = rt->second->Pin();
    pinned.router = rt->second.get();
  } else if (auto lt = live_tables_.find(name); lt != live_tables_.end()) {
    EpochSnapshot snapshot = lt->second->Pin();
    pinned.view = std::move(snapshot.view);
    pinned.engine = snapshot.engine.get();
  } else {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return pinned;
}

Result<SpatialQueryEngine*> Catalog::GetEngine(const std::string& name) {
  auto it = flat_.find(name);
  if (it == flat_.end()) {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return &it->second.shard->engine();
}

Result<const FlatTable*> Catalog::GetTable(const std::string& name) {
  auto it = flat_.find(name);
  if (it == flat_.end()) {
    return Status::NotFound("no point cloud '" + name + "'");
  }
  return &it->second.shard->table();
}

Result<std::shared_ptr<VectorLayer>> Catalog::GetLayer(
    const std::string& name) {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    return Status::NotFound("no layer '" + name + "'");
  }
  return it->second;
}

Result<ShardRouter*> Catalog::GetRouter(const std::string& name) {
  auto it = routers_.find(name);
  if (it == routers_.end()) {
    return Status::NotFound("no sharded point cloud '" + name + "'");
  }
  return it->second.get();
}

std::vector<std::string> Catalog::PointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flat_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::LayerNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : layers_) out.push_back(name);
  return out;
}

std::vector<std::string> Catalog::ShardedPointCloudNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : routers_) out.push_back(name);
  return out;
}

}  // namespace geocol
