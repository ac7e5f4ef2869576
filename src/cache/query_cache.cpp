#include "cache/query_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "telemetry/metrics.h"

namespace geocol {
namespace cache {

namespace {

// Conservative per-entry bookkeeping charge: the key is stored twice (map
// key + LRU node) and the hash map / list nodes carry pointers of their own.
size_t EntryOverhead(const std::string& key) {
  return 2 * key.size() + 96;
}

// Fingerprint slots per shard. 512 x 8 bytes x 16 shards = 64 KB of
// doorkeeper state; plenty for the handful of live query shapes a process
// sees between repeats.
constexpr size_t kDoorkeeperSlots = 512;

}  // namespace

uint64_t CacheStats::TotalHits() const {
  uint64_t n = 0;
  for (const TierStats& t : tier) n += t.hits;
  return n;
}

uint64_t CacheStats::TotalMisses() const {
  uint64_t n = 0;
  for (const TierStats& t : tier) n += t.misses;
  return n;
}

// ---- KeyBuilder -----------------------------------------------------------

void KeyBuilder::AppendU64(uint64_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  bytes_.append(buf, sizeof(v));
}

void KeyBuilder::AppendU32(uint32_t v) {
  char buf[sizeof(v)];
  std::memcpy(buf, &v, sizeof(v));
  bytes_.append(buf, sizeof(v));
}

void KeyBuilder::AppendDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(bits);
}

void KeyBuilder::Append(const std::string& s) {
  AppendU64(s.size());
  bytes_.append(s);
}

void KeyBuilder::Append(const char* s) {
  size_t n = std::strlen(s);
  AppendU64(n);
  bytes_.append(s, n);
}

void KeyBuilder::AppendGeometry(const Geometry& g) {
  AppendU32(static_cast<uint32_t>(g.type()));
  auto append_points = [this](const std::vector<Point>& pts) {
    AppendU64(pts.size());
    for (const Point& p : pts) {
      AppendDouble(p.x);
      AppendDouble(p.y);
    }
  };
  auto append_polygon = [&](const Polygon& poly) {
    append_points(poly.shell.points);
    AppendU64(poly.holes.size());
    for (const Ring& hole : poly.holes) append_points(hole.points);
  };
  switch (g.type()) {
    case GeometryType::kPoint:
      AppendDouble(g.point().x);
      AppendDouble(g.point().y);
      break;
    case GeometryType::kBox:
      AppendDouble(g.box().min_x);
      AppendDouble(g.box().min_y);
      AppendDouble(g.box().max_x);
      AppendDouble(g.box().max_y);
      break;
    case GeometryType::kLineString:
      append_points(g.line().points);
      break;
    case GeometryType::kPolygon:
      append_polygon(g.polygon());
      break;
    case GeometryType::kMultiPolygon:
      AppendU64(g.multipolygon().polygons.size());
      for (const Polygon& poly : g.multipolygon().polygons) {
        append_polygon(poly);
      }
      break;
  }
}

// ---- QueryResultCache -----------------------------------------------------

QueryResultCache::QueryResultCache(uint64_t budget_bytes)
    : budget_(budget_bytes) {
  for (Shard& shard : shards_) shard.seen.assign(kDoorkeeperSlots, 0);
}

QueryResultCache::~QueryResultCache() = default;

QueryResultCache& QueryResultCache::Global() {
  static QueryResultCache* cache = new QueryResultCache(0);
  return *cache;
}

void QueryResultCache::SetBudget(uint64_t budget_bytes) {
  budget_.store(budget_bytes, std::memory_order_relaxed);
  const uint64_t per_shard = ShardBudget();
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    while (shard.bytes > per_shard && !shard.lru.empty()) {
      EraseLocked(shard, shard.map.find(shard.lru.back()), true);
    }
  }
}

void QueryResultCache::GrowBudget(uint64_t budget_bytes) {
  uint64_t cur = budget_.load(std::memory_order_relaxed);
  while (budget_bytes > cur &&
         !budget_.compare_exchange_weak(cur, budget_bytes,
                                        std::memory_order_relaxed)) {
  }
}

bool QueryResultCache::NoteSightingLocked(Shard& shard, size_t key_hash) {
  const uint64_t fp = key_hash == 0 ? 1 : key_hash;
  uint64_t& slot = shard.seen[(key_hash / kShards) % kDoorkeeperSlots];
  if (slot == fp) return true;
  slot = fp;
  return false;
}

bool QueryResultCache::ShouldAdmit(const std::string& key) {
  GEOCOL_METRIC_COUNTER(c_deferrals,
                        "geocol_cache_selection_admission_deferrals_total");
  const size_t h = std::hash<std::string>{}(key);
  Shard& shard = ShardFor(h);
  bool admit;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    admit = shard.map.find(key) != shard.map.end() ||
            NoteSightingLocked(shard, h);
  }
  if (!admit) c_deferrals.Increment();
  return admit;
}

bool QueryResultCache::Contains(const std::string& key) const {
  const size_t h = std::hash<std::string>{}(key);
  const Shard& shard = shards_[h % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.map.find(key) != shard.map.end();
}

uint64_t QueryResultCache::ShardBudget() const {
  return budget_.load(std::memory_order_relaxed) / kShards;
}

void QueryResultCache::EraseLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it,
    bool count_eviction) {
  GEOCOL_METRIC_COUNTER(c_evictions, "geocol_cache_selection_evictions_total");
  shard.bytes -= it->second.bytes;
  if (count_eviction) {
    ++shard.evictions;
    c_evictions.Increment();
  }
  shard.lru.erase(it->second.lru_it);
  shard.map.erase(it);
}

std::shared_ptr<const CachedSelection> QueryResultCache::LookupSelection(
    const std::string& key) {
  GEOCOL_METRIC_COUNTER(c_hits, "geocol_cache_selection_hits_total");
  GEOCOL_METRIC_COUNTER(c_misses, "geocol_cache_selection_misses_total");
  Shard& shard = ShardFor(std::hash<std::string>{}(key));
  std::shared_ptr<const CachedSelection> value;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      value = it->second.value;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
    }
  }
  if (value != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    c_hits.Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    c_misses.Increment();
  }
  return value;
}

void QueryResultCache::InsertSelection(
    const std::string& key, std::shared_ptr<const CachedSelection> value) {
  GEOCOL_METRIC_COUNTER(c_inserts, "geocol_cache_selection_inserts_total");
  GEOCOL_METRIC_COUNTER(c_deferrals,
                        "geocol_cache_selection_admission_deferrals_total");
  if (value == nullptr) return;
  const uint64_t per_shard = ShardBudget();
  const size_t bytes = value->MemoryBytes() + EntryOverhead(key);
  // An entry that alone exceeds the shard slice would immediately evict
  // everything and then be evicted itself on the next insert; skip it.
  if (bytes > per_shard) return;
  const size_t h = std::hash<std::string>{}(key);
  Shard& shard = ShardFor(h);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end() && !NoteSightingLocked(shard, h)) {
      // First sighting: admission waits for a repeat.
      c_deferrals.Increment();
      return;
    }
    if (it != shard.map.end()) EraseLocked(shard, it, false);
    shard.lru.push_front(key);
    shard.bytes += bytes;
    shard.map.emplace(key, Entry{std::move(value), bytes, shard.lru.begin()});
    while (shard.bytes > per_shard && !shard.lru.empty()) {
      EraseLocked(shard, shard.map.find(shard.lru.back()), true);
    }
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  c_inserts.Increment();
}

void QueryResultCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
    std::fill(shard.seen.begin(), shard.seen.end(), 0);
  }
}

CacheStats QueryResultCache::Stats() const {
  CacheStats stats;
  stats.budget_bytes = budget_.load(std::memory_order_relaxed);
  TierStats& sel = stats.tier[static_cast<size_t>(Tier::kSelection)];
  sel.hits = hits_.load(std::memory_order_relaxed);
  sel.misses = misses_.load(std::memory_order_relaxed);
  sel.inserts = inserts_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    sel.evictions += shard.evictions;
    sel.entries += shard.map.size();
    sel.bytes += shard.bytes;
  }
  stats.bytes_used = sel.bytes;
  return stats;
}

uint64_t QueryResultCache::bytes_used() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

std::string QueryResultCache::StatsToString() const {
  const CacheStats stats = Stats();
  const TierStats& sel = stats.tier[static_cast<size_t>(Tier::kSelection)];
  const uint64_t lookups = sel.hits + sel.misses;
  char line[200];
  std::snprintf(
      line, sizeof(line),
      "cache budget %.2f MB, used %.2f MB\n"
      "  selection hits %llu / %llu (%.1f%%), inserts %llu, evictions %llu, "
      "entries %llu\n",
      stats.budget_bytes / (1024.0 * 1024.0),
      stats.bytes_used / (1024.0 * 1024.0),
      static_cast<unsigned long long>(sel.hits),
      static_cast<unsigned long long>(lookups),
      lookups > 0 ? 100.0 * sel.hits / lookups : 0.0,
      static_cast<unsigned long long>(sel.inserts),
      static_cast<unsigned long long>(sel.evictions),
      static_cast<unsigned long long>(sel.entries));
  return line;
}

}  // namespace cache
}  // namespace geocol
