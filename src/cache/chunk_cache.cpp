#include "cache/chunk_cache.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "telemetry/metrics.h"

namespace geocol {
namespace cache {

namespace {

// Per-entry bookkeeping charge: hash map node, LRU node, shared_ptr
// control block, vector header.
constexpr size_t kEntryOverhead = 128;

}  // namespace

ChunkCache::ChunkCache(uint64_t budget_bytes)
    : budget_(budget_bytes), hits_(0), misses_(0), inserts_(0) {}

ChunkCache::~ChunkCache() = default;

ChunkCache& ChunkCache::Global() {
  static ChunkCache* cache = new ChunkCache(DefaultBudgetBytes());
  return *cache;
}

uint64_t ChunkCache::DefaultBudgetBytes() {
  const char* env = std::getenv("GEOCOL_CHUNK_CACHE_MB");
  if (env != nullptr) {
    char* end = nullptr;
    unsigned long long mb = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return uint64_t{mb} * 1024 * 1024;
  }
  return uint64_t{64} * 1024 * 1024;
}

uint64_t ChunkCache::NextFileId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void ChunkCache::SetBudget(uint64_t budget_bytes) {
  budget_.store(budget_bytes, std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictLocked(shard);
  }
  UpdateGauge();
}

uint64_t ChunkCache::KeyFor(uint64_t file_id, uint32_t chunk_index) {
  // File ids are a small counter; chunk indexes top out at 2^22 for the
  // largest plausible column (2^40 bytes / 256 KiB), so the pair packs
  // losslessly.
  return (file_id << 24) | chunk_index;
}

ChunkCache::Shard& ChunkCache::ShardFor(uint64_t key) {
  // Spread both the file id and the chunk index across shards so one hot
  // column does not serialise on a single mutex.
  uint64_t h = key * uint64_t{0x9E3779B97F4A7C15};
  return shards_[(h >> 32) % kShards];
}

uint64_t ChunkCache::ShardBudget() const {
  return budget_.load(std::memory_order_relaxed) / kShards;
}

ChunkCache::Payload ChunkCache::Lookup(uint64_t file_id, uint32_t chunk_index) {
  GEOCOL_METRIC_COUNTER(c_hits, "geocol_chunk_cache_hits_total");
  GEOCOL_METRIC_COUNTER(c_faults, "geocol_chunk_faults_total");
  uint64_t key = KeyFor(file_id, chunk_index);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      hits_.fetch_add(1, std::memory_order_relaxed);
      c_hits.Increment();
      return it->second.value;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  c_faults.Increment();
  return nullptr;
}

void ChunkCache::Insert(uint64_t file_id, uint32_t chunk_index,
                        Payload value) {
  if (value == nullptr) return;
  size_t charge = value->capacity() + kEntryOverhead;
  if (charge > ShardBudget()) return;  // oversized: never admitted
  uint64_t key = KeyFor(file_id, chunk_index);
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // A concurrent faulter won the race; its bytes are identical (same
      // file id = same immutable generation), keep them.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
      return;
    }
    shard.lru.push_front(key);
    Entry entry;
    entry.value = std::move(value);
    entry.bytes = charge;
    entry.lru_it = shard.lru.begin();
    shard.map.emplace(key, std::move(entry));
    shard.bytes += charge;
    EvictLocked(shard);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  UpdateGauge();
}

void ChunkCache::EvictLocked(Shard& shard) {
  GEOCOL_METRIC_COUNTER(c_evictions, "geocol_chunk_cache_evictions_total");
  uint64_t slice = ShardBudget();
  while (shard.bytes > slice && !shard.lru.empty()) {
    uint64_t victim = shard.lru.back();
    auto it = shard.map.find(victim);
    shard.bytes -= it->second.bytes;
    shard.map.erase(it);
    shard.lru.pop_back();
    ++shard.evictions;
    c_evictions.Increment();
  }
}

void ChunkCache::EraseFile(uint64_t file_id) {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      if ((it->first >> 24) == file_id) {
        shard.bytes -= it->second.bytes;
        shard.lru.erase(it->second.lru_it);
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }
  UpdateGauge();
}

void ChunkCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.map.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
  UpdateGauge();
}

void ChunkCache::UpdateGauge() {
  GEOCOL_METRIC_GAUGE(g_bytes, "geocol_chunk_cache_bytes");
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  g_bytes.Set(static_cast<int64_t>(total));
}

ChunkCache::Stats ChunkCache::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.budget_bytes = budget_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.map.size();
    s.bytes += shard.bytes;
    s.evictions += shard.evictions;
  }
  return s;
}

std::string ChunkCache::StatsToString() const {
  Stats s = GetStats();
  uint64_t lookups = s.hits + s.misses;
  double hit_rate = lookups > 0 ? 100.0 * s.hits / lookups : 0.0;
  char buf[256];
  std::string out = "chunk cache (paged columns):\n";
  std::snprintf(buf, sizeof(buf),
                "  budget     %8.1f MiB   used %8.1f MiB   chunks %llu\n",
                s.budget_bytes / 1048576.0, s.bytes / 1048576.0,
                static_cast<unsigned long long>(s.entries));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  hits %llu   faults %llu   evictions %llu   hit-rate %.1f%%\n",
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions), hit_rate);
  out += buf;
  return out;
}

}  // namespace cache
}  // namespace geocol
