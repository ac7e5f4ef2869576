// Epoch-aware query result cache. Real GIS navigation traffic is dominated
// by repeated viewport queries (GeoBlocks, PowerDrill serve such workloads
// from caches); the engine's two-step filter/refine model recomputes
// everything per query. This cache keeps one kind of value: the final
// row-id list plus the filter/refine stats of a whole selection, replayed
// on an exact repeat. Aggregates over a cached selection re-aggregate the
// replayed rows, which costs a gather, not a scan.
//
// Correctness model: a key is the *complete* byte image of everything a
// result depends on — table identity, the epoch of every referenced column
// (bumped by the existing append/shuffle invalidation), the exact geometry
// coordinates, the attribute ranges, and every engine knob that shapes the
// result or its stats (thread count, imprint and refine options). Epoch
// bumps therefore invalidate by construction: a mutated column yields a new
// key and the stale entry ages out through the LRU. Keys compare by full
// byte equality — hashes only pick the shard/bucket — so a hit can never
// alias a different query.
//
// Concurrency: lookups and inserts are thread-safe behind sharded mutexes
// (16 shards, budget split evenly); values are immutable shared_ptrs, so an
// entry returned to one query survives a concurrent eviction. Budget 0
// disables nothing here — engines simply do not consult the cache, keeping
// the cache-off path bit-identical to an engine built before this layer.
//
// Admission: every selection, whatever its size, is admitted only on its
// *second* sighting (a TinyLFU-style doorkeeper of key fingerprints per
// shard). A client panning across a map issues a stream of never-repeated
// queries; with the doorkeeper each one-shot miss costs one fingerprint
// store and the cache holds no entry for it. A key's first execution
// misses and is noted, its second misses and is admitted, and its third
// is the first hit.
#ifndef GEOCOL_CACHE_QUERY_CACHE_H_
#define GEOCOL_CACHE_QUERY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/imprint_scan.h"
#include "core/refinement.h"
#include "geom/geometry.h"

namespace geocol {
namespace cache {

/// Stat slots of CacheStats, in the order the flight recorder and the
/// benchmarks read them. Only kSelection is a cache tier; the grid and
/// aggregate slots are kept for those readers and always read 0.
enum class Tier : uint8_t { kSelection = 0, kGridCells = 1, kAggregate = 2 };
constexpr size_t kNumTiers = 3;

/// Cached value: everything of a SelectionResult except the profile
/// (wall times are per-execution; a hit reports itself via a cache.hit
/// span instead).
struct CachedSelection {
  std::vector<uint64_t> row_ids;
  ImprintScanStats filter;
  RefinementStats refine;

  size_t MemoryBytes() const {
    return sizeof(*this) + row_ids.capacity() * sizeof(uint64_t);
  }
};

/// Incremental builder of cache key bytes. Numeric appends store raw
/// little-endian bits (doubles via their IEEE-754 image, so -0.0/0.0 and
/// every NaN payload stay distinct keys — never semantically merged);
/// strings are length-prefixed so concatenations cannot alias.
class KeyBuilder {
 public:
  explicit KeyBuilder(const char* tag) { Append(tag); }

  void AppendU64(uint64_t v);
  void AppendU32(uint32_t v);
  void AppendDouble(double v);
  void Append(const std::string& s);
  void Append(const char* s);
  /// Type tag + exact coordinate bits of `g`.
  void AppendGeometry(const Geometry& g);

  const std::string& bytes() const { return bytes_; }
  std::string Take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Per-slot accounting (monotonic; `entries`/`bytes` are instantaneous).
struct TierStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

struct CacheStats {
  TierStats tier[kNumTiers];
  uint64_t budget_bytes = 0;
  uint64_t bytes_used = 0;

  uint64_t TotalHits() const;
  uint64_t TotalMisses() const;
};

/// The sharded LRU store. One process-wide instance serves every engine
/// (Global()); tests and benchmarks create private instances for cold
/// state and budget control.
class QueryResultCache {
 public:
  static constexpr size_t kShards = 16;

  explicit QueryResultCache(uint64_t budget_bytes = 0);
  ~QueryResultCache();

  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  /// The process-wide cache engines bind to by default.
  static QueryResultCache& Global();

  /// Sets the total memory budget; shrinking evicts immediately.
  void SetBudget(uint64_t budget_bytes);
  /// SetBudget(max(budget, current)) — engines declare what they need and
  /// the process-wide cache takes the largest request.
  void GrowBudget(uint64_t budget_bytes);
  uint64_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// The entry under `key`, or nullptr. Counts a hit or a miss and moves
  /// a hit to the front of its shard's LRU.
  std::shared_ptr<const CachedSelection> LookupSelection(
      const std::string& key);
  /// Stores `value` under `key` if the key is resident already or has
  /// been sighted before; otherwise only records the sighting.
  void InsertSelection(const std::string& key,
                       std::shared_ptr<const CachedSelection> value);

  /// Doorkeeper pre-check: would InsertSelection(key, ...) store the value
  /// right now? Records the sighting, exactly as the insert itself would —
  /// callers use this to skip *building* a value whose insert would be
  /// deferred anyway.
  bool ShouldAdmit(const std::string& key);

  /// True when `key` is resident. Counts nothing, records no sighting and
  /// leaves the LRU order alone: the server probes with it to route a
  /// statement, and the statement's own lookup does the accounting.
  bool Contains(const std::string& key) const;

  /// Drops every entry and sighting (budget unchanged).
  void Clear();

  CacheStats Stats() const;
  uint64_t bytes_used() const;

  /// Multi-line human rendering of Stats() for `geocol cache`.
  std::string StatsToString() const;

 private:
  struct Entry {
    std::shared_ptr<const CachedSelection> value;
    size_t bytes = 0;  ///< total charge incl. key and bookkeeping overhead
    std::list<std::string>::iterator lru_it;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Entry> map;
    /// Front = most recent. Holds the map keys; Entry::lru_it points in.
    std::list<std::string> lru;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
    /// Doorkeeper: key-hash fingerprints of keys seen once (0 = empty
    /// slot). A colliding newcomer overwrites the slot, which only delays
    /// that key's admission by one more sighting.
    std::vector<uint64_t> seen;
  };

  Shard& ShardFor(size_t key_hash) { return shards_[key_hash % kShards]; }
  /// True once `key_hash` has been seen before; otherwise records it.
  /// Caller holds the shard lock.
  bool NoteSightingLocked(Shard& shard, size_t key_hash);
  uint64_t ShardBudget() const;
  /// Removes `it` from `shard` (lock held).
  void EraseLocked(Shard& shard,
                   std::unordered_map<std::string, Entry>::iterator it,
                   bool count_eviction);

  std::atomic<uint64_t> budget_;
  Shard shards_[kShards];
  /// Monotonic counters live outside the shards: hits on different shards
  /// must not serialise on one cache line.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
};

}  // namespace cache
}  // namespace geocol

#endif  // GEOCOL_CACHE_QUERY_CACHE_H_
