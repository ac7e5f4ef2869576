// Process-wide budgeted cache of faulted column chunks — the memory tier
// of the paged column backend (DESIGN.md §14). A paged column keeps only
// its chunk directory in memory; every scan pins chunks through this
// cache, so the budget bounds the resident set of ALL paged tables in the
// process no matter how much data the queries touch.
//
// Keys are (file id, chunk index). File ids are process-unique (handed
// out by NextFileId() at every paged open), so a reopened generation or a
// freshly appended table can never alias a stale entry — invalidation by
// construction, the same idea as the query cache's epoch-keyed entries.
//
// Values are immutable shared_ptrs to the decoded chunk bytes: a reader
// holding a pin keeps its chunk alive across a concurrent eviction.
// Inserts that exceed the shard's budget slice are dropped (the caller
// still gets its pinned chunk) — a tiny budget degrades to re-faulting,
// never to failure, which is what the tiny-budget equivalence tests lean
// on.
#ifndef GEOCOL_CACHE_CHUNK_CACHE_H_
#define GEOCOL_CACHE_CHUNK_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace geocol {
namespace cache {

class ChunkCache {
 public:
  static constexpr size_t kShards = 16;

  using Payload = std::shared_ptr<const std::vector<uint8_t>>;

  explicit ChunkCache(uint64_t budget_bytes);
  ~ChunkCache();

  ChunkCache(const ChunkCache&) = delete;
  ChunkCache& operator=(const ChunkCache&) = delete;

  /// The process-wide cache every paged column faults into. Its initial
  /// budget comes from GEOCOL_CHUNK_CACHE_MB (default 64 MiB).
  static ChunkCache& Global();
  static uint64_t DefaultBudgetBytes();

  /// Hands out the process-unique id a paged open keys its chunks under.
  static uint64_t NextFileId();

  /// Sets the total memory budget; shrinking evicts immediately.
  void SetBudget(uint64_t budget_bytes);
  uint64_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }

  /// The cached chunk, or nullptr (a miss — the caller faults from disk).
  Payload Lookup(uint64_t file_id, uint32_t chunk_index);

  /// Publishes a freshly faulted chunk. Oversized values are dropped
  /// without insertion; concurrent faulters of the same chunk keep the
  /// first value inserted.
  void Insert(uint64_t file_id, uint32_t chunk_index, Payload value);

  /// Drops every chunk of `file_id` — called when a paged column is
  /// destroyed so its bytes do not squat in the budget until aged out.
  void EraseFile(uint64_t file_id);

  /// Drops every entry (budget unchanged).
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t budget_bytes = 0;
  };
  Stats GetStats() const;

  /// Multi-line human rendering of GetStats() for `geocol cache`.
  std::string StatsToString() const;

 private:
  struct Entry {
    Payload value;
    size_t bytes = 0;  ///< charge incl. bookkeeping overhead
    std::list<uint64_t>::iterator lru_it;
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, Entry> map;
    /// Front = most recent. Holds the map keys; Entry::lru_it points in.
    std::list<uint64_t> lru;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
  };

  static uint64_t KeyFor(uint64_t file_id, uint32_t chunk_index);
  Shard& ShardFor(uint64_t key);
  uint64_t ShardBudget() const;
  void EvictLocked(Shard& shard);
  void UpdateGauge();

  std::atomic<uint64_t> budget_;
  Shard shards_[kShards];
  /// Monotonic counters live outside the shards: hits on different shards
  /// must not serialise on one cache line.
  std::atomic<uint64_t> hits_;
  std::atomic<uint64_t> misses_;
  std::atomic<uint64_t> inserts_;
};

}  // namespace cache
}  // namespace geocol

#endif  // GEOCOL_CACHE_CHUNK_CACHE_H_
