// Executes planned queries, producing tabular result sets and per-operator
// profiles (the demo's "execution time spent in each operator", §4.2).
#ifndef GEOCOL_SQL_EXECUTOR_H_
#define GEOCOL_SQL_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/profile.h"
#include "sql/planner.h"
#include "util/status.h"

namespace geocol {
namespace sql {

/// A dynamically typed result cell.
struct Value {
  enum class Kind { kNull, kNumber, kText };
  Kind kind = Kind::kNull;
  double number = 0.0;
  std::string text;

  static Value Null() { return Value(); }
  static Value Num(double v) {
    Value val;
    val.kind = Kind::kNumber;
    val.number = v;
    return val;
  }
  static Value Text(std::string s) {
    Value val;
    val.kind = Kind::kText;
    val.text = std::move(s);
    return val;
  }

  std::string ToString() const;
  bool operator==(const Value& o) const;
};

/// Column-named rows plus the execution profile.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  QueryProfile profile;

  size_t num_rows() const { return rows.size(); }

  /// Pretty table rendering (up to `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;
};

/// Runs a planned query.
Result<ResultSet> ExecuteQuery(const PlannedQuery& plan);

/// Runs a point-cloud plan whose selection was already computed elsewhere
/// (the server's shared-scan batching fan-out): skips the view Select and
/// renders aggregation / ORDER BY / LIMIT / projection over `rows` exactly
/// like ExecuteQuery would over the same row set, so the result is
/// bit-identical by construction. `rows` must be ascending global row ids
/// of the plan's view; `profile` carries the caller's selection-phase
/// spans and becomes the base of the result profile. The caller
/// guarantees a plain query: kPointCloud target, no NEAR, not EXPLAIN
/// [ANALYZE].
Result<ResultSet> ExecutePointCloudWithRows(const PlannedQuery& plan,
                                            std::vector<uint64_t> rows,
                                            QueryProfile profile);

/// CRC32C of a canonical byte image of `rs` (column names, row count,
/// every cell's kind plus its exact double bits or text). Bit-identical
/// executions — the engine's contract across threads/SIMD/sharding —
/// produce equal digests; the flight recorder stores this per query and
/// `geocol replay` diffs against it.
uint32_t ResultSetDigest(const ResultSet& rs);

}  // namespace sql
}  // namespace geocol

#endif  // GEOCOL_SQL_EXECUTOR_H_
