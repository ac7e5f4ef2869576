#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "geom/wkt.h"
#include "gis/spatial_join.h"
#include "util/binary_io.h"
#include "util/crc32c.h"
#include "util/timer.h"

namespace geocol {
namespace sql {

std::string Value::ToString() const {
  switch (kind) {
    case Kind::kNull: return "NULL";
    case Kind::kText: return text;
    case Kind::kNumber: {
      char buf[64];
      if (number == std::floor(number) && std::abs(number) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number));
      } else {
        std::snprintf(buf, sizeof(buf), "%.6g", number);
      }
      return buf;
    }
  }
  return "";
}

bool Value::operator==(const Value& o) const {
  if (kind != o.kind) return false;
  if (kind == Kind::kNumber) return number == o.number;
  if (kind == Kind::kText) return text == o.text;
  return true;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string s;
  for (size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) s += " | ";
    s += columns[c];
  }
  s += '\n';
  s += std::string(std::max<size_t>(s.size(), 2) - 1, '-');
  s += '\n';
  size_t shown = std::min(rows.size(), max_rows);
  for (size_t r = 0; r < shown; ++r) {
    for (size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) s += " | ";
      s += rows[r][c].ToString();
    }
    s += '\n';
  }
  if (shown < rows.size()) {
    s += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  s += "(" + std::to_string(rows.size()) + " rows)\n";
  return s;
}

namespace {

AggKind AggKindOf(AggFunc f) {
  switch (f) {
    case AggFunc::kSum: return AggKind::kSum;
    case AggFunc::kAvg: return AggKind::kAvg;
    case AggFunc::kMin: return AggKind::kMin;
    case AggFunc::kMax: return AggKind::kMax;
    case AggFunc::kCount:
    case AggFunc::kNone: break;
  }
  return AggKind::kCount;
}

/// Rows per batched value-access block in the post-filter, ORDER BY and
/// projection paths below. Batching resolves the column's type dispatch
/// once per block and, on the paged tier, faults each covering chunk once
/// instead of once per row — and it surfaces chunk-fault errors as Status
/// where the scalar GetDouble can only return NaN.
constexpr size_t kExecBlockRows = 1024;

/// out[i] = the value of global row rows[i] in a column of `view` (`parts`
/// from ShardsView::Columns), for n <= kExecBlockRows. One part (a flat
/// table or live epoch) reads the rows as they are; a sharded column reads
/// each run of rows inside one shard as local ids.
Status ReadValues(const ShardsView& view, const std::vector<ColumnPtr>& parts,
                  const uint64_t* rows, size_t n, double* out) {
  if (parts.size() == 1) return parts[0]->GetDoubleBatch(rows, n, out);
  uint64_t local[kExecBlockRows];
  for (size_t i = 0; i < n;) {
    const size_t s = view.ShardOf(rows[i]);
    const uint64_t begin = view.bases[s];
    const uint64_t end = begin + parts[s]->size();
    size_t j = i;
    for (; j < n && rows[j] >= begin && rows[j] < end; ++j) {
      local[j - i] = rows[j] - begin;
    }
    if (j == i) return Status::Corruption("column length mismatch");
    GEOCOL_RETURN_NOT_OK(parts[s]->GetDoubleBatch(local, j - i, out + i));
    i = j;
  }
  return Status::OK();
}

/// The rendering half of point-cloud execution: aggregation or
/// `*`-expansion / ORDER BY / LIMIT / projection over the global rows of
/// the plan's view. `rs.profile` holds the selection-phase spans on entry.
/// Shared by ExecutePointCloud and the server's batched fan-out
/// (ExecutePointCloudWithRows), so both render bit-identically.
Result<ResultSet> RenderPointCloud(const PlannedQuery& plan,
                                   std::vector<uint64_t> rows, ResultSet rs) {
  const ShardsView& view = *plan.view;
  if (plan.stmt.IsAggregate()) {
    std::vector<Value> out_row;
    for (const SelectItem& it : plan.stmt.items) {
      rs.columns.push_back(std::string(AggFuncName(it.agg)) + "(" +
                           (it.star ? "*" : it.column) + ")");
      if (it.agg == AggFunc::kCount) {
        out_row.push_back(Value::Num(static_cast<double>(rows.size())));
      } else {
        GEOCOL_ASSIGN_OR_RETURN(
            double v, view.Aggregate(rows, it.column, AggKindOf(it.agg)));
        out_row.push_back(rows.empty() ? Value::Null() : Value::Num(v));
      }
    }
    rs.rows.push_back(std::move(out_row));
    return rs;
  }

  // Expand `*`.
  std::vector<std::string> proj;
  const Schema table_schema = view.shards[0]->table().schema();
  for (const SelectItem& it : plan.stmt.items) {
    if (it.star) {
      for (const Field& f : table_schema.fields()) proj.push_back(f.name);
    } else {
      proj.push_back(it.column);
    }
  }
  std::vector<std::vector<ColumnPtr>> cols;
  for (const std::string& name : proj) {
    GEOCOL_ASSIGN_OR_RETURN(cols.emplace_back(), view.Columns(name));
    rs.columns.push_back(name);
  }
  // ORDER BY: order[p] is the selection position of output row p.
  std::vector<size_t> order;
  if (!plan.stmt.order_by.empty()) {
    Timer ts;
    GEOCOL_ASSIGN_OR_RETURN(std::vector<ColumnPtr> key,
                            view.Columns(plan.stmt.order_by));
    // Pre-materialise the sort keys with one batched pass, then sort a
    // permutation: the comparator never touches the column, so a paged key
    // column faults each chunk once instead of O(n log n) times, and the
    // (stable) order is exactly the compare-by-value order.
    std::vector<double> keys(rows.size());
    for (size_t base = 0; base < rows.size(); base += kExecBlockRows) {
      const size_t bn = std::min(kExecBlockRows, rows.size() - base);
      GEOCOL_RETURN_NOT_OK(ReadValues(view, key, rows.data() + base, bn,
                                      keys.data() + base));
    }
    order.resize(rows.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return plan.stmt.order_desc ? keys[a] > keys[b] : keys[a] < keys[b];
    });
    rs.profile.Add("sort." + plan.stmt.order_by, ts.ElapsedNanos(),
                   rows.size(), rows.size());
  }
  uint64_t limit = plan.stmt.limit >= 0
                       ? static_cast<uint64_t>(plan.stmt.limit)
                       : rows.size();
  const size_t shown =
      static_cast<size_t>(std::min<uint64_t>(limit, rows.size()));
  Timer t;
  // Project the shown rows in ascending row order, so a paged column
  // faults each chunk once even after ORDER BY: `read` lists the rows
  // ascending and out_pos[k] is the output row of read[k].
  const uint64_t* read = rows.data();
  std::vector<uint64_t> ascending;
  std::vector<size_t> out_pos;
  if (!order.empty()) {
    out_pos.resize(shown);
    for (size_t p = 0; p < shown; ++p) out_pos[p] = p;
    std::sort(out_pos.begin(), out_pos.end(), [&](size_t a, size_t b) {
      return rows[order[a]] < rows[order[b]];
    });
    ascending.resize(shown);
    for (size_t k = 0; k < shown; ++k) ascending[k] = rows[order[out_pos[k]]];
    read = ascending.data();
  }
  rs.rows.resize(shown);
  std::vector<std::vector<double>> block(cols.size(),
                                         std::vector<double>(kExecBlockRows));
  for (size_t base = 0; base < shown; base += kExecBlockRows) {
    const size_t bn = std::min(kExecBlockRows, shown - base);
    for (size_t c = 0; c < cols.size(); ++c) {
      GEOCOL_RETURN_NOT_OK(
          ReadValues(view, cols[c], read + base, bn, block[c].data()));
    }
    for (size_t i = 0; i < bn; ++i) {
      std::vector<Value>& out_row =
          rs.rows[out_pos.empty() ? base + i : out_pos[base + i]];
      out_row.reserve(cols.size());
      for (size_t c = 0; c < cols.size(); ++c) {
        out_row.push_back(Value::Num(block[c][i]));
      }
    }
  }
  rs.profile.Add("project", t.ElapsedNanos(), rows.size(), rs.rows.size());
  return rs;
}

Result<ResultSet> ExecutePointCloud(const PlannedQuery& plan) {
  ResultSet rs;
  const ShardsView& view = *plan.view;

  // ---- Selection.
  std::vector<uint64_t> rows;
  if (plan.near) {
    GEOCOL_ASSIGN_OR_RETURN(
        NearLayerResult near,
        PointsNearLayerClass(view, plan.near_layer.get(), plan.near_class,
                             plan.near_distance));
    rows = std::move(near.row_ids);
    rs.profile = std::move(near.profile);
    // NEAR + thematic: post-filter the joined rows (the per-feature
    // selections cannot push the thematic ranges into the union).
    if (!plan.thematic.empty()) {
      Timer t;
      std::vector<uint8_t> keep(rows.size(), 1);
      std::vector<double> vals(kExecBlockRows);
      for (const AttributeRange& a : plan.thematic) {
        GEOCOL_ASSIGN_OR_RETURN(std::vector<ColumnPtr> parts,
                                view.Columns(a.column));
        for (size_t base = 0; base < rows.size(); base += kExecBlockRows) {
          const size_t bn = std::min(kExecBlockRows, rows.size() - base);
          GEOCOL_RETURN_NOT_OK(
              ReadValues(view, parts, rows.data() + base, bn, vals.data()));
          for (size_t i = 0; i < bn; ++i) {
            if (vals[i] < a.lo || vals[i] > a.hi) keep[base + i] = 0;
          }
        }
      }
      std::vector<uint64_t> kept;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (keep[i] != 0) kept.push_back(rows[i]);
      }
      rs.profile.Add("thematic.postfilter", t.ElapsedNanos(), rows.size(),
                     kept.size());
      rows = std::move(kept);
    }
  } else {
    // No spatial predicate: the view's extent is the query box, which any
    // x/y ranges then narrow into the query window.
    GEOCOL_ASSIGN_OR_RETURN(Geometry query_geom, plan.QueryGeometry());
    GEOCOL_ASSIGN_OR_RETURN(
        SelectionResult sel,
        view.Select(query_geom, plan.buffer, plan.thematic));
    rows = std::move(sel.row_ids);
    rs.profile = std::move(sel.profile);
  }

  // ---- Projection / aggregation.
  return RenderPointCloud(plan, std::move(rows), std::move(rs));
}

Result<ResultSet> ExecuteLayer(const PlannedQuery& plan) {
  ResultSet rs;
  VectorLayer* layer = plan.layer.get();

  Timer t;
  std::vector<uint64_t> features;
  if (plan.has_geometry) {
    features = plan.buffer > 0
                   ? layer->QueryWithinDistance(plan.geometry, plan.buffer)
                   : layer->QueryIntersecting(plan.geometry);
    rs.profile.Add("layer.spatial_select", t.ElapsedNanos(), layer->size(),
                   features.size());
  } else {
    features.resize(layer->size());
    for (size_t i = 0; i < layer->size(); ++i) features[i] = i;
  }

  if (!plan.thematic.empty()) {
    Timer t2;
    std::vector<uint64_t> kept;
    for (uint64_t fi : features) {
      const VectorFeature& f = layer->feature(fi);
      bool ok = true;
      for (const AttributeRange& a : plan.thematic) {
        double v = a.column == "id" ? static_cast<double>(f.id)
                                    : static_cast<double>(f.feature_class);
        if (v < a.lo || v > a.hi) {
          ok = false;
          break;
        }
      }
      if (ok) kept.push_back(fi);
    }
    rs.profile.Add("layer.thematic", t2.ElapsedNanos(), features.size(),
                   kept.size());
    features = std::move(kept);
  }

  auto cell = [&](const SelectItem& it, const VectorFeature& f) -> Value {
    if (it.column == "id") return Value::Num(static_cast<double>(f.id));
    if (it.column == "class") {
      return Value::Num(static_cast<double>(f.feature_class));
    }
    if (it.column == "name") return Value::Text(f.name);
    if (it.column == "geom") return Value::Text(ToWkt(f.geometry));
    return Value::Null();
  };

  if (plan.stmt.IsAggregate()) {
    std::vector<Value> out_row;
    for (const SelectItem& it : plan.stmt.items) {
      rs.columns.push_back(std::string(AggFuncName(it.agg)) + "(" +
                           (it.star ? "*" : it.column) + ")");
      if (it.agg == AggFunc::kCount) {
        out_row.push_back(Value::Num(static_cast<double>(features.size())));
        continue;
      }
      if (features.empty()) {
        out_row.push_back(Value::Null());
        continue;
      }
      double acc = it.agg == AggFunc::kMin
                       ? std::numeric_limits<double>::infinity()
                       : (it.agg == AggFunc::kMax
                              ? -std::numeric_limits<double>::infinity()
                              : 0.0);
      for (uint64_t fi : features) {
        const VectorFeature& f = layer->feature(fi);
        double v = it.column == "id" ? static_cast<double>(f.id)
                                     : static_cast<double>(f.feature_class);
        switch (it.agg) {
          case AggFunc::kSum:
          case AggFunc::kAvg: acc += v; break;
          case AggFunc::kMin: acc = std::min(acc, v); break;
          case AggFunc::kMax: acc = std::max(acc, v); break;
          default: break;
        }
      }
      if (it.agg == AggFunc::kAvg) acc /= static_cast<double>(features.size());
      out_row.push_back(Value::Num(acc));
    }
    rs.rows.push_back(std::move(out_row));
    return rs;
  }

  if (!plan.stmt.order_by.empty()) {
    auto key_of = [&](uint64_t fi) -> std::string {
      const VectorFeature& f = layer->feature(fi);
      if (plan.stmt.order_by == "name") return f.name;
      char buf[32];
      double v = plan.stmt.order_by == "id"
                     ? static_cast<double>(f.id)
                     : static_cast<double>(f.feature_class);
      std::snprintf(buf, sizeof(buf), "%020.3f", v);
      return buf;
    };
    std::stable_sort(features.begin(), features.end(),
                     [&](uint64_t a, uint64_t b) {
                       return plan.stmt.order_desc ? key_of(a) > key_of(b)
                                                   : key_of(a) < key_of(b);
                     });
  }

  std::vector<SelectItem> proj;
  for (const SelectItem& it : plan.stmt.items) {
    if (it.star) {
      for (const char* c : {"id", "class", "name", "geom"}) {
        SelectItem si;
        si.column = c;
        proj.push_back(si);
      }
    } else {
      proj.push_back(it);
    }
  }
  for (const SelectItem& it : proj) rs.columns.push_back(it.column);
  uint64_t limit = plan.stmt.limit >= 0
                       ? static_cast<uint64_t>(plan.stmt.limit)
                       : features.size();
  for (uint64_t i = 0; i < features.size() && i < limit; ++i) {
    const VectorFeature& f = layer->feature(features[i]);
    std::vector<Value> out_row;
    for (const SelectItem& it : proj) out_row.push_back(cell(it, f));
    rs.rows.push_back(std::move(out_row));
  }
  return rs;
}

}  // namespace

namespace {

/// Appends each line of `text` as a one-column text row.
void PushTextLines(ResultSet* rs, const std::string& text) {
  size_t start = 0;
  while (start < text.size()) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    rs->rows.push_back({Value::Text(text.substr(start, nl - start))});
    start = nl + 1;
  }
}

}  // namespace

Result<ResultSet> ExecutePointCloudWithRows(const PlannedQuery& plan,
                                            std::vector<uint64_t> rows,
                                            QueryProfile profile) {
  ResultSet rs;
  rs.profile = std::move(profile);
  return RenderPointCloud(plan, std::move(rows), std::move(rs));
}

Result<ResultSet> ExecuteQuery(const PlannedQuery& plan) {
  if (plan.stmt.explain && !plan.stmt.analyze) {
    ResultSet rs;
    rs.columns = {"plan"};
    PushTextLines(&rs, plan.Describe());
    return rs;
  }
  Result<ResultSet> executed =
      plan.target == PlannedQuery::Target::kPointCloud
          ? ExecutePointCloud(plan)
          : ExecuteLayer(plan);
  if (!plan.stmt.analyze) return executed;
  GEOCOL_RETURN_NOT_OK(executed.status());
  // EXPLAIN ANALYZE: the query ran in full; return the plan followed by
  // the executed span tree (times, cardinalities, worker counts, span
  // attributes) instead of the result rows.
  ResultSet rs;
  rs.columns = {"explain analyze"};
  PushTextLines(&rs, plan.Describe());
  rs.rows.push_back({Value::Text("")});
  char header[64];
  std::snprintf(header, sizeof(header), "spans (%llu rows returned):",
                static_cast<unsigned long long>(executed->rows.size()));
  rs.rows.push_back({Value::Text(header)});
  PushTextLines(&rs, executed->profile.ToString());
  // Sharded execution: summarise the bbox pruning below the span tree.
  for (const OperatorProfile& op : executed->profile.operators()) {
    if (op.name != "shard.route") continue;
    std::string total = "?", scanned = "?", pruned = "?";
    for (const auto& [k, v] : op.attrs) {
      if (k == "shards_total") total = v;
      if (k == "shards_scanned") scanned = v;
      if (k == "shards_pruned") pruned = v;
    }
    rs.rows.push_back({Value::Text("shards: scanned " + scanned + "/" +
                                   total + " (" + pruned + " pruned)")});
    break;
  }
  rs.profile = std::move(executed->profile);
  return rs;
}

namespace {

/// Streams the digest byte image through the CRC in stack-buffer chunks.
/// Produces exactly Crc32c(BufferWriter image) — the digest runs once per
/// recorded statement, so it must not pay a heap resize per value (the
/// flight recorder's E17 overhead budget).
class DigestStream {
 public:
  void Bytes(const void* data, size_t n) {
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (n > 0) {
      if (fill_ == sizeof(buf_)) Flush();
      const size_t take = std::min(n, sizeof(buf_) - fill_);
      std::memcpy(buf_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
    }
  }
  template <typename T>
  void Scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(T));
  }
  void String(const std::string& s) {
    Scalar<uint32_t>(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint32_t Finish() {
    Flush();
    return crc_;
  }

 private:
  void Flush() {
    crc_ = Crc32cExtend(crc_, buf_, fill_);
    fill_ = 0;
  }

  uint32_t crc_ = 0;
  size_t fill_ = 0;
  uint8_t buf_[512];
};

}  // namespace

uint32_t ResultSetDigest(const ResultSet& rs) {
  DigestStream w;
  w.Scalar<uint32_t>(static_cast<uint32_t>(rs.columns.size()));
  for (const std::string& c : rs.columns) w.String(c);
  w.Scalar<uint64_t>(rs.rows.size());
  for (const auto& row : rs.rows) {
    w.Scalar<uint32_t>(static_cast<uint32_t>(row.size()));
    for (const Value& v : row) {
      w.Scalar<uint8_t>(static_cast<uint8_t>(v.kind));
      switch (v.kind) {
        case Value::Kind::kNull:
          break;
        case Value::Kind::kNumber:
          // Exact bit image, not a decimal rendering: the digest must
          // separate values a printf round-trip would conflate.
          w.Scalar<double>(v.number);
          break;
        case Value::Kind::kText:
          w.String(v.text);
          break;
      }
    }
  }
  return w.Finish();
}

}  // namespace sql
}  // namespace geocol
