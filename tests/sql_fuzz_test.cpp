// SQL robustness: deterministic pseudo-random inputs must never crash the
// lexer/parser/planner/executor — every outcome is either a result set or
// a clean Status. Also mutates valid statements (truncation, token swaps).
//
// Every fuzzed statement is executed THREE times against a table whose
// result cache is enabled — the first execution misses, the second misses
// and is admitted, the third is served by the cache — and all outcomes
// must agree cell for cell
// (numbers compared bitwise, so NaN aggregates count as equal). A fuzzer
// that never crashes but silently returns stale or aliased cache entries
// would fail here.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "pointcloud/generator.h"
#include "sql/executor.h"
#include "pointcloud/vector_gen.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "util/rng.h"

namespace geocol {
namespace {

bool SameValue(const sql::Value& a, const sql::Value& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case sql::Value::Kind::kNull:
      return true;
    case sql::Value::Kind::kText:
      return a.text == b.text;
    case sql::Value::Kind::kNumber: {
      uint64_t ba, bb;
      std::memcpy(&ba, &a.number, sizeof(ba));
      std::memcpy(&bb, &b.number, sizeof(bb));
      return ba == bb;
    }
  }
  return false;
}

bool SameResultSet(const sql::ResultSet& a, const sql::ResultSet& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!SameValue(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

// Executes `text` three times through the same session and checks the
// later outcomes agree with the first: same ok-ness, same error code on
// failure, identical result set on success. EXPLAIN ANALYZE output is
// exempt from the row diff — its rows are the span tree, which embeds
// wall-clock timings.
Result<sql::ResultSet> ExecuteRepeated(sql::Session& session,
                                       const std::string& text) {
  auto first = session.Execute(text);
  for (int run = 1; run < 3; ++run) {
    auto again = session.Execute(text);
    EXPECT_EQ(first.ok(), again.ok()) << text << " run " << run;
    if (!first.ok() && !again.ok()) {
      EXPECT_EQ(first.status().code(), again.status().code()) << text;
    }
    if (first.ok() && again.ok() &&
        !(first->columns.size() == 1 &&
          first->columns[0] == "explain analyze")) {
      EXPECT_TRUE(SameResultSet(*first, *again)) << text << " run " << run;
    }
  }
  return first;
}

class SqlFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85060, 444060);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(5000);
    ASSERT_TRUE(table.ok());
    catalog_ = new Catalog();
    // The table is registered with its result cache on, so the executions
    // of every fuzzed statement run miss, admit, hit through src/cache/.
    EngineOptions engine;
    engine.cache.budget_bytes = 32ull << 20;
    ASSERT_TRUE(catalog_->AddPointCloud("ahn2", *table, engine).ok());
    auto bound = catalog_->GetEngine("ahn2");
    ASSERT_TRUE(bound.ok());
    ASSERT_NE((*bound)->result_cache(), nullptr);
    TerrainModel terrain(opts.seed);
    OsmGenerator og(1, opts.extent, terrain);
    ASSERT_TRUE(catalog_
                    ->AddLayer(VectorLayer::FromFeatures(
                        "osm", og.GenerateRoads(5)))
                    .ok());
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* SqlFuzzTest::catalog_ = nullptr;

const char* kTokens[] = {
    "SELECT", "FROM",  "WHERE", "AND",   "BETWEEN", "LIMIT",  "ORDER",
    "BY",     "DESC",  "COUNT", "AVG",   "MIN",     "MAX",    "SUM",
    "NEAR",   "ST_WITHIN", "ST_DWITHIN", "ST_INTERSECTS", "EXPLAIN",
    "ANALYZE",
    "x",      "y",     "z",    "ahn2",  "osm",    "pt",     "geom",
    "bogus",  "*",     ",",    "(",     ")",      "=",      "<",
    ">",      "<=",    ">=",   ";",     "5",      "-3.25",  "1e9",
    "'POINT (1 2)'", "'BOX(0 0, 1 1)'", "'not wkt'", "''", "id", "class",
};

TEST_F(SqlFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(701);
  sql::Session session(catalog_);
  int executed = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    // Half the soups get a plausible prefix so some reach the executor.
    std::string text = (iter % 2 == 0) ? "SELECT COUNT ( * ) FROM ahn2 " : "";
    int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int t = 0; t < len; ++t) {
      text += kTokens[rng.Uniform(std::size(kTokens))];
      text += ' ';
    }
    auto rs = ExecuteRepeated(session, text);
    executed += rs.ok();
    if (!rs.ok()) {
      // Errors must be classified, never Internal.
      EXPECT_NE(rs.status().code(), StatusCode::kInternal) << text;
    }
  }
  // Sanity: the session must still be fully functional after the abuse.
  (void)executed;
  auto rs = session.Execute("SELECT COUNT(*) FROM ahn2");
  ASSERT_TRUE(rs.ok());
  auto table = catalog_->GetTable("ahn2");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(rs->rows[0][0].number,
            static_cast<double>((*table)->num_rows()));
}

TEST_F(SqlFuzzTest, TruncationsOfValidQueryNeverCrash) {
  sql::Session session(catalog_);
  const std::string query =
      "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE ST_Within(pt, "
      "'BOX(85010 444010, 85050 444050)') AND classification BETWEEN 2 AND "
      "6 ORDER BY z DESC LIMIT 10";
  for (size_t cut = 0; cut <= query.size(); ++cut) {
    auto rs = ExecuteRepeated(session, query.substr(0, cut));
    if (!rs.ok()) {
      EXPECT_NE(rs.status().code(), StatusCode::kInternal)
          << "cut at " << cut;
    }
  }
}

TEST_F(SqlFuzzTest, RandomByteMutationsNeverCrash) {
  Rng rng(702);
  sql::Session session(catalog_);
  const std::string base =
      "SELECT x, y FROM ahn2 WHERE ST_DWithin(pt, 'POINT (85030 444030)', "
      "12.5) LIMIT 5";
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text = base;
    int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      size_t at = rng.Uniform(text.size());
      char c = static_cast<char>(32 + rng.Uniform(95));  // printable ASCII
      text[at] = c;
    }
    auto rs = ExecuteRepeated(session, text);
    if (!rs.ok()) {
      EXPECT_NE(rs.status().code(), StatusCode::kInternal) << text;
    }
  }
}

TEST_F(SqlFuzzTest, DeepNestingAndLongInputs) {
  sql::Session session(catalog_);
  // Very long predicate chain.
  std::string text = "SELECT COUNT(*) FROM ahn2 WHERE z >= 0";
  for (int i = 0; i < 500; ++i) text += " AND z <= 1000";
  auto rs = ExecuteRepeated(session, text);
  EXPECT_TRUE(rs.ok());
  // Pathologically long identifier.
  std::string long_ident(10000, 'a');
  EXPECT_FALSE(ExecuteRepeated(session, "SELECT " + long_ident + " FROM ahn2")
                   .ok());
  // Deeply parenthesised garbage.
  std::string parens = "SELECT x FROM ahn2 WHERE " + std::string(2000, '(');
  EXPECT_FALSE(ExecuteRepeated(session, parens).ok());
}

// Multi-tenant concurrency: a fuzzed statement stream executed through 4
// threads whose sessions share one engine and result cache must produce,
// statement for statement, the same outcome as a serial replay of the
// identical stream — same ok-ness, same error Status, bit-identical
// result digest. The cache was bound once, when the table was registered
// (rebinding an engine's cache is not safe against in-flight queries).
TEST_F(SqlFuzzTest, ConcurrentSessionsMatchSerialReplay) {
  Rng rng(704);
  std::vector<std::string> statements;
  for (int i = 0; i < 240; ++i) {
    if (i % 2 == 0) {
      // Structured viewport statement; always parses, often non-empty.
      double x0 = 85000 + rng.UniformDouble(0, 60);
      double x1 = x0 + rng.UniformDouble(0, 30);
      double y0 = 444000 + rng.UniformDouble(0, 60);
      double y1 = y0 + rng.UniformDouble(0, 30);
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "SELECT COUNT(*), AVG(z) FROM ahn2 WHERE x BETWEEN "
                    "%.17g AND %.17g AND y BETWEEN %.17g AND %.17g",
                    x0, x1, y0, y1);
      statements.push_back(buf);
    } else {
      // Token soup with a plausible prefix so some reach the executor.
      std::string text = "SELECT COUNT ( * ) FROM ahn2 ";
      int len = 1 + static_cast<int>(rng.Uniform(16));
      for (int t = 0; t < len; ++t) {
        text += kTokens[rng.Uniform(std::size(kTokens))];
        text += ' ';
      }
      statements.push_back(std::move(text));
    }
  }

  struct Outcome {
    bool ok = false;
    uint32_t digest = 0;
    bool skip_digest = false;  // EXPLAIN ANALYZE rows embed wall clock
    std::string error;
  };
  std::vector<Outcome> concurrent(statements.size());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      sql::Session session(catalog_);
      for (size_t i = t; i < statements.size(); i += kThreads) {
        auto rs = session.Execute(statements[i]);
        Outcome& o = concurrent[i];
        o.ok = rs.ok();
        if (rs.ok()) {
          o.skip_digest = rs->columns.size() == 1 &&
                          rs->columns[0] == "explain analyze";
          if (!o.skip_digest) o.digest = sql::ResultSetDigest(*rs);
        } else {
          o.error = rs.status().ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  sql::Session serial(catalog_);
  for (size_t i = 0; i < statements.size(); ++i) {
    auto rs = serial.Execute(statements[i]);
    ASSERT_EQ(concurrent[i].ok, rs.ok()) << statements[i];
    if (rs.ok()) {
      if (!concurrent[i].skip_digest) {
        EXPECT_EQ(concurrent[i].digest, sql::ResultSetDigest(*rs))
            << statements[i];
      }
    } else {
      EXPECT_EQ(concurrent[i].error, rs.status().ToString())
          << statements[i];
    }
  }
}

TEST_F(SqlFuzzTest, ParserAloneOnRandomUnicodeBytes) {
  Rng rng(703);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    int len = static_cast<int>(rng.Uniform(64));
    for (int i = 0; i < len; ++i) {
      text += static_cast<char>(rng.Uniform(256));
    }
    auto stmt = sql::Parse(text);  // must not crash; errors are fine
    (void)stmt;
  }
}

}  // namespace
}  // namespace geocol
