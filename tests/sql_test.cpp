// SQL front-end tests: lexer, parser, planner validation, and execution
// against hand-built engine calls.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "gis/spatial_join.h"
#include "pointcloud/generator.h"
#include "pointcloud/vector_gen.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace geocol {
namespace {

using sql::AggFunc;
using sql::Parse;
using sql::ResultSet;
using sql::SelectStmt;
using sql::Session;
using sql::TokKind;
using sql::Tokenize;
using sql::Value;

// ---------------- lexer ----------------

TEST(SqlLexerTest, BasicTokens) {
  auto toks = Tokenize("SELECT x, y FROM ahn2 WHERE z >= 1.5;");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 11u);
  EXPECT_EQ((*toks)[0].kind, TokKind::kIdent);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].text, "X");
  EXPECT_EQ((*toks)[1].raw, "x");
  EXPECT_EQ((*toks)[2].kind, TokKind::kSymbol);
  EXPECT_EQ((*toks)[2].text, ",");
  EXPECT_EQ(toks->back().kind, TokKind::kEnd);
}

TEST(SqlLexerTest, NumbersSignedAfterOperator) {
  auto toks = Tokenize("x < -5.5");
  ASSERT_TRUE(toks.ok());
  ASSERT_EQ(toks->size(), 4u);  // x, <, -5.5, end
  EXPECT_EQ((*toks)[2].kind, TokKind::kNumber);
  EXPECT_EQ((*toks)[2].number, -5.5);
}

TEST(SqlLexerTest, StringsWithEscapedQuotes) {
  auto toks = Tokenize("'it''s a polygon'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, TokKind::kString);
  EXPECT_EQ((*toks)[0].text, "it's a polygon");
}

TEST(SqlLexerTest, TwoCharOperators) {
  auto toks = Tokenize("a <= 1 b >= 2 c <> 3 d != 4");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "<=");
  EXPECT_EQ((*toks)[4].text, ">=");
  EXPECT_EQ((*toks)[7].text, "<>");
  EXPECT_EQ((*toks)[10].text, "<>");  // != normalised
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("x @ 5").ok());
}

// ---------------- parser ----------------

TEST(SqlParserTest, SimpleSelect) {
  auto stmt = Parse("SELECT x, y, z FROM ahn2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[0].column, "x");
  EXPECT_EQ(stmt->table, "ahn2");
  EXPECT_TRUE(stmt->ranges.empty());
  EXPECT_EQ(stmt->limit, -1);
}

TEST(SqlParserTest, StarAndLimit) {
  auto stmt = Parse("SELECT * FROM Ahn2 LIMIT 10;");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->items[0].star);
  EXPECT_EQ(stmt->table, "ahn2");  // lower-cased
  EXPECT_EQ(stmt->limit, 10);
}

TEST(SqlParserTest, Aggregates) {
  auto stmt = Parse("SELECT COUNT(*), AVG(z), MIN(z), MAX(z) FROM ahn2");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->IsAggregate());
  EXPECT_EQ(stmt->items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(stmt->items[0].star);
  EXPECT_EQ(stmt->items[1].agg, AggFunc::kAvg);
  EXPECT_EQ(stmt->items[1].column, "z");
}

TEST(SqlParserTest, ComparisonAndBetween) {
  auto stmt = Parse(
      "SELECT x FROM t WHERE z > 1 AND z <= 5 AND classification BETWEEN 2 "
      "AND 6 AND intensity = 100");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->ranges.size(), 4u);
  EXPECT_EQ(stmt->ranges[0].lo, 1);
  EXPECT_EQ(stmt->ranges[1].hi, 5);
  EXPECT_EQ(stmt->ranges[2].lo, 2);
  EXPECT_EQ(stmt->ranges[2].hi, 6);
  EXPECT_TRUE(stmt->ranges[3].equality);
}

TEST(SqlParserTest, SpatialPredicates) {
  auto stmt = Parse(
      "SELECT x FROM t WHERE ST_Within(pt, "
      "ST_GeomFromText('POLYGON((0 0, 1 0, 1 1, 0 1, 0 0))'))");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->spatial.size(), 1u);
  EXPECT_EQ(stmt->spatial[0].kind, sql::SpatialPred::Kind::kWithin);
  EXPECT_TRUE(stmt->spatial[0].geometry.is_polygon());

  auto dw = Parse("SELECT x FROM t WHERE ST_DWithin(pt, 'POINT(5 5)', 2.5)");
  ASSERT_TRUE(dw.ok());
  EXPECT_EQ(dw->spatial[0].kind, sql::SpatialPred::Kind::kDWithin);
  EXPECT_EQ(dw->spatial[0].distance, 2.5);

  auto ct = Parse("SELECT x FROM t WHERE ST_Contains('BOX(0 0, 2 2)', pt)");
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(ct->spatial[0].kind, sql::SpatialPred::Kind::kWithin);
}

TEST(SqlParserTest, NearPredicate) {
  auto stmt = Parse("SELECT AVG(z) FROM ahn2 WHERE NEAR(urban_atlas, 12210, 50)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->spatial.size(), 1u);
  EXPECT_EQ(stmt->spatial[0].kind, sql::SpatialPred::Kind::kNearLayer);
  EXPECT_EQ(stmt->spatial[0].layer, "urban_atlas");
  EXPECT_EQ(stmt->spatial[0].feature_class, 12210u);
  EXPECT_EQ(stmt->spatial[0].distance, 50);
}

TEST(SqlParserTest, Explain) {
  auto stmt = Parse("EXPLAIN SELECT x FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->explain);
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("SELECT FROM t").ok());
  EXPECT_FALSE(Parse("SELECT x t").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t WHERE").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t WHERE z >").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t WHERE z BETWEEN 5 AND 2").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t WHERE z <> 5").ok());  // unsupported
  EXPECT_FALSE(Parse("SELECT x FROM t LIMIT -1").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t garbage").ok());
  EXPECT_FALSE(Parse("SELECT AVG(*) FROM t").ok());
  EXPECT_FALSE(
      Parse("SELECT x FROM t WHERE ST_DWithin(pt, 'POINT(1 1)', -5)").ok());
  EXPECT_FALSE(Parse("SELECT x FROM t WHERE ST_Within(pt, 'NOT WKT')").ok());
}

TEST(SqlParserTest, ToStringRoundTripsThroughParser) {
  auto stmt = Parse(
      "SELECT COUNT(*) FROM ahn2 WHERE x BETWEEN 1 AND 2 AND "
      "ST_DWithin(pt, 'POINT(5 5)', 3) LIMIT 7");
  ASSERT_TRUE(stmt.ok());
  auto again = Parse(stmt->ToString());
  ASSERT_TRUE(again.ok()) << stmt->ToString();
  EXPECT_EQ(again->ToString(), stmt->ToString());
}

// ---------------- planner + executor via Session ----------------

class SqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85200, 444200);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(20000);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    ASSERT_TRUE(catalog_.AddPointCloud("ahn2", table_).ok());

    TerrainModel terrain(opts.seed);
    OsmGenerator og(1, opts.extent, terrain);
    auto roads = og.GenerateRoads(20);
    ASSERT_TRUE(
        catalog_.AddLayer(VectorLayer::FromFeatures("osm_roads", roads)).ok());
    UrbanAtlasGenerator ug(2, opts.extent, terrain);
    auto land = ug.GenerateLandUse(6);
    auto corridors = ug.GenerateTransitCorridors(roads, 20.0);
    for (auto& c : corridors) land.push_back(c);
    ASSERT_TRUE(
        catalog_.AddLayer(VectorLayer::FromFeatures("urban_atlas", land)).ok());
    session_ = std::make_unique<Session>(&catalog_);
  }

  std::shared_ptr<FlatTable> table_;
  Catalog catalog_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlSessionTest, CountStarWholeTable) {
  auto rs = session_->Execute("SELECT COUNT(*) FROM ahn2");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].number, static_cast<double>(table_->num_rows()));
}

TEST_F(SqlSessionTest, BoxSelectionMatchesEngine) {
  auto rs = session_->Execute(
      "SELECT x, y, z FROM ahn2 WHERE ST_Within(pt, "
      "ST_GeomFromText('BOX(85050 444050, 85100 444100)'))");
  ASSERT_TRUE(rs.ok());
  auto engine = catalog_.GetEngine("ahn2");
  ASSERT_TRUE(engine.ok());
  auto sel = (*engine)->SelectInBox(Box(85050, 444050, 85100, 444100));
  ASSERT_TRUE(sel.ok());
  ASSERT_EQ(rs->rows.size(), sel->row_ids.size());
  ColumnPtr x = table_->column("x");
  for (size_t i = 0; i < rs->rows.size(); ++i) {
    EXPECT_EQ(rs->rows[i][0].number, x->GetDouble(sel->row_ids[i]));
  }
}

TEST_F(SqlSessionTest, RangePredicatesViaImprints) {
  auto rs = session_->Execute(
      "SELECT COUNT(*) FROM ahn2 WHERE classification BETWEEN 3 AND 5");
  ASSERT_TRUE(rs.ok());
  ColumnPtr cls = table_->column("classification");
  uint64_t expected = 0;
  for (uint64_t r = 0; r < cls->size(); ++r) {
    int64_t c = cls->GetInt64(r);
    expected += c >= 3 && c <= 5;
  }
  EXPECT_EQ(rs->rows[0][0].number, static_cast<double>(expected));
}

// Contract pin: an aggregate over an empty selection comes back from the
// engine as NaN (AggregateRows contract) and the SQL layer renders it as
// NULL — never as a NaN number value. COUNT(*) stays a plain 0. The result
// cache round-trips the NaN bit pattern, so this mapping must hold on both
// cold and cached executions.
TEST_F(SqlSessionTest, EmptySelectionAggregatesMapToNull) {
  auto rs = session_->Execute(
      "SELECT AVG(z), SUM(z), MIN(z), MAX(z), COUNT(*) FROM ahn2 "
      "WHERE ST_Within(pt, 'BOX(0 0, 1 1)')");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  ASSERT_EQ(rs->rows[0].size(), 5u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(rs->rows[0][c].kind, Value::Kind::kNull) << "column " << c;
  }
  EXPECT_EQ(rs->rows[0][4].kind, Value::Kind::kNumber);
  EXPECT_EQ(rs->rows[0][4].number, 0.0);
}

TEST_F(SqlSessionTest, AvgElevationNearFastTransitRoad) {
  auto rs = session_->Execute(
      "SELECT AVG(z), COUNT(*) FROM ahn2 WHERE NEAR(urban_atlas, 12210, 25)");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  double count = rs->rows[0][1].number;
  if (count > 0) {
    EXPECT_FALSE(std::isnan(rs->rows[0][0].number));
  }
  // Must agree with the direct join API.
  auto pinned = catalog_.PinPointCloud("ahn2");
  auto layer = catalog_.GetLayer("urban_atlas");
  ASSERT_TRUE(pinned.ok());
  ASSERT_TRUE(layer.ok());
  auto direct = AggregateNearLayerClass(*pinned->view, layer->get(), 12210,
                                        25.0, "z", AggKind::kCount);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(count, *direct);
}

TEST_F(SqlSessionTest, LimitCapsRows) {
  auto rs = session_->Execute("SELECT x FROM ahn2 LIMIT 5");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 5u);
}

TEST_F(SqlSessionTest, StarProjectionHasAllColumns) {
  auto rs = session_->Execute("SELECT * FROM ahn2 LIMIT 1");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->columns.size(), kLasAttributeCount);
}

TEST_F(SqlSessionTest, LayerQueryIntersectingRegion) {
  auto rs = session_->Execute(
      "SELECT id, class, name FROM osm_roads WHERE "
      "ST_Intersects(geom, 'BOX(85000 444000, 85200 444200)')");
  ASSERT_TRUE(rs.ok());
  auto layer = catalog_.GetLayer("osm_roads");
  ASSERT_TRUE(layer.ok());
  // All roads are inside the extent, so every feature intersects.
  EXPECT_EQ(rs->rows.size(), (*layer)->size());
  EXPECT_EQ(rs->columns, (std::vector<std::string>{"id", "class", "name"}));
  EXPECT_EQ(rs->rows[0][2].kind, sql::Value::Kind::kText);
}

TEST_F(SqlSessionTest, LayerClassFilter) {
  auto rs = session_->Execute(
      "SELECT COUNT(*) FROM urban_atlas WHERE class = 12210");
  ASSERT_TRUE(rs.ok());
  auto layer = catalog_.GetLayer("urban_atlas");
  ASSERT_TRUE(layer.ok());
  EXPECT_EQ(rs->rows[0][0].number,
            static_cast<double>((*layer)->SelectByClass(12210).size()));
}

TEST_F(SqlSessionTest, LayerGeomProjectionIsWkt) {
  auto rs = session_->Execute("SELECT geom FROM urban_atlas LIMIT 1");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].text.rfind("POLYGON", 0), 0u);
}

TEST_F(SqlSessionTest, ExplainReturnsPlan) {
  auto rs = session_->Execute(
      "EXPLAIN SELECT AVG(z) FROM ahn2 WHERE NEAR(urban_atlas, 12210, 25)");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->columns, std::vector<std::string>{"plan"});
  EXPECT_GT(rs->rows.size(), 2u);
  bool mentions_imprints = false;
  for (const auto& row : rs->rows) {
    mentions_imprints |= row[0].text.find("imprint") != std::string::npos ||
                         row[0].text.find("NEAR") != std::string::npos;
  }
  EXPECT_TRUE(mentions_imprints);
  EXPECT_FALSE(session_->last_plan().empty());
}

TEST_F(SqlSessionTest, ProfileExposedAfterExecution) {
  auto rs = session_->Execute(
      "SELECT COUNT(*) FROM ahn2 WHERE ST_Within(pt, 'BOX(85020 444020, "
      "85080 444080)')");
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(session_->last_profile().empty());
  EXPECT_FALSE(session_->last_profile().ToString().empty());
}

TEST_F(SqlSessionTest, PlannerErrors) {
  EXPECT_EQ(session_->Execute("SELECT x FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session_->Execute("SELECT bogus FROM ahn2").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(
      session_->Execute("SELECT x, COUNT(*) FROM ahn2").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(session_->Execute("SELECT x FROM ahn2 WHERE bogus > 1")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session_->Execute(
                        "SELECT COUNT(*) FROM ahn2 WHERE NEAR(nolayer, 1, 5)")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session_->Execute(
                        "SELECT id FROM osm_roads WHERE NEAR(urban_atlas, 1, 5)")
                .status()
                .code(),
            StatusCode::kUnsupported);
  // Two geometry predicates unsupported.
  EXPECT_EQ(session_
                ->Execute("SELECT x FROM ahn2 WHERE ST_Within(pt, 'BOX(0 0, 1 "
                          "1)') AND ST_Within(pt, 'BOX(2 2, 3 3)')")
                .status()
                .code(),
            StatusCode::kUnsupported);
}

TEST_F(SqlSessionTest, MergedRangesIntersect) {
  auto rs = session_->Execute(
      "SELECT COUNT(*) FROM ahn2 WHERE z >= 0 AND z <= 10 AND z >= 5");
  ASSERT_TRUE(rs.ok());
  ColumnPtr z = table_->column("z");
  uint64_t expected = 0;
  for (uint64_t r = 0; r < z->size(); ++r) {
    double v = z->GetDouble(r);
    expected += v >= 5 && v <= 10;
  }
  EXPECT_EQ(rs->rows[0][0].number, static_cast<double>(expected));
}

TEST_F(SqlSessionTest, OrderByAscendingAndDescending) {
  auto asc = session_->Execute(
      "SELECT z FROM ahn2 WHERE ST_Within(pt, 'BOX(85020 444020, 85080 "
      "444080)') ORDER BY z LIMIT 20");
  ASSERT_TRUE(asc.ok());
  ASSERT_GE(asc->rows.size(), 2u);
  for (size_t i = 1; i < asc->rows.size(); ++i) {
    EXPECT_LE(asc->rows[i - 1][0].number, asc->rows[i][0].number);
  }
  auto desc = session_->Execute(
      "SELECT z FROM ahn2 WHERE ST_Within(pt, 'BOX(85020 444020, 85080 "
      "444080)') ORDER BY z DESC LIMIT 20");
  ASSERT_TRUE(desc.ok());
  for (size_t i = 1; i < desc->rows.size(); ++i) {
    EXPECT_GE(desc->rows[i - 1][0].number, desc->rows[i][0].number);
  }
  // The descending head is the global maximum within the region.
  auto mx = session_->Execute(
      "SELECT MAX(z) FROM ahn2 WHERE ST_Within(pt, 'BOX(85020 444020, 85080 "
      "444080)')");
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(desc->rows[0][0].number, mx->rows[0][0].number);
}

TEST_F(SqlSessionTest, OrderByOnLayer) {
  auto rs = session_->Execute("SELECT id FROM osm_roads ORDER BY id DESC");
  ASSERT_TRUE(rs.ok());
  for (size_t i = 1; i < rs->rows.size(); ++i) {
    EXPECT_GE(rs->rows[i - 1][0].number, rs->rows[i][0].number);
  }
}

TEST_F(SqlSessionTest, OrderByErrors) {
  EXPECT_FALSE(
      session_->Execute("SELECT COUNT(*) FROM ahn2 ORDER BY z").ok());
  EXPECT_EQ(session_->Execute("SELECT z FROM ahn2 ORDER BY bogus")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(session_->Execute("SELECT id FROM osm_roads ORDER BY geom").ok());
}

TEST(SqlParserOrderByTest, ParseForms) {
  auto a = Parse("SELECT x FROM t ORDER BY z");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->order_by, "z");
  EXPECT_FALSE(a->order_desc);
  auto b = Parse("SELECT x FROM t ORDER BY Z DESC LIMIT 3");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->order_by, "z");
  EXPECT_TRUE(b->order_desc);
  EXPECT_EQ(b->limit, 3);
  auto c = Parse("SELECT x FROM t ORDER BY z ASC");
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(c->order_desc);
  EXPECT_FALSE(Parse("SELECT x FROM t ORDER z").ok());
  // Round trip through ToString.
  auto again = Parse(b->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), b->ToString());
}

TEST_F(SqlSessionTest, ResultSetToString) {
  auto rs = session_->Execute("SELECT x, y FROM ahn2 LIMIT 3");
  ASSERT_TRUE(rs.ok());
  std::string text = rs->ToString();
  EXPECT_NE(text.find("x | y"), std::string::npos);
  EXPECT_NE(text.find("(3 rows)"), std::string::npos);
}

// ---------------- EXPLAIN ANALYZE ----------------

TEST(SqlParserTest, ExplainAnalyze) {
  auto stmt = Parse("EXPLAIN ANALYZE SELECT x FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->explain);
  EXPECT_TRUE(stmt->analyze);
  auto plain = Parse("EXPLAIN SELECT x FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->analyze);
  // ANALYZE only follows EXPLAIN.
  EXPECT_FALSE(Parse("ANALYZE SELECT x FROM t").ok());
}

TEST_F(SqlSessionTest, ExplainAnalyzeReturnsSpanTree) {
  auto rs = session_->Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2 WHERE ST_Within(pt, "
      "'BOX(85020 444020, 85080 444080)')");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->columns, std::vector<std::string>{"explain analyze"});
  std::string text;
  for (const auto& row : rs->rows) {
    text += row[0].text;
    text += '\n';
  }
  EXPECT_NE(text.find("spans ("), std::string::npos);
  EXPECT_NE(text.find("filter.imprints"), std::string::npos);
  EXPECT_NE(text.find("cachelines_probed="), std::string::npos);
  EXPECT_NE(text.find("false_positive_rate="), std::string::npos);
  EXPECT_NE(text.find("TOTAL (sum)"), std::string::npos);
  EXPECT_NE(text.find("WALL (critical path)"), std::string::npos);
  // The executed profile rides along for trace export.
  EXPECT_FALSE(rs->profile.empty());
}

// Strips digits so the span tree's *shape* can be compared exactly while
// times and cardinalities vary run to run.
std::string NormalizeShape(const std::string& tree) {
  std::string out;
  bool last_hash = false;
  for (char c : tree) {
    if (std::isdigit(static_cast<unsigned char>(c))) {
      if (!last_hash) out += '#';
      last_hash = true;
    } else {
      out += c;
      last_hash = false;
    }
  }
  return out;
}

// The span-tree section of an EXPLAIN ANALYZE result (everything after the
// "spans (...)" header), names and indentation only: each line is cut at
// the first double space after the name starts (the padding before the
// timing columns), and digits are normalised.
std::string SpanShape(const ResultSet& rs) {
  std::string text;
  bool in_spans = false;
  for (const auto& row : rs.rows) {
    if (row[0].text.rfind("spans (", 0) == 0) {
      in_spans = true;
      continue;
    }
    if (!in_spans) continue;
    const std::string& line = row[0].text;
    size_t start = line.find_first_not_of(' ');
    if (start == std::string::npos) continue;
    size_t name_end = line.find("  ", start);
    text += line.substr(0, name_end == std::string::npos ? line.size()
                                                         : name_end);
    text += '\n';
  }
  return NormalizeShape(text);
}

// num_threads=1 executes the filter branches serially, so the span order
// is deterministic and the rendered tree shape is stable. Each test's
// table is fresh, so its statement builds the imprints (filter.build).
class SqlExplainAnalyzeGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AhnGeneratorOptions gopts;
    gopts.extent = Box(85000, 444000, 85100, 444100);
    AhnGenerator gen(gopts);
    auto table = gen.GenerateTable(5000);
    ASSERT_TRUE(table.ok());
    EngineOptions eopts;
    eopts.num_threads = 1;
    ASSERT_TRUE(catalog_.AddPointCloud("ahn2", *table, eopts).ok());
    session_ = std::make_unique<Session>(&catalog_);
  }

  Catalog catalog_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlExplainAnalyzeGoldenTest, SingleThreadedBoxQueryShape) {
  auto rs = session_->Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM ahn2 WHERE ST_Within(pt, "
      "'BOX(85010 444010, 85060 444060)')");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(SpanShape(*rs),
            "  filter.build\n"
            "  filter.imprints\n"
            "  refine.none(box)\n"
            "  TOTAL (sum)\n"
            "  WALL (critical path)\n");
}

// A BETWEEN viewport folds its x/y ranges into the query window: one
// conjunctive scan over x, y and classification, with no extra terms for
// x and y as thematic ranges.
TEST_F(SqlExplainAnalyzeGoldenTest, BetweenViewportFoldsIntoWindow) {
  const std::string where =
      " FROM ahn2 WHERE x BETWEEN 85010 AND 85060 AND "
      "y BETWEEN 444010 AND 444060 AND classification BETWEEN 1 AND 6";
  auto rs = session_->Execute("EXPLAIN ANALYZE SELECT COUNT(*)" + where);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(SpanShape(*rs),
            "  filter.build\n"
            "  filter.imprints\n"
            "  refine.none(box)\n"
            "  TOTAL (sum)\n"
            "  WALL (critical path)\n");
  bool three_columns = false;
  for (const auto& row : rs->rows) {
    three_columns |= row[0].text.find("columns=3") != std::string::npos;
  }
  EXPECT_TRUE(three_columns);

  auto ex = session_->Execute("EXPLAIN SELECT COUNT(*)" + where);
  ASSERT_TRUE(ex.ok());
  std::string plan;
  for (const auto& row : ex->rows) plan += row[0].text + "\n";
  // One filter step names every column the conjunctive scan probes.
  EXPECT_NE(plan.find("  step 1: conjunctive imprint filter on x, y, "
                      "classification over window "
                      "[85010.000000, 85060.000000] x "
                      "[444010.000000, 444060.000000] (x/y ranges folded)\n"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("    classification in [1.000000, 6.000000]\n"),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("thematic:"), std::string::npos) << plan;

  // Reversed comparisons leave an empty window: nothing is scanned.
  auto empty = session_->Execute(
      "EXPLAIN SELECT COUNT(*) FROM ahn2 WHERE x >= 85060 AND x <= 85010");
  ASSERT_TRUE(empty.ok());
  std::string empty_plan;
  for (const auto& row : empty->rows) empty_plan += row[0].text + "\n";
  EXPECT_NE(empty_plan.find("(x/y ranges folded; empty, nothing scanned)"),
            std::string::npos)
      << empty_plan;
}

}  // namespace
}  // namespace geocol
