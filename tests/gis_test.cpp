// GIS layer tests: vector generators, layers, catalog, and the scenario-2
// point-cloud x layer joins.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/predicates.h"
#include "gis/catalog.h"
#include "gis/spatial_join.h"
#include "pointcloud/generator.h"
#include "pointcloud/vector_gen.h"

namespace geocol {
namespace {

const Box kExtent(85000, 444000, 86000, 445000);

TEST(VectorGenTest, RoadsHaveClassesAndGeometry) {
  TerrainModel terrain(1);
  OsmGenerator gen(1, kExtent, terrain);
  auto roads = gen.GenerateRoads(50);
  EXPECT_EQ(roads.size(), 50u);
  std::set<uint32_t> classes;
  for (const auto& r : roads) {
    EXPECT_TRUE(r.geometry.is_line());
    EXPECT_GE(r.geometry.line().points.size(), 2u);
    EXPECT_FALSE(r.name.empty());
    classes.insert(r.feature_class);
    // All vertices inside the extent.
    Box env = r.geometry.Envelope();
    EXPECT_TRUE(kExtent.Contains(env)) << r.name;
  }
  EXPECT_GE(classes.size(), 2u) << "expected a mix of road classes";
}

TEST(VectorGenTest, Deterministic) {
  TerrainModel terrain(2);
  OsmGenerator g1(7, kExtent, terrain), g2(7, kExtent, terrain);
  auto r1 = g1.GenerateRoads(10);
  auto r2 = g2.GenerateRoads(10);
  ASSERT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].geometry.line().points.size(),
              r2[i].geometry.line().points.size());
  }
}

TEST(VectorGenTest, PoisClusterInUrbanAreas) {
  TerrainModel terrain(3);
  OsmGenerator gen(3, kExtent, terrain);
  auto pois = gen.GeneratePois(200);
  EXPECT_GT(pois.size(), 0u);
  for (const auto& p : pois) EXPECT_TRUE(p.geometry.is_point());
}

TEST(VectorGenTest, LandUseCoversExtent) {
  TerrainModel terrain(4);
  UrbanAtlasGenerator gen(4, kExtent, terrain);
  auto blocks = gen.GenerateLandUse(8);
  EXPECT_EQ(blocks.size(), 64u);
  double area = 0;
  for (const auto& b : blocks) {
    ASSERT_TRUE(b.geometry.is_polygon());
    area += b.geometry.polygon().Area();
    EXPECT_STRNE(UrbanAtlasClassName(
                     static_cast<UrbanAtlasClass>(b.feature_class)),
                 "Unknown");
  }
  EXPECT_NEAR(area, kExtent.area(), kExtent.area() * 1e-9);
}

TEST(VectorGenTest, TransitCorridorsOnlyFromMotorways) {
  TerrainModel terrain(5);
  OsmGenerator og(5, kExtent, terrain);
  UrbanAtlasGenerator ug(5, kExtent, terrain);
  auto roads = og.GenerateRoads(100);
  auto corridors = ug.GenerateTransitCorridors(roads, 25.0);
  size_t motorways = 0;
  for (const auto& r : roads) {
    motorways += r.feature_class == static_cast<uint32_t>(RoadClass::kMotorway);
  }
  EXPECT_EQ(corridors.size(), motorways);
  for (const auto& c : corridors) {
    EXPECT_EQ(c.feature_class,
              static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads));
    EXPECT_TRUE(c.geometry.is_multipolygon());
  }
}

TEST(BufferLineTest, CorridorContainsPointsNearLine) {
  LineString l;
  l.points = {{0, 0}, {100, 0}, {100, 100}};
  MultiPolygon corridor = BufferLine(l, 10.0);
  Geometry g(corridor);
  EXPECT_TRUE(GeometryContainsPoint(g, {50, 5}));
  EXPECT_TRUE(GeometryContainsPoint(g, {50, -5}));
  EXPECT_TRUE(GeometryContainsPoint(g, {105, 50}));
  EXPECT_TRUE(GeometryContainsPoint(g, {100, 0}));  // joint
  EXPECT_FALSE(GeometryContainsPoint(g, {50, 50}));
  EXPECT_FALSE(GeometryContainsPoint(g, {50, 20}));
}

// ---------------- VectorLayer ----------------

std::shared_ptr<VectorLayer> MakeTestLayer() {
  std::vector<VectorFeature> fs;
  VectorFeature a;
  a.id = 1;
  a.geometry = Geometry(Polygon::FromBox(Box(0, 0, 10, 10)));
  a.feature_class = 100;
  a.name = "a";
  VectorFeature b;
  b.id = 2;
  b.geometry = Geometry(Polygon::FromBox(Box(20, 20, 30, 30)));
  b.feature_class = 200;
  b.name = "b";
  VectorFeature c;
  c.id = 3;
  LineString l;
  l.points = {{0, 15}, {30, 15}};
  c.geometry = Geometry(l);
  c.feature_class = 100;
  c.name = "c";
  fs = {a, b, c};
  return VectorLayer::FromFeatures("test", std::move(fs));
}

TEST(VectorLayerTest, SelectByClass) {
  auto layer = MakeTestLayer();
  EXPECT_EQ(layer->SelectByClass(100), (std::vector<uint64_t>{0, 2}));
  EXPECT_EQ(layer->SelectByClass(200), (std::vector<uint64_t>{1}));
  EXPECT_TRUE(layer->SelectByClass(999).empty());
}

TEST(VectorLayerTest, QueryEnvelopesAndIntersecting) {
  auto layer = MakeTestLayer();
  auto env_hits = layer->QueryEnvelopes(Box(5, 5, 25, 25));
  EXPECT_EQ(env_hits, (std::vector<uint64_t>{0, 1, 2}));
  auto exact = layer->QueryIntersecting(Geometry(Box(5, 5, 8, 8)));
  EXPECT_EQ(exact, (std::vector<uint64_t>{0}));
  auto line_hit = layer->QueryIntersecting(Geometry(Box(5, 14, 6, 16)));
  EXPECT_EQ(line_hit, (std::vector<uint64_t>{2}));
}

TEST(VectorLayerTest, QueryWithinDistance) {
  auto layer = MakeTestLayer();
  // 3 units above polygon a: within 5, not within 2.
  auto near = layer->QueryWithinDistance(Geometry(Point{5, 13}), 5);
  EXPECT_TRUE(std::find(near.begin(), near.end(), 0u) != near.end());
  auto far = layer->QueryWithinDistance(Geometry(Point{5, 13}), 2);
  EXPECT_TRUE(std::find(far.begin(), far.end(), 0u) == far.end());
  // The line at y=15 is 2 away.
  EXPECT_TRUE(std::find(near.begin(), near.end(), 2u) != near.end());
}

TEST(VectorLayerTest, EnvelopeUnion) {
  auto layer = MakeTestLayer();
  Box env = layer->Envelope();
  EXPECT_EQ(env.min_x, 0);
  EXPECT_EQ(env.max_x, 30);
  EXPECT_EQ(env.max_y, 30);
}

TEST(VectorLayerTest, AddInvalidatesIndex) {
  auto layer = MakeTestLayer();
  EXPECT_TRUE(layer->QueryEnvelopes(Box(100, 100, 110, 110)).empty());
  VectorFeature d;
  d.id = 4;
  d.geometry = Geometry(Point{105, 105});
  layer->Add(d);
  EXPECT_EQ(layer->QueryEnvelopes(Box(100, 100, 110, 110)).size(), 1u);
}

// ---------------- Catalog ----------------

TEST(CatalogTest, RegistrationAndLookup) {
  Catalog cat;
  auto table = std::make_shared<FlatTable>(
      "pc", Schema({{"x", DataType::kFloat64}, {"y", DataType::kFloat64}}));
  ASSERT_TRUE(cat.AddPointCloud("ahn2", table).ok());
  ASSERT_TRUE(cat.AddLayer(MakeTestLayer()).ok());
  EXPECT_TRUE(cat.HasPointCloud("ahn2"));
  EXPECT_FALSE(cat.HasPointCloud("test"));
  EXPECT_TRUE(cat.HasLayer("test"));
  EXPECT_TRUE(cat.GetEngine("ahn2").ok());
  EXPECT_TRUE(cat.GetTable("ahn2").ok());
  EXPECT_TRUE(cat.GetLayer("test").ok());
  EXPECT_EQ(cat.GetEngine("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.GetLayer("ahn2").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cat.PointCloudNames(), (std::vector<std::string>{"ahn2"}));
  EXPECT_EQ(cat.LayerNames(), (std::vector<std::string>{"test"}));
}

TEST(CatalogTest, DuplicateNamesRejected) {
  Catalog cat;
  auto table = std::make_shared<FlatTable>(
      "pc", Schema({{"x", DataType::kFloat64}}));
  ASSERT_TRUE(cat.AddPointCloud("d", table).ok());
  EXPECT_EQ(cat.AddPointCloud("d", table).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.AddLayer(VectorLayer::FromFeatures("d", {})).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(cat.AddPointCloud("n", nullptr).code(),
            StatusCode::kInvalidArgument);
}

// ---------------- spatial joins ----------------

class SpatialJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    AhnGeneratorOptions opts;
    opts.extent = Box(85000, 444000, 85300, 444300);
    AhnGenerator gen(opts);
    auto table = gen.GenerateTable(30000);
    ASSERT_TRUE(table.ok());
    table_ = *table;
    auto shard = std::make_shared<LocalShard>(table_, EngineOptions{});
    engine_ = &shard->engine();
    view_ = ShardsView::Single(std::move(shard), "x", "y");

    std::vector<VectorFeature> fs;
    VectorFeature road;
    road.id = 1;
    LineString l;
    l.points = {{85000, 444150}, {85300, 444160}};
    road.geometry = Geometry(l);
    road.feature_class =
        static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads);
    road.name = "transit";
    VectorFeature park;
    park.id = 2;
    park.geometry =
        Geometry(Polygon::FromBox(Box(85050, 444050, 85120, 444120)));
    park.feature_class = static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas);
    park.name = "park";
    layer_ = VectorLayer::FromFeatures("ua", {road, park});
  }

  std::shared_ptr<FlatTable> table_;
  std::shared_ptr<const ShardsView> view_;  ///< the table's one-shard view
  SpatialQueryEngine* engine_ = nullptr;    ///< the view's shard engine
  std::shared_ptr<VectorLayer> layer_;
};

TEST_F(SpatialJoinTest, PointsNearTransitRoadMatchesManualQuery) {
  auto near = PointsNearLayerClass(
      *view_, layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0);
  ASSERT_TRUE(near.ok());
  EXPECT_EQ(near->features_matched, 1u);
  auto direct =
      engine_->SelectWithinDistance(layer_->feature(0).geometry, 20.0);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(near->row_ids, direct->row_ids);
  EXPECT_FALSE(near->row_ids.empty());
  EXPECT_FALSE(near->profile.empty());
}

TEST_F(SpatialJoinTest, ClassZeroMeansAnyFeature) {
  auto any = PointsNearLayerClass(*view_, layer_.get(), 0, 10.0);
  ASSERT_TRUE(any.ok());
  auto transit = PointsNearLayerClass(
      *view_, layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 10.0);
  ASSERT_TRUE(transit.ok());
  EXPECT_GE(any->row_ids.size(), transit->row_ids.size());
  EXPECT_EQ(any->features_matched, 2u);
}

TEST_F(SpatialJoinTest, ResultsAreSortedAndUnique) {
  auto near = PointsNearLayerClass(*view_, layer_.get(), 0, 30.0);
  ASSERT_TRUE(near.ok());
  EXPECT_TRUE(std::is_sorted(near->row_ids.begin(), near->row_ids.end()));
  EXPECT_EQ(std::adjacent_find(near->row_ids.begin(), near->row_ids.end()),
            near->row_ids.end());
}

TEST_F(SpatialJoinTest, AverageElevationNearTransitRoad) {
  // The demo's flagship query: "compute the average elevation of the LIDAR
  // points that are near a fast transit road".
  auto avg = AggregateNearLayerClass(
      *view_, layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0, "z",
      AggKind::kAvg);
  ASSERT_TRUE(avg.ok());
  auto near = PointsNearLayerClass(
      *view_, layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0);
  ASSERT_TRUE(near.ok());
  ColumnPtr z = table_->column("z");
  double sum = 0;
  for (uint64_t r : near->row_ids) sum += z->GetDouble(r);
  EXPECT_NEAR(*avg, sum / near->row_ids.size(), 1e-9);
  auto count = AggregateNearLayerClass(
      *view_, layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kFastTransitRoads), 20.0, "z",
      AggKind::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, near->row_ids.size());
}

TEST_F(SpatialJoinTest, NoMatchingClassYieldsEmpty) {
  auto near = PointsNearLayerClass(*view_, layer_.get(), 99999, 50.0);
  ASSERT_TRUE(near.ok());
  EXPECT_TRUE(near->row_ids.empty());
  EXPECT_EQ(near->features_matched, 0u);
}

TEST_F(SpatialJoinTest, LayerIntersectingLayer) {
  // Roads layer intersecting the UA layer's park polygons.
  std::vector<VectorFeature> roads;
  VectorFeature through_park;
  through_park.id = 10;
  LineString l1;
  l1.points = {{85000, 444080}, {85300, 444085}};
  through_park.geometry = Geometry(l1);
  through_park.feature_class = 1;
  VectorFeature elsewhere;
  elsewhere.id = 11;
  LineString l2;
  l2.points = {{85000, 444290}, {85300, 444295}};
  elsewhere.geometry = Geometry(l2);
  elsewhere.feature_class = 1;
  auto road_layer =
      VectorLayer::FromFeatures("roads", {through_park, elsewhere});
  auto hits = LayerIntersectingLayer(
      road_layer.get(), layer_.get(),
      static_cast<uint32_t>(UrbanAtlasClass::kGreenUrbanAreas));
  EXPECT_EQ(hits, (std::vector<uint64_t>{0}));
}

}  // namespace
}  // namespace geocol
