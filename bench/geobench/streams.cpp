#include "streams.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <vector>

namespace geobench {

using geocol::Box;
using geocol::Point;

uint64_t MixSeed(uint64_t seed, uint64_t label) {
  // splitmix64 finaliser over the pair.
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (label + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr double kPi = 3.14159265358979323846;

std::string BoxWhere(const Box& b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "x BETWEEN %.2f AND %.2f AND y BETWEEN %.2f AND %.2f",
                b.min_x, b.max_x, b.min_y, b.max_y);
  return buf;
}

std::string PolygonWkt(const std::vector<Point>& ring) {
  std::string wkt = "POLYGON((";
  char buf[64];
  for (size_t i = 0; i <= ring.size(); ++i) {
    const Point& p = ring[i % ring.size()];
    std::snprintf(buf, sizeof(buf), "%s%.2f %.2f", i == 0 ? "" : ", ", p.x,
                  p.y);
    wkt += buf;
  }
  return wkt + "))";
}

/// The three box shapes shared by pan and dashboard traffic.
std::string BoxStatement(int shape, const Box& b, int projection_limit) {
  const std::string where = BoxWhere(b);
  switch (shape) {
    case 0:
      return "SELECT COUNT(*) FROM ahn2 WHERE " + where;
    case 1:
      return "SELECT AVG(z), MAX(z) FROM ahn2 WHERE " + where;
    default:
      return "SELECT x, y, z FROM ahn2 WHERE " + where + " LIMIT " +
             std::to_string(projection_limit);
  }
}

/// Deals `cards` in shuffled rounds: every round of cards.size() draws holds
/// each card once. Statement costs differ by orders of magnitude across
/// shapes and zoom levels, so exact proportions per round keep a phase's
/// latency quantiles from following the binomial noise of independent
/// draws from seed to seed.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> cards) : cards_(std::move(cards)) {}

  T Draw(std::mt19937_64& rng) {
    if (next_ == 0) std::shuffle(cards_.begin(), cards_.end(), rng);
    T card = cards_[next_];
    next_ = (next_ + 1) % cards_.size();
    return card;
  }

 private:
  std::vector<T> cards_;
  size_t next_ = 0;
};

/// Pan deck: each statement shape at each zoom level, the middle zoom
/// twice as often as the outer two.
std::vector<std::pair<int, int>> PanCards() {
  std::vector<std::pair<int, int>> cards;
  for (int shape = 0; shape < 6; ++shape) {
    for (int zoom : {0, 1, 1, 2}) cards.push_back({shape, zoom});
  }
  return cards;
}

class PanUser : public StatementStream {
 public:
  PanUser(const Box& extent, uint64_t seed)
      : extent_(extent), rng_(seed), deck_(PanCards()) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    cx_ = extent.min_x + extent.width() * unit(rng_);
    cy_ = extent.min_y + extent.height() * unit(rng_);
  }

  std::string Next() override {
    const auto [shape, zoom] = deck_.Draw(rng_);
    zoom_ = zoom;
    Step();
    const double s = Side();
    const Box view(cx_ - s / 2, cy_ - s / 2, cx_ + s / 2, cy_ + s / 2);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    switch (shape) {
      case 0:
        return BoxStatement(0, view, 256);
      case 1:
        return BoxStatement(1, view, 256);
      case 2:
        return BoxStatement(2, view, 256);
      case 3:
        return "SELECT COUNT(*) FROM ahn2 WHERE " + BoxWhere(view) +
               " AND classification BETWEEN 2 AND 6";
      case 4: {
        // An irregular hexagon inscribed in the viewport.
        std::vector<Point> ring;
        const double phase = unit(rng_) * kPi / 3;
        for (int k = 0; k < 6; ++k) {
          const double a = phase + k * kPi / 3;
          const double r = s / 2 * (0.6 + 0.4 * unit(rng_));
          ring.push_back({cx_ + r * std::cos(a), cy_ + r * std::sin(a)});
        }
        return "SELECT AVG(z) FROM ahn2 WHERE ST_Within(pt, "
               "ST_GeomFromText('" + PolygonWkt(ring) + "'))";
      }
      default: {
        // A road crossing the viewport from its west to its east edge.
        const double y_west = view.min_y + s * unit(rng_);
        const double x_mid = cx_ + s * (unit(rng_) - 0.5) / 4;
        const double y_mid = view.min_y + s * unit(rng_);
        const double y_east = view.min_y + s * unit(rng_);
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "LINESTRING(%.2f %.2f, %.2f %.2f, %.2f %.2f)",
                      view.min_x, y_west, x_mid, y_mid, view.max_x, y_east);
        return std::string("SELECT COUNT(*) FROM ahn2 WHERE ST_DWithin(pt, '") +
               buf + "', 5)";
      }
    }
  }

 private:
  double Side() const {
    static constexpr double kAreaShare[3] = {0.002, 0.01, 0.04};
    return std::sqrt(kAreaShare[zoom_] * extent_.area());
  }

  /// Moves the viewport centre 30 % of the current side in a random
  /// direction, keeping the viewport inside the extent.
  void Step() {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double s = Side();
    const double a = 2 * kPi * unit(rng_);
    cx_ = std::clamp(cx_ + 0.3 * s * std::cos(a), extent_.min_x + s / 2,
                     extent_.max_x - s / 2);
    cy_ = std::clamp(cy_ + 0.3 * s * std::sin(a), extent_.min_y + s / 2,
                     extent_.max_y - s / 2);
  }

  Box extent_;
  std::mt19937_64 rng_;
  Deck<std::pair<int, int>> deck_;  ///< (statement shape, zoom level)
  int zoom_ = 1;
  double cx_ = 0, cy_ = 0;
};

/// Box of 8-12 % of each extent side centred within 48-52 % of it: the
/// overlapping viewports of the E18 serving benchmark.
Box HotBox(const Box& extent, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> frac(0.08, 0.12);
  std::uniform_real_distribution<double> centre(0.48, 0.52);
  const double w = extent.width() * frac(rng), h = extent.height() * frac(rng);
  const double cx = extent.min_x + extent.width() * centre(rng);
  const double cy = extent.min_y + extent.height() * centre(rng);
  return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2);
}

/// The dashboard's fixed statement pool, most popular first. Built from a
/// constant seed so every run and every user shares it.
std::vector<std::string> DashboardPool(const Box& extent) {
  std::mt19937_64 rng(20150831);
  std::vector<std::string> pool;
  for (int i = 0; i < 32; ++i) {
    pool.push_back(BoxStatement(i % 3, HotBox(extent, rng), 32));
  }
  // Eight districts tiling the hot region (42-58 % of each side) as a 4x2
  // grid of jittered quadrilaterals.
  std::uniform_real_distribution<double> jitter(-0.01, 0.01);
  const double x0 = extent.min_x + 0.42 * extent.width();
  const double y0 = extent.min_y + 0.42 * extent.height();
  const double dx = 0.04 * extent.width(), dy = 0.08 * extent.height();
  for (int d = 0; d < 8; ++d) {
    const double bx = x0 + (d % 4) * dx, by = y0 + (d / 4) * dy;
    std::vector<Point> ring = {
        {bx + jitter(rng) * extent.width(), by + jitter(rng) * extent.height()},
        {bx + dx + jitter(rng) * extent.width(),
         by + jitter(rng) * extent.height()},
        {bx + dx + jitter(rng) * extent.width(),
         by + dy + jitter(rng) * extent.height()},
        {bx + jitter(rng) * extent.width(),
         by + dy + jitter(rng) * extent.height()}};
    const std::string within =
        "ST_Within(pt, ST_GeomFromText('" + PolygonWkt(ring) + "'))";
    pool.push_back("SELECT COUNT(*), AVG(z) FROM ahn2 WHERE " + within +
                   " AND classification BETWEEN 3 AND 5");
    pool.push_back("SELECT MAX(z) FROM ahn2 WHERE " + within +
                   " AND intensity BETWEEN 90 AND 130");
  }
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

class DashboardUser : public StatementStream {
 public:
  DashboardUser(const Box& extent, uint64_t seed)
      : extent_(extent),
        pool_(DashboardPool(extent)),
        rng_(seed),
        from_pool_({true, true, true, true, true, true, true, false}),
        shapes_({0, 1, 2}) {
    double total = 0;
    for (size_t k = 1; k <= pool_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), 1.1);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  std::string Next() override {
    if (from_pool_.Draw(rng_)) {
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      const size_t k = std::lower_bound(cdf_.begin(), cdf_.end(), unit(rng_)) -
                       cdf_.begin();
      return pool_[std::min(k, pool_.size() - 1)];
    }
    const int shape = shapes_.Draw(rng_);
    return BoxStatement(shape, HotBox(extent_, rng_), 32);
  }

 private:
  Box extent_;
  std::vector<std::string> pool_;
  std::vector<double> cdf_;  ///< Zipf(1.1) over pool ranks
  std::mt19937_64 rng_;
  /// 7 of 8 requests repeat a pool statement (result-cache hits once
  /// warm), 1 of 8 is a fresh box. Not half and half: a hit that waits
  /// behind a miss is as slow as the miss, so with an even mix the median
  /// sits on the gap between the fast and the slow mode and jumps between
  /// them from run to run.
  Deck<bool> from_pool_;
  Deck<int> shapes_;
};

}  // namespace

std::unique_ptr<StatementStream> MakePanUser(const Box& extent,
                                             uint64_t seed) {
  return std::make_unique<PanUser>(extent, seed);
}

std::unique_ptr<StatementStream> MakeDashboardUser(const Box& extent,
                                                   uint64_t seed) {
  return std::make_unique<DashboardUser>(extent, seed);
}

}  // namespace geobench
