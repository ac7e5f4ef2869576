// E11: SIMD kernel throughput by dispatch level. Runs the four vectorized
// hot loops — range-compare selection, batched coordinate gather, grid-cell
// assignment and batched point-in-polygon — at every dispatch level the CPU
// supports (scalar -> avx2) on cache-hot inputs, single core, and
// reports throughput plus speedup over the scalar reference. Every level
// must produce bit-identical outputs; the harness cross-checks a digest of
// each kernel's result against the scalar run before reporting.
#include <cstring>
#include <numeric>

#include "bench/bench_common.h"
#include "geom/grid.h"
#include "geom/predicates.h"
#include "simd/kernels.h"
#include "util/rng.h"

using namespace geocol;

namespace {

constexpr size_t kValues = 1 << 16;  // cache-hot working set per iteration
constexpr int kInnerReps = 64;       // iterations per timed sample

uint64_t Digest(const void* p, size_t bytes) {
  const uint8_t* b = static_cast<const uint8_t*>(p);
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < bytes; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

struct KernelRun {
  const char* kernel;
  double ms = 0.0;
  double mvals = 0.0;   // million values (or points) per second
  uint64_t digest = 0;  // parity cross-check between levels
};

Ring MakeRing(size_t vertices, double cx, double cy, double r, Rng& rng) {
  Ring ring;
  for (size_t i = 0; i < vertices; ++i) {
    double a = 2.0 * M_PI * static_cast<double>(i) / vertices;
    double rr = r * (0.6 + 0.4 * rng.UniformDouble(0.0, 1.0));
    ring.points.push_back({cx + rr * std::cos(a), cy + rr * std::sin(a)});
  }
  return ring;
}

std::vector<KernelRun> RunLevel(const std::vector<double>& vals,
                                const std::vector<double>& xs,
                                const std::vector<double>& ys,
                                const std::vector<uint64_t>& rows,
                                const RegularGrid& grid, const Geometry& poly) {
  std::vector<KernelRun> out;
  const size_t n = vals.size();

  {  // branch-free range compare -> selection words
    std::vector<uint64_t> words((n + 63) / 64);
    uint64_t selected = 0;
    double ms = bench::TimeMs([&] {
      for (int i = 0; i < kInnerReps; ++i) {
        selected = simd::RangeSelectBits(vals.data(), n, -0.5, 0.5,
                                         words.data());
      }
    });
    KernelRun r{"range_f64"};
    r.ms = ms;
    r.mvals = (static_cast<double>(n) * kInnerReps) / (ms * 1e3);
    r.digest = Digest(words.data(), words.size() * 8) ^ selected;
    out.push_back(r);
  }

  {  // batched coordinate gather
    std::vector<double> gathered(n);
    double ms = bench::TimeMs([&] {
      for (int i = 0; i < kInnerReps; ++i) {
        simd::GatherDouble(vals.data(), rows.data(), n, gathered.data());
      }
    });
    KernelRun r{"gather_f64"};
    r.ms = ms;
    r.mvals = (static_cast<double>(n) * kInnerReps) / (ms * 1e3);
    r.digest = Digest(gathered.data(), gathered.size() * 8);
    out.push_back(r);
  }

  {  // grid cell assignment
    std::vector<uint64_t> cells(n);
    double ms = bench::TimeMs([&] {
      for (int i = 0; i < kInnerReps; ++i) {
        grid.CellOfBatch(xs.data(), ys.data(), n, cells.data());
      }
    });
    KernelRun r{"cell_of"};
    r.ms = ms;
    r.mvals = (static_cast<double>(n) * kInnerReps) / (ms * 1e3);
    r.digest = Digest(cells.data(), cells.size() * 8);
    out.push_back(r);
  }

  {  // batched point-in-polygon (crossing-number over a 64-vertex ring)
    const size_t pip_n = n / 8;  // edges x points keeps the sample ~equal work
    std::vector<uint8_t> inside(pip_n);
    double ms = bench::TimeMs([&] {
      for (int i = 0; i < kInnerReps / 8; ++i) {
        GeometryContainsPointBatch(poly, xs.data(), ys.data(), pip_n,
                                   inside.data());
      }
    });
    KernelRun r{"point_in_polygon"};
    r.ms = ms;
    r.mvals = (static_cast<double>(pip_n) * (kInnerReps / 8)) / (ms * 1e3);
    r.digest = Digest(inside.data(), inside.size());
    out.push_back(r);
  }

  {  // batched point-segment distance (ST_DWithin inner loop)
    const size_t d_n = n / 8;
    std::vector<uint8_t> within(d_n);
    double ms = bench::TimeMs([&] {
      for (int i = 0; i < kInnerReps / 8; ++i) {
        GeometryDWithinBatch(poly, 25.0, xs.data(), ys.data(), d_n,
                             within.data());
      }
    });
    KernelRun r{"dwithin"};
    r.ms = ms;
    r.mvals = (static_cast<double>(d_n) * (kInnerReps / 8)) / (ms * 1e3);
    r.digest = Digest(within.data(), within.size());
    out.push_back(r);
  }

  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench(argc, argv);
  bench::Banner("E11",
                "SIMD kernel throughput by dispatch level (scalar/avx2),"
                " single core, cache-hot; outputs cross-checked bit-identical");

  Rng rng(20150831);
  std::vector<double> vals(kValues);
  for (double& v : vals) v = rng.UniformDouble(-2.0, 2.0);
  std::vector<double> xs(kValues), ys(kValues);
  for (size_t i = 0; i < kValues; ++i) {
    xs[i] = rng.UniformDouble(0.0, 1000.0);
    ys[i] = rng.UniformDouble(0.0, 1000.0);
  }
  // Shuffled gather indices: refinement gathers candidates in row order,
  // but a shuffle keeps the benchmark honest about latency hiding.
  std::vector<uint64_t> rows(kValues);
  std::iota(rows.begin(), rows.end(), 0);
  for (size_t i = kValues - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Uniform(i + 1)]);
  }
  RegularGrid grid(Box(0, 0, 1000, 1000), 512, 512);
  Polygon poly;
  poly.shell = MakeRing(64, 500.0, 500.0, 420.0, rng);
  Geometry geom(poly);

  const simd::SimdLevel max_level = simd::MaxSupportedSimdLevel();
  bench::TablePrinter table(
      {"kernel", "level", "ms", "Mvals_per_s", "speedup_vs_scalar"});
  std::vector<KernelRun> scalar_runs;
  bool parity_ok = true;
  for (simd::SimdLevel want : {simd::SimdLevel::kScalar,
                               simd::SimdLevel::kAvx2}) {
    if (simd::SetSimdLevel(want) != want) continue;
    std::vector<KernelRun> runs = RunLevel(vals, xs, ys, rows, grid, geom);
    if (want == simd::SimdLevel::kScalar) scalar_runs = runs;
    for (size_t i = 0; i < runs.size(); ++i) {
      const KernelRun& r = runs[i];
      double speedup =
          scalar_runs.empty() ? 1.0 : scalar_runs[i].ms / std::max(r.ms, 1e-9);
      table.Row({r.kernel, simd::SimdLevelName(want),
                 bench::TablePrinter::Num(r.ms, 3),
                 bench::TablePrinter::Num(r.mvals, 1),
                 bench::TablePrinter::Num(speedup, 2)});
      if (!scalar_runs.empty() && r.digest != scalar_runs[i].digest) {
        std::fprintf(stderr, "PARITY MISMATCH: %s at %s\n", r.kernel,
                     simd::SimdLevelName(want));
        parity_ok = false;
      }
    }
  }
  simd::SetSimdLevel(max_level);
  std::printf("\nparity: %s\n", parity_ok ? "all levels bit-identical"
                                          : "MISMATCH (see stderr)");
  return parity_ok ? 0 : 1;
}
