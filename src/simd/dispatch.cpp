#include "simd/dispatch.h"

#include <cstdlib>
#include <cstring>

#include "simd/kernels_generic.h"
#include "telemetry/metrics.h"
#include "util/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define GEOCOL_X86_64 1
#include <cpuid.h>
#endif

namespace geocol {
namespace simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseSimdLevel(const char* s, SimdLevel* out) {
  if (s == nullptr) return false;
  if (std::strcmp(s, "scalar") == 0) {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (std::strcmp(s, "avx2") == 0) {
    *out = SimdLevel::kAvx2;
    return true;
  }
  return false;
}

namespace {

CpuFeatures DetectCpuFeaturesImpl() {
  CpuFeatures f;
#if GEOCOL_X86_64
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx = (ecx & (1u << 28)) != 0;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    if (osxsave) {
      // xgetbv(0): bit 1 = xmm state, bit 2 = ymm state saved by the OS.
      unsigned lo = 0, hi = 0;
      __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      f.os_ymm = (lo & 0x6) == 0x6;
    }
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & (1u << 5)) != 0;
  }
#endif
  return f;
}

struct Runtime {
  SimdLevel level = SimdLevel::kScalar;
  KernelTable table;
};

SimdLevel ClampLevel(SimdLevel level) {
  const SimdLevel max = MaxSupportedSimdLevel();
  return level > max ? max : level;
}

/// Publishes the active dispatch level (0=scalar, 2=avx2) so
/// `geocol metrics` can attribute results to the code path that ran.
void PublishSimdLevelGauge(SimdLevel level) {
  GEOCOL_METRIC_GAUGE(g_level, "geocol_simd_dispatch_level");
  g_level.Set(static_cast<int64_t>(level));
}

Runtime& GetRuntime() {
  static Runtime rt = [] {
    Runtime r;
    r.level = MaxSupportedSimdLevel();
    const char* env = std::getenv("GEOCOL_SIMD");
    SimdLevel forced;
    if (ParseSimdLevel(env, &forced)) {
      r.level = ClampLevel(forced);
    } else if (env != nullptr) {
      GEOCOL_LOG(Warning)
              .With("value", env)
              .With("level", SimdLevelName(r.level))
          << "ignoring unrecognised GEOCOL_SIMD (expected scalar or avx2)";
    }
    BindKernelsForLevel(r.level, &r.table);
    PublishSimdLevelGauge(r.level);
    return r;
  }();
  return rt;
}

}  // namespace

const CpuFeatures& DetectCpuFeatures() {
  static const CpuFeatures features = DetectCpuFeaturesImpl();
  return features;
}

SimdLevel MaxSupportedSimdLevel() {
  const CpuFeatures& f = DetectCpuFeatures();
  if (f.avx2 && f.avx && f.os_ymm) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

SimdLevel ActiveSimdLevel() { return GetRuntime().level; }

SimdLevel SetSimdLevel(SimdLevel level) {
  Runtime& rt = GetRuntime();
  const SimdLevel applied = ClampLevel(level);
  if (applied != rt.level) {
    KernelTable table;
    BindKernelsForLevel(applied, &table);
    rt.table = table;
    rt.level = applied;
    PublishSimdLevelGauge(applied);
  }
  return applied;
}

const KernelTable& Kernels() { return GetRuntime().table; }

void BindKernelsForLevel(SimdLevel level, KernelTable* table) {
  BindScalarKernels(table);
  if (level == SimdLevel::kAvx2) BindAvx2Kernels(table);
}

}  // namespace simd
}  // namespace geocol
