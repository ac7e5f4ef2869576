// Runtime CPU dispatch for the SIMD kernel layer. The best instruction-set
// level is detected once at startup (cpuid + OS ymm-state check) and can be
// forced down with GEOCOL_SIMD=scalar|avx2 for testing and debugging; any
// other value logs one warning and is ignored. Every kernel has a scalar
// reference implementation with *identical* results (bit-identical
// selection words, row ids and stats), so switching levels is purely a
// performance decision.
#ifndef GEOCOL_SIMD_DISPATCH_H_
#define GEOCOL_SIMD_DISPATCH_H_

#include <cstdint>

namespace geocol {
namespace simd {

/// Kernel instruction-set tiers: the portable scalar reference, or AVX2
/// (requires CPU and OS support for 256-bit state). The numeric values are
/// published as the geocol_simd_dispatch_level gauge.
enum class SimdLevel : uint8_t { kScalar = 0, kAvx2 = 2 };

const char* SimdLevelName(SimdLevel level);

/// Parses "scalar" / "avx2"; returns false on anything else.
bool ParseSimdLevel(const char* s, SimdLevel* out);

/// The CPU capability bits AVX2 dispatch needs, for `geocol simd`.
struct CpuFeatures {
  bool avx = false;
  bool os_ymm = false;  ///< OS saves/restores ymm state (xgetbv)
  bool avx2 = false;
};

/// Detected once, cached.
const CpuFeatures& DetectCpuFeatures();

/// Highest level this process can run (hardware + OS).
SimdLevel MaxSupportedSimdLevel();

/// The level the kernel table is currently bound to. On first use this is
/// MaxSupportedSimdLevel() clamped by a valid GEOCOL_SIMD override.
SimdLevel ActiveSimdLevel();

/// Rebinds the kernel table to `level` (clamped to hardware support) and
/// returns the level actually applied. Intended for tests and benchmarks;
/// not thread-safe with respect to concurrently running queries.
SimdLevel SetSimdLevel(SimdLevel level);

}  // namespace simd
}  // namespace geocol

#endif  // GEOCOL_SIMD_DISPATCH_H_
