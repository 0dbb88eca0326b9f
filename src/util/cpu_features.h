/**
 * @file
 * Cached runtime CPU-feature probe.
 *
 * Nothing in the library dispatches on it: the engine is portable
 * C++ at the build's baseline ISA.  It only names the running
 * processor's instruction sets in benchmark context lines, so a
 * recorded figure says what hardware produced it.  The probe executes
 * cpuid once (magic static) and is thread-safe; off x86 (or off
 * GCC/Clang) every feature reports false.
 */
#ifndef VTRAIN_UTIL_CPU_FEATURES_H
#define VTRAIN_UTIL_CPU_FEATURES_H

#include <string>

namespace vtrain {
namespace util {

/** SIMD capabilities of the running processor. */
struct CpuFeatures {
    bool avx2 = false;    //!< 256-bit integer + FMA-era vector ISA
    bool avx512f = false; //!< 512-bit foundation subset
};

/** @return the processor's features, probed once per process. */
const CpuFeatures &cpuFeatures();

/**
 * @return a space-separated summary for logs and bench context
 * blocks: "avx2 avx512f", "avx2", or "none".
 */
std::string cpuFeatureSummary();

} // namespace util
} // namespace vtrain

#endif // VTRAIN_UTIL_CPU_FEATURES_H
