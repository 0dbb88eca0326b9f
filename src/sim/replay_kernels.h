/**
 * @file
 * Vectorized replay-chunk kernels: the ISA dispatch boundary.
 *
 * The kernel runs one fixed-width lockstep pass over a
 * ReplaySchedule, exactly mirroring engine.cc's scalar replayChunk<K>
 * — same arrays, same per-position loads, and the same per-lane
 * operation order — so every width and ISA produces bit-identical
 * EngineResults:
 *
 *   - the accumulation path contains only IEEE additions and maxima
 *     (no multiplies), so FMA contraction cannot apply; the kernel
 *     TUs are built with -ffp-contract=off anyway as a belt;
 *   - vmaxpd picks the second operand on ties while std::max picks
 *     the first, but every operand here is a non-negative, non-NaN
 *     time (durations are finite and >= 0, accumulators start at
 *     +0.0), so a tie is a tie between equal bit patterns.
 *
 * This header is deliberately intrinsics-free: <immintrin.h> may
 * appear only inside src/sim/replay_kernels_*.cc, each compiled with
 * exactly its ISA flag (scripts/lint.py `intrinsics` rule enforces
 * the boundary).  Callers never reach a kernel directly — engine.cc's
 * replayBatch dispatches on the runtime util::cpuFeatures() probe and
 * on whether the TU was compiled in (VTRAIN_REPLAY_KERNEL_* from
 * CMake); when either gate fails the portable scalar chunks run.
 */
#ifndef VTRAIN_SIM_REPLAY_KERNELS_H
#define VTRAIN_SIM_REPLAY_KERNELS_H

#include <cstddef>
#include <vector>

#include "graph/schedule.h"
#include "sim/engine.h"

namespace vtrain {
namespace detail {

/** Lockstep width of the AVX2 kernel (doubles per __m256d). */
constexpr size_t kAvx2ReplayWidth = 4;

/** @return true when the AVX2 kernel TU was compiled into this
 *  binary (the compiler accepted -mavx2 on an x86-64 target).  Says
 *  nothing about the running CPU — see engine.h replayKernelUsable. */
bool replayKernelAvx2Compiled();

/**
 * One kAvx2ReplayWidth-wide lockstep pass over the schedule.
 * `set_ptrs` holds kAvx2ReplayWidth duration vectors (original task
 * id order, schedule.numTasks() entries each); `ready_vec` is caller
 * scratch reused across chunks; `results` receives one EngineResult
 * per lane.  Aborts if the kernel was not compiled in.
 */
void replayChunkAvx2(const ReplaySchedule &schedule,
                     const double *const *set_ptrs,
                     std::vector<double> &ready_vec,
                     EngineResult *results);

/**
 * Splits a chunk's interleaved accumulators into per-point
 * EngineResults — the one unpack every lockstep pass shares (replay
 * and op FIFO, scalar and vector), so the result layout cannot drift
 * between them.
 */
inline void
unpackChunkResults(size_t k, size_t n, int n_devices, const double *busy,
                   const double *tags, const double *makespan,
                   EngineResult *results)
{
    for (size_t j = 0; j < k; ++j) {
        EngineResult &result = results[j];
        result.makespan = makespan[j];
        result.executed = n;
        result.busy_compute.resize(n_devices);
        result.busy_comm.resize(n_devices);
        for (int d = 0; d < n_devices; ++d) {
            result.busy_compute[d] =
                busy[(static_cast<size_t>(d) * 2) * k + j];
            result.busy_comm[d] =
                busy[(static_cast<size_t>(d) * 2 + 1) * k + j];
        }
        for (int t = 0; t < kNumTaskTags; ++t)
            result.time_by_tag[t] =
                tags[static_cast<size_t>(t) * k + j];
    }
}

} // namespace detail
} // namespace vtrain

#endif // VTRAIN_SIM_REPLAY_KERNELS_H
