/**
 * @file
 * AVX2 replay kernel: four duration vectors per 256-bit lane group.
 *
 * Compiled with -mavx2 -ffp-contract=off (CMake source property) and
 * only ever entered through engine.cc's runtime dispatch, so the
 * binary stays runnable on pre-AVX2 processors.  The loop body is the
 * scalar replayChunk<4> with each 4-wide j-loop collapsed into one
 * vector op; see replay_kernels.h for the bit-identity argument.
 */
#include "sim/replay_kernels.h"

#include "util/logging.h"

#if defined(VTRAIN_REPLAY_KERNEL_AVX2)

#include <immintrin.h>

namespace vtrain {
namespace detail {

bool
replayKernelAvx2Compiled()
{
    return true;
}

void
replayChunkAvx2(const ReplaySchedule &schedule,
                const double *const *set_ptrs,
                std::vector<double> &ready_vec, EngineResult *results)
{
    constexpr size_t K = kAvx2ReplayWidth;
    const size_t n = schedule.numTasks();
    const int n_devices = schedule.num_devices;
    const int32_t *const order = schedule.order.data();
    const int32_t *const lane = schedule.lane.data();
    const int32_t *const busy_lane = schedule.busy_lane.data();
    const uint8_t *const tag = schedule.tag.data();
    const int32_t *const child_offsets = schedule.child_offsets.data();
    const int32_t *const child_list = schedule.child_list.data();

    // Durations are read straight out of the input vectors — the K
    // loads per position share one index, order[i] (same layout
    // decision as the scalar chunk).
    const double *__restrict const s0 = set_ptrs[0];
    const double *__restrict const s1 = set_ptrs[1];
    const double *__restrict const s2 = set_ptrs[2];
    const double *__restrict const s3 = set_ptrs[3];

    ready_vec.assign(n * K, 0.0);
    double *__restrict const ready = ready_vec.data();
    std::vector<double> timeline_vec(
        static_cast<size_t>(n_devices) * kNumStreams * K, 0.0);
    std::vector<double> busy_vec(
        static_cast<size_t>(n_devices) * 2 * K, 0.0);
    std::vector<double> tags_vec(
        static_cast<size_t>(kNumTaskTags) * K, 0.0);
    double *__restrict const timeline = timeline_vec.data();
    double *__restrict const busy = busy_vec.data();
    double *__restrict const tags = tags_vec.data();

    __m256d makespan = _mm256_setzero_pd();
    for (size_t i = 0; i < n; ++i) {
        const int32_t u = order[i];
        const __m256d duration =
            _mm256_set_pd(s3[u], s2[u], s1[u], s0[u]);
        double *const lane_base =
            timeline + static_cast<size_t>(lane[i]) * K;
        double *const busy_base =
            busy + static_cast<size_t>(busy_lane[i]) * K;
        double *const tag_base =
            tags + static_cast<size_t>(tag[i]) * K;

        const __m256d start = _mm256_max_pd(
            _mm256_loadu_pd(ready + i * K), _mm256_loadu_pd(lane_base));
        const __m256d end = _mm256_add_pd(start, duration);
        _mm256_storeu_pd(lane_base, end);
        _mm256_storeu_pd(busy_base,
                         _mm256_add_pd(_mm256_loadu_pd(busy_base),
                                       duration));
        _mm256_storeu_pd(tag_base,
                         _mm256_add_pd(_mm256_loadu_pd(tag_base),
                                       duration));
        makespan = _mm256_max_pd(makespan, end);

        for (const int32_t *c = child_list + child_offsets[i],
                           *const c_end =
                               child_list + child_offsets[i + 1];
             c != c_end; ++c) {
            double *const child_ready =
                ready + static_cast<size_t>(*c) * K;
            _mm256_storeu_pd(
                child_ready,
                _mm256_max_pd(_mm256_loadu_pd(child_ready), end));
        }
    }

    alignas(32) double makespan_arr[K];
    _mm256_store_pd(makespan_arr, makespan);
    unpackChunkResults(K, n, n_devices, busy, tags, makespan_arr,
                       results);
}

} // namespace detail
} // namespace vtrain

#else // !VTRAIN_REPLAY_KERNEL_AVX2

namespace vtrain {
namespace detail {

bool
replayKernelAvx2Compiled()
{
    return false;
}

void
replayChunkAvx2(const ReplaySchedule &, const double *const *,
                std::vector<double> &, EngineResult *)
{
    VTRAIN_CHECK(false, "AVX2 replay kernel was not compiled into "
                        "this binary (dispatch bug)");
}

} // namespace detail
} // namespace vtrain

#endif // VTRAIN_REPLAY_KERNEL_AVX2
