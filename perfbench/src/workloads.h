/**
 * @file
 * The benchmark's workloads.  Each runs in its own process; the
 * untraced run (--trace 0) reports end-to-end metrics, the traced run
 * (--trace 1) the per-layer ledger.
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** Cold DSE: the paper's MT-NLG Table I / Fig. 10 space, 1 thread. */
Report runMtnlgDse(const Args &args);

/**
 * Batched DSE: 512 MT-NLG points in 8 replay groups, 2 threads.  Not
 * in BENCHMARK.json: its replays are bound by the host's shared memory
 * bandwidth, too noisy for a 25% bound (README.md, noise findings).
 */
Report runMtnlgBatch(const Args &args);

/** Mixed HTTP serving: open loop, then closed loop, GPT-3 hot set. */
Report runServeMixed(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
