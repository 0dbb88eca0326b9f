/**
 * @file
 * Simulation outputs at the reporting granularity the paper uses:
 * iteration time, GPU compute utilization, cost-ready projections.
 */
#ifndef VTRAIN_SIM_RESULT_H
#define VTRAIN_SIM_RESULT_H

#include <array>
#include <cstddef>
#include <string>

#include "graph/task_graph.h"

namespace vtrain {

/** Outcome of simulating one training iteration. */
struct SimulationResult {
    /** Predicted single-iteration training time, seconds. */
    double iteration_seconds = 0.0;

    /**
     * GPU compute utilization: achieved model FLOP/s relative to the
     * aggregate peak FLOP/s of all t*d*p GPUs (the metric of Fig. 1,
     * Fig. 10(b) and Table I).
     */
    double utilization = 0.0;

    /** Model FLOPs of one iteration (the useful work). */
    double model_flops = 0.0;

    /** Pipeline-bubble fraction on the bottleneck stage (approx.;
     *  computed on the simulated prefix when extrapolating). */
    double bubble_fraction = 0.0;

    /** Total scheduled time by task tag, seconds (simulated prefix). */
    std::array<double, kNumTaskTags> time_by_tag{};

    /** Graph sizes of the simulated (possibly capped) iteration. */
    size_t num_operators = 0;
    size_t num_tasks = 0;

    /** Lookup-table statistics (the O(1) profiling claim). */
    size_t distinct_operators_profiled = 0;
    size_t profiler_calls = 0;

    /** Fast-mode bookkeeping. */
    bool extrapolated = false;
    int simulated_micro_batches = 0;
    int total_micro_batches = 0;

    /** Wall-clock cost of the simulation itself, seconds. */
    double sim_wall_seconds = 0.0;

    /** One-line human-readable summary. */
    std::string brief() const;

    bool operator==(const SimulationResult &) const = default;
};

/** SimulationResult's wire keys, in order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const SimulationResult *)
{
    using R = SimulationResult;
    visit("iteration_seconds", &R::iteration_seconds);
    visit("utilization", &R::utilization);
    visit("model_flops", &R::model_flops);
    visit("bubble_fraction", &R::bubble_fraction);
    visit("time_by_tag", &R::time_by_tag);
    visit("num_operators", &R::num_operators);
    visit("num_tasks", &R::num_tasks);
    visit("distinct_operators_profiled", &R::distinct_operators_profiled);
    visit("profiler_calls", &R::profiler_calls);
    visit("extrapolated", &R::extrapolated);
    visit("simulated_micro_batches", &R::simulated_micro_batches);
    visit("total_micro_batches", &R::total_micro_batches);
    visit("sim_wall_seconds", &R::sim_wall_seconds);
}

} // namespace vtrain

#endif // VTRAIN_SIM_RESULT_H
