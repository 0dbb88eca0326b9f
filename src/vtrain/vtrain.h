/**
 * @file
 * Umbrella public header for the vTrain library.
 *
 * vTrain (MICRO 2024) is a profiling-driven simulation framework that
 * predicts the single-iteration training time of decoder-only LLMs
 * under (t, d, p)-way 3D parallelism, and drives cost-effective plan
 * search, multi-tenant cluster scheduling, and compute-optimal model
 * sizing.  Typical usage:
 *
 * @code
 *   using namespace vtrain;
 *   ClusterSpec cluster = makeCluster(512);
 *   ModelConfig model = zoo::gpt3_175b();
 *   ParallelConfig plan;
 *   plan.tensor = 8; plan.data = 8; plan.pipeline = 8;
 *   plan.micro_batch_size = 1; plan.global_batch_size = 1024;
 *   Simulator sim(cluster);
 *   SimulationResult result = sim.simulateIteration(model, plan);
 * @endcode
 */
#ifndef VTRAIN_VTRAIN_H
#define VTRAIN_VTRAIN_H

#include "cluster/cluster_sim.h"
#include "cluster/job.h"
#include "cluster/metrics.h"
#include "cluster/scheduler.h"
#include "cluster/throughput_profile.h"
#include "cluster/trace.h"
#include "comm/analytical_model.h"
#include "comm/collective.h"
#include "comm/comm_model.h"
#include "comm/nccl_table.h"
#include "cost/cost_model.h"
#include "explore/design_space.h"
#include "explore/explorer.h"
#include "graph/builder.h"
#include "graph/op_graph.h"
#include "graph/schedule.h"
#include "graph/task_graph.h"
#include "graph/template.h"
#include "hw/cluster_spec.h"
#include "hw/gpu_spec.h"
#include "hw/node_spec.h"
#include "hw/pricing.h"
#include "kernels/gemm_model.h"
#include "kernels/kernel.h"
#include "kernels/memops_model.h"
#include "model/model_config.h"
#include "model/zoo.h"
#include "net/fault_injection.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/server.h"
#include "net/socket.h"
#include "parallel/memory_model.h"
#include "parallel/parallel_config.h"
#include "profiling/op_task_table.h"
#include "profiling/operator.h"
#include "profiling/profiler.h"
#include "profiling/synthetic_profiler.h"
#include "scaling/chinchilla.h"
#include "serve/admission.h"
#include "serve/http_frontend.h"
#include "serve/result_cache.h"
#include "serve/sim_request.h"
#include "serve/sim_service.h"
#include "serve/sweep_coordinator.h"
#include "serve/wire.h"
#include "sim/engine.h"
#include "sim/result.h"
#include "sim/simulator.h"
#include "testbed/testbed.h"
#include "util/hash.h"
#include "util/interp.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/units.h"

#endif // VTRAIN_VTRAIN_H
