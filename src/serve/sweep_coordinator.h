/**
 * @file
 * Distributed sweep coordinator: fans one design-space sweep out
 * across N shard servers and merges the results.
 *
 * A shard is any HttpFrontend speaking POST /v1/sweep.  The
 * coordinator partitions the sweep's plans by consistent hashing on
 * their structural batch-group key (sim/simulator.h batchGroupKey), so
 * every structurally identical group lands wholly on one shard and
 * hits that shard's warm GraphTemplate and ResultCache entries —
 * locality-aware placement, the same idea parameter-server layouts use
 * to keep state resident.  Slices are dispatched concurrently over
 * keep-alive connections (one per shard) and the answers are merged
 * back into request order.
 *
 * Failure handling is deterministic: transient failures (HTTP 429/502/
 * 503/504, timeouts, connections the peer closed) are retried against
 * the same shard with bounded exponential backoff — a Retry-After
 * header on the rejection stretches (never shrinks) the next backoff
 * sleep, so an overloaded or draining shard's own hint wins over the
 * blind exponential schedule; a shard that stays down
 * (connection refused, retries exhausted) is marked dead for the rest
 * of the sweep and its plans are re-routed to the next alive node on
 * the hash ring.  Re-execution is safe because shard evaluation is
 * pure compute keyed by request fingerprint, and merged results are
 * written by plan index, so a retried slice can never double-count.
 * Dead marks do not outlive the sweep — the next sweep() re-dials
 * every configured shard.
 *
 * The per-shard request/retry/failover counters and request-latency
 * histograms are registered in the global MetricRegistry (/metricsz);
 * stats() snapshots the same numbers for /statz's "sweep" block.
 */
#ifndef VTRAIN_SERVE_SWEEP_COORDINATOR_H
#define VTRAIN_SERVE_SWEEP_COORDINATOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "explore/explorer.h"
#include "net/http_client.h"
#include "serve/sim_request.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {

/** One shard server's address. */
struct ShardEndpoint {
    std::string host = "127.0.0.1";
    uint16_t port = 0;

    /** "host:port" — the ring's hash seed and the metrics label. */
    std::string label() const
    {
        return host + ":" + std::to_string(port);
    }
};

/** Per-shard counters since construction (one entry per endpoint). */
struct SweepShardStats {
    std::string shard;      //!< endpoint label ("host:port")
    uint64_t requests = 0;  //!< slice requests attempted
    uint64_t plans = 0;     //!< plans answered by this shard
    uint64_t retries = 0;   //!< transient-failure re-sends
    uint64_t failures = 0;  //!< slice requests that gave up
    uint64_t failovers = 0; //!< plans re-routed away after death
};

/** Coordinator-level counters (stats() snapshot). */
struct SweepCoordinatorStats {
    uint64_t sweeps = 0;    //!< sweep() calls completed
    uint64_t plans = 0;     //!< plans merged across all sweeps
    uint64_t groups = 0;    //!< distinct batch groups partitioned
    uint64_t retries = 0;   //!< sum of per-shard retries
    uint64_t failovers = 0; //!< sum of per-shard rerouted plans
    std::vector<SweepShardStats> shards;
};

/** Fans sweeps out across shard servers; thread-safe. */
class SweepCoordinator
{
  public:
    struct Options {
        std::vector<ShardEndpoint> shards;

        /** Total tries per slice against one shard (first + retries). */
        int max_attempts = 3;

        /** First backoff delay; doubles per retry. */
        int backoff_initial_ms = 50;

        /**
         * Per-operation socket timeout while awaiting a slice
         * response.  Slices are whole sub-sweeps, so the default is
         * generous; tests shrink it to provoke failover.
         */
        int io_timeout_ms = 600000;

        /**
         * Optional fault-injection layer forwarded to every shard
         * client (tests only); rules can target one shard via its
         * "host:port" in the decision key.  Must outlive the
         * coordinator.
         */
        net::FaultInjector *fault_injector = nullptr;
    };

    explicit SweepCoordinator(Options options);
    ~SweepCoordinator();

    SweepCoordinator(const SweepCoordinator &) = delete;
    SweepCoordinator &operator=(const SweepCoordinator &) = delete;

    /**
     * Evaluates every request on the shard fleet and returns results
     * in request order, bit-identical to a local Explorer::sweep
     * (modulo each result's sim_wall_seconds, which measures whichever
     * host computed it).  The requests must share one (model,
     * cluster, options) triple, as sweepRequests() builds them, and
     * carry no perturber.  Throws std::runtime_error when every shard
     * is dead or a shard answers with a malformed/incompatible
     * payload.
     *
     * `deadline_ns` is an absolute util::monotonicNanos() instant
     * (0 = none): each slice carries the remaining budget to its
     * shard as the wire `deadline_ms` and bounds the HTTP request by
     * it; once it passes, sweep() throws DeadlineExceeded instead of
     * dispatching further work.
     */
    std::vector<ExploreResult> sweep(const std::vector<SimRequest> &requests,
                                     uint64_t deadline_ns = 0);

    size_t numShards() const { return shards_.size(); }

    const std::vector<ShardEndpoint> &endpoints() const
    {
        return endpoints_;
    }

    /**
     * The routing key of one request: its structural batch-group key,
     * or a domain-separated hash of its fingerprint when the plan is
     * unbatchable (batchGroupKey 0).
     */
    static uint64_t routingKey(const SimRequest &request);

    /**
     * The shard index `key` routes to when the shards listed in
     * `dead` are skipped (walks the ring clockwise to the next alive
     * node).  Empty `dead` means all alive.  Exposed so tests can
     * assert ring stability; returns numShards() when every shard is
     * dead.
     */
    size_t shardForKey(uint64_t key,
                       const std::vector<bool> &dead = {}) const;

    SweepCoordinatorStats stats() const EXCLUDES(stats_mutex_);

  private:
    /** One keep-alive client per shard, serialized by its own lock. */
    struct Shard {
        explicit Shard(net::HttpClient::Options options);

        util::Mutex mutex;
        net::HttpClient client GUARDED_BY(mutex);
    };

    /** Mutable half of SweepShardStats (labels live in endpoints_). */
    struct ShardCounters {
        uint64_t requests = 0;
        uint64_t plans = 0;
        uint64_t retries = 0;
        uint64_t failures = 0;
        uint64_t failovers = 0;
    };

    /** How one slice dispatch ended. */
    enum class SliceOutcome {
        Done,      //!< all results merged
        ShardDown, //!< transient failures exhausted / connect refused
        Fatal,     //!< protocol or schema error; abort the sweep
        Expired    //!< the sweep deadline passed; abort with
                   //!< DeadlineExceeded
    };

    /**
     * POSTs `indices`' requests to shard `shard_index` with bounded
     * retry + backoff, writing decoded results into (*results)[i].
     * On failure *error describes the last attempt.
     */
    SliceOutcome runSlice(size_t shard_index,
                          const std::vector<size_t> &indices,
                          const std::vector<SimRequest> &requests,
                          uint64_t deadline_ns,
                          std::vector<ExploreResult> *results,
                          std::string *error)
        EXCLUDES(stats_mutex_);

    Options options_;
    std::vector<ShardEndpoint> endpoints_;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Sorted (hash, shard index) ring; immutable after construction. */
    std::vector<std::pair<uint64_t, size_t>> ring_;

    mutable util::Mutex stats_mutex_;
    uint64_t sweeps_ GUARDED_BY(stats_mutex_) = 0;
    uint64_t plans_ GUARDED_BY(stats_mutex_) = 0;
    uint64_t groups_ GUARDED_BY(stats_mutex_) = 0;
    std::vector<ShardCounters> counters_ GUARDED_BY(stats_mutex_);

    // Registry-backed per-shard metrics, resolved once (labels are the
    // fixed endpoint set, so series cardinality is bounded).
    std::vector<util::Counter *> requests_total_;
    std::vector<util::Counter *> retries_total_;
    std::vector<util::Counter *> failovers_total_;
    std::vector<util::Histogram *> request_seconds_;
};

} // namespace vtrain

#endif // VTRAIN_SERVE_SWEEP_COORDINATOR_H
