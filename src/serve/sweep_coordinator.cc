#include "serve/sweep_coordinator.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "serve/sim_service.h"
#include "serve/wire.h"
#include "sim/simulator.h"
#include "util/hash.h"
#include "util/logging.h"

namespace vtrain {

namespace {

/** Domain tags keeping ring positions and fallback keys disjoint
 *  from each other and from every other Hash64 stream. */
constexpr uint64_t kRingSeed = 0x76745357726e67ull;     // "vtSWrng"
constexpr uint64_t kFallbackSeed = 0x76745357666c62ull; // "vtSWflb"

/** Ring positions per shard (more = smoother partitions). */
constexpr int kVirtualNodes = 64;

/** TCP connect deadline per dial. */
constexpr int kConnectTimeoutMs = 5000;

} // namespace

SweepCoordinator::Shard::Shard(net::HttpClient::Options options)
    : client(std::move(options))
{
}

SweepCoordinator::SweepCoordinator(Options options)
    : options_(std::move(options))
{
    VTRAIN_REQUIRE(!options_.shards.empty(),
                   "SweepCoordinator needs at least one shard "
                   "endpoint");
    VTRAIN_REQUIRE(options_.max_attempts >= 1,
                   "max_attempts must be at least 1");
    endpoints_ = options_.shards;
    counters_.resize(endpoints_.size());
    ring_.reserve(endpoints_.size() * kVirtualNodes);

    util::MetricRegistry &registry = util::MetricRegistry::global();
    for (size_t s = 0; s < endpoints_.size(); ++s) {
        const std::string label = endpoints_[s].label();

        net::HttpClient::Options client;
        client.host = endpoints_[s].host;
        client.port = endpoints_[s].port;
        client.timeout_ms = options_.io_timeout_ms;
        client.connect_timeout_ms = kConnectTimeoutMs;
        client.fault_injector = options_.fault_injector;
        shards_.push_back(std::make_unique<Shard>(std::move(client)));

        for (int replica = 0; replica < kVirtualNodes; ++replica) {
            const uint64_t position = Hash64(kRingSeed)
                                          .mix(std::string_view(label))
                                          .mix(int64_t{replica})
                                          .digest();
            ring_.emplace_back(position, s);
        }

        requests_total_.push_back(registry.counter(
            "vtrain_sweep_shard_requests_total", {{"shard", label}},
            "Sweep slice requests sent to the named shard."));
        retries_total_.push_back(registry.counter(
            "vtrain_sweep_shard_retries_total", {{"shard", label}},
            "Transient-failure re-sends to the named shard."));
        failovers_total_.push_back(registry.counter(
            "vtrain_sweep_shard_failovers_total", {{"shard", label}},
            "Plans re-routed away from the named shard after it "
            "died."));
        request_seconds_.push_back(registry.histogram(
            "vtrain_sweep_shard_request_seconds", {{"shard", label}},
            "Latency of sweep slice requests to the named shard."));
    }
    std::sort(ring_.begin(), ring_.end());
}

SweepCoordinator::~SweepCoordinator() = default;

uint64_t
SweepCoordinator::routingKey(const SimRequest &request)
{
    // The structural group key keeps every member of a batched-replay
    // group on one shard (one template build, one K-wide engine pass,
    // warm caches).  Unbatchable plans spread by fingerprint.
    const uint64_t group =
        batchGroupKey(request.model, request.parallel, request.cluster,
                      request.options);
    if (group != 0)
        return group;
    return Hash64(kFallbackSeed).mix(request.fingerprint()).digest();
}

size_t
SweepCoordinator::shardForKey(uint64_t key,
                              const std::vector<bool> &dead) const
{
    const auto alive = [&](size_t shard) {
        return shard >= dead.size() || !dead[shard];
    };
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(key, size_t{0}));
    // Clockwise walk: the first alive node at or after the key owns
    // it, so removing a shard only moves that shard's keys.
    for (size_t step = 0; step < ring_.size(); ++step, ++it) {
        if (it == ring_.end())
            it = ring_.begin();
        if (alive(it->second))
            return it->second;
    }
    return shards_.size();
}

std::vector<ExploreResult>
SweepCoordinator::sweep(const std::vector<SimRequest> &requests,
                        uint64_t deadline_ns)
{
    std::vector<ExploreResult> results(requests.size());
    if (requests.empty())
        return results;
    const SimRequest &first = requests.front();
    VTRAIN_REQUIRE(first.options.perturber == nullptr,
                   "sweeps carrying a perturber are process-local and "
                   "cannot be distributed");
    for (const SimRequest &request : requests)
        VTRAIN_REQUIRE(request.model == first.model &&
                           request.cluster == first.cluster &&
                           request.options == first.options,
                       "a distributed sweep's requests must share one "
                       "(model, cluster, options)");

    std::vector<uint64_t> keys(requests.size());
    std::unordered_set<uint64_t> distinct_groups;
    for (size_t i = 0; i < requests.size(); ++i) {
        keys[i] = routingKey(requests[i]);
        distinct_groups.insert(keys[i]);
    }

    // Dead marks are per sweep: the next sweep() re-dials everyone.
    std::vector<bool> dead(shards_.size(), false);
    std::vector<size_t> pending(requests.size());
    for (size_t i = 0; i < pending.size(); ++i)
        pending[i] = i;

    while (!pending.empty()) {
        if (deadline_ns != 0 && util::monotonicNanos() >= deadline_ns)
            throw DeadlineExceeded();
        std::vector<std::vector<size_t>> slices(shards_.size());
        for (const size_t i : pending) {
            const size_t shard = shardForKey(keys[i], dead);
            if (shard >= shards_.size())
                throw std::runtime_error(
                    "distributed sweep failed: every shard is dead");
            slices[shard].push_back(i);
        }

        struct SliceReport {
            SliceOutcome outcome = SliceOutcome::Done;
            std::string error;
        };
        std::vector<SliceReport> reports(shards_.size());

        // One dispatch thread per shard with work this round; each
        // writes only its own report and its slice's (disjoint)
        // result slots.
        std::vector<std::thread> workers;
        for (size_t shard = 0; shard < shards_.size(); ++shard) {
            if (slices[shard].empty())
                continue;
            workers.emplace_back([this, shard, deadline_ns, &slices,
                                  &requests, &results, &reports] {
                reports[shard].outcome =
                    runSlice(shard, slices[shard], requests,
                             deadline_ns, &results,
                             &reports[shard].error);
            });
        }
        for (std::thread &worker : workers)
            worker.join();

        std::vector<size_t> next;
        for (size_t shard = 0; shard < shards_.size(); ++shard) {
            if (slices[shard].empty())
                continue;
            switch (reports[shard].outcome) {
              case SliceOutcome::Done:
                break;
              case SliceOutcome::Fatal:
                throw std::runtime_error(
                    "distributed sweep failed on shard " +
                    endpoints_[shard].label() + ": " +
                    reports[shard].error);
              case SliceOutcome::Expired:
                throw DeadlineExceeded();
              case SliceOutcome::ShardDown: {
                // Deterministic failover: mark the shard dead and let
                // the ring route its plans to the next alive node.
                // Re-execution there cannot double-count — results
                // merge by plan index.
                dead[shard] = true;
                next.insert(next.end(), slices[shard].begin(),
                            slices[shard].end());
                failovers_total_[shard]->inc(slices[shard].size());
                util::MutexLock lock(stats_mutex_);
                counters_[shard].failovers += slices[shard].size();
                break;
              }
            }
        }
        pending = std::move(next);
    }

    util::MutexLock lock(stats_mutex_);
    ++sweeps_;
    plans_ += requests.size();
    groups_ += distinct_groups.size();
    return results;
}

SweepCoordinator::SliceOutcome
SweepCoordinator::runSlice(size_t shard_index,
                           const std::vector<size_t> &indices,
                           const std::vector<SimRequest> &requests,
                           uint64_t deadline_ns,
                           std::vector<ExploreResult> *results,
                           std::string *error)
{
    // One slice = one /v1/sweep body: the shared triple plus this
    // shard's plans, in merge order.  The body is re-encoded per
    // attempt because the wire deadline_ms carries the *remaining*
    // budget, which shrinks across retries.
    wire::v1::SweepRequest sweep_request;
    const SimRequest &first = requests[indices.front()];
    sweep_request.model = first.model;
    sweep_request.cluster = first.cluster;
    sweep_request.options = first.options;
    sweep_request.plans.reserve(indices.size());
    for (const size_t i : indices)
        sweep_request.plans.push_back(requests[i].parallel);

    Shard &shard = *shards_[shard_index];
    double backoff_ms = options_.backoff_initial_ms;
    int64_t retry_after_hint_ms = -1;
    for (int attempt = 1; attempt <= options_.max_attempts; ++attempt) {
        if (attempt > 1) {
            retries_total_[shard_index]->inc();
            {
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].retries;
            }
            // The shard's own Retry-After hint stretches (never
            // shrinks) the exponential schedule; the growth cap stays
            // whatever the exponential series dictates.
            double sleep_ms = backoff_ms;
            if (retry_after_hint_ms > static_cast<int64_t>(sleep_ms))
                sleep_ms = static_cast<double>(retry_after_hint_ms);
            retry_after_hint_ms = -1;
            if (deadline_ns != 0) {
                const uint64_t now_ns = util::monotonicNanos();
                if (now_ns >= deadline_ns) {
                    *error = "sweep deadline expired during backoff";
                    util::MutexLock lock(stats_mutex_);
                    ++counters_[shard_index].failures;
                    return SliceOutcome::Expired;
                }
                const double remaining_ms = static_cast<double>(
                    (deadline_ns - now_ns) / 1000000ull);
                sleep_ms = std::min(sleep_ms, remaining_ms);
            }
            if (sleep_ms >= 1.0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        static_cast<int64_t>(sleep_ms)));
            backoff_ms *= 2.0;
        }

        int request_timeout_ms = -1; // -1 = client default
        if (deadline_ns != 0) {
            const uint64_t now_ns = util::monotonicNanos();
            if (now_ns >= deadline_ns) {
                *error = "sweep deadline expired";
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].failures;
                return SliceOutcome::Expired;
            }
            const int64_t remaining_ms = static_cast<int64_t>(
                (deadline_ns - now_ns + 999999ull) / 1000000ull);
            sweep_request.deadline_ms = remaining_ms;
            request_timeout_ms = static_cast<int>(std::min(
                remaining_ms,
                static_cast<int64_t>(
                    std::numeric_limits<int>::max())));
        }
        const std::string body =
            wire::v1::encode(sweep_request).dump();

        requests_total_[shard_index]->inc();
        {
            util::MutexLock lock(stats_mutex_);
            ++counters_[shard_index].requests;
        }

        net::HttpResponse response;
        net::ClientError client_error;
        const auto start = std::chrono::steady_clock::now();
        bool transferred;
        {
            util::MutexLock lock(shard.mutex);
            transferred = shard.client.request(
                "POST", "/v1/sweep", body, &response, &client_error,
                request_timeout_ms);
        }
        request_seconds_[shard_index]->record(
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());

        if (!transferred) {
            *error = client_error.message;
            switch (client_error.kind) {
              case net::ClientErrorKind::ConnectRefused:
              case net::ClientErrorKind::ConnectFailed: {
                // Nothing is listening; retrying the same address
                // wastes the failover budget.
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].failures;
                return SliceOutcome::ShardDown;
              }
              case net::ClientErrorKind::Protocol: {
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].failures;
                return SliceOutcome::Fatal;
              }
              default:
                // Timeout / Closed / SendFailed: transient; the
                // client already dropped the connection, so the next
                // attempt re-dials.  Re-sending cannot double-count:
                // shards compute pure fingerprint-keyed results and
                // the merge writes by plan index.
                continue;
            }
        }

        if (response.status == 200) {
            std::vector<ExploreResult> decoded;
            std::string decode_error;
            if (!wire::v1::decodeSweepResponse(response.body, &decoded,
                                               &decode_error)) {
                *error = "bad sweep response: " + decode_error;
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].failures;
                return SliceOutcome::Fatal;
            }
            if (decoded.size() != indices.size()) {
                *error = "sweep response carries " +
                         std::to_string(decoded.size()) +
                         " results for " +
                         std::to_string(indices.size()) + " plans";
                util::MutexLock lock(stats_mutex_);
                ++counters_[shard_index].failures;
                return SliceOutcome::Fatal;
            }
            for (size_t k = 0; k < indices.size(); ++k)
                (*results)[indices[k]] = std::move(decoded[k]);
            util::MutexLock lock(stats_mutex_);
            counters_[shard_index].plans += indices.size();
            return SliceOutcome::Done;
        }
        *error = "shard answered HTTP " +
                 std::to_string(response.status);
        if (response.status == 429 || response.status == 502 ||
            response.status == 503 || response.status == 504) {
            // Transient (RFC 9110 §15.6 / a shard shedding load):
            // retry with backoff, honoring any Retry-After seconds
            // the shard attached.
            const int hint_s = net::retryAfterSeconds(response);
            if (hint_s >= 0)
                retry_after_hint_ms =
                    static_cast<int64_t>(hint_s) * 1000;
            continue;
        }
        // Any other status is a request the shard understood and
        // rejected (bad wire payload, invalid plan): re-sending or
        // re-routing the same bytes cannot succeed.
        util::MutexLock lock(stats_mutex_);
        ++counters_[shard_index].failures;
        return SliceOutcome::Fatal;
    }

    // Transient retries exhausted: treat the shard as dead and let
    // the caller fail its plans over to the next ring node.
    {
        util::MutexLock lock(stats_mutex_);
        ++counters_[shard_index].failures;
    }
    return SliceOutcome::ShardDown;
}

SweepCoordinatorStats
SweepCoordinator::stats() const
{
    SweepCoordinatorStats stats;
    util::MutexLock lock(stats_mutex_);
    stats.sweeps = sweeps_;
    stats.plans = plans_;
    stats.groups = groups_;
    stats.shards.reserve(endpoints_.size());
    for (size_t s = 0; s < endpoints_.size(); ++s) {
        SweepShardStats shard;
        shard.shard = endpoints_[s].label();
        shard.requests = counters_[s].requests;
        shard.plans = counters_[s].plans;
        shard.retries = counters_[s].retries;
        shard.failures = counters_[s].failures;
        shard.failovers = counters_[s].failovers;
        stats.retries += shard.retries;
        stats.failovers += shard.failovers;
        stats.shards.push_back(std::move(shard));
    }
    return stats;
}

} // namespace vtrain
