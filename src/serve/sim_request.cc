#include "serve/sim_request.h"

#include <cstdio>

#include "util/hash.h"

namespace vtrain {

namespace {

/**
 * Fingerprint format version.  Bump whenever the set of hashed fields
 * or their encoding changes, so stale cross-process caches can never
 * alias new requests.
 */
constexpr uint64_t kFingerprintVersion = 1;

/** Domain separator: keeps request keys disjoint from other Hash64
 *  users even when the hashed payloads coincide. */
constexpr uint64_t kRequestDomain = 0x76747261696e5251ull; // "vtrainRQ"

} // namespace

uint64_t
SimRequest::fingerprint() const
{
    Hash64 h(kRequestDomain);
    h.mix(kFingerprintVersion);
    hashAppend(h, *this);
    return h.digest();
}

std::string
SimRequest::brief() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %s on %d GPUs [%016llx]",
                  model.name.c_str(), parallel.brief().c_str(),
                  cluster.totalGpus(),
                  static_cast<unsigned long long>(fingerprint()));
    return buf;
}

std::vector<SimRequest>
sweepRequests(const ModelConfig &model, const ClusterSpec &cluster,
              const SimOptions &options,
              const std::vector<ParallelConfig> &plans)
{
    std::vector<SimRequest> requests;
    requests.reserve(plans.size());
    for (const ParallelConfig &plan : plans)
        requests.push_back(SimRequest{model, plan, cluster, options});
    return requests;
}

} // namespace vtrain
