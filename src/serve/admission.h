/**
 * @file
 * Multi-tenant admission control for the serve stack.
 *
 * A burst of cold-cache sweeps must not be able to queue unboundedly
 * and starve every other caller, so work is admitted — or shed with a
 * structured 429 and a Retry-After hint — before it touches the
 * compute pool.  Identity comes from the X-Api-Key header mapped
 * through a configurable TenantTable (requests without a key share
 * the default tenant); each tenant gets a token-bucket rate limit and
 * a max-inflight quota, and a bounded global inflight cap sheds load
 * across all tenants when the whole process is saturated.
 *
 * Decisions are O(1) under one mutex; the clock is injectable so rate
 * behaviour is testable without sleeping.  Every outcome lands on the
 * registry (vtrain_admission_{admitted,shed,expired}_total per
 * tenant) and in stats() for the /statz "tenants" block, so admitted
 * + shed always accounts for every /v1 request the frontend saw.
 */
#ifndef VTRAIN_SERVE_ADMISSION_H
#define VTRAIN_SERVE_ADMISSION_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace vtrain {

/** One tenant's identity and limits. */
struct TenantConfig {
    std::string name = "default";

    /** Token-bucket refill rate in requests/second (0 = unlimited). */
    double rate_per_sec = 0.0;

    /** Bucket capacity; 0 defaults to max(rate_per_sec, 1). */
    double burst = 0.0;

    /** Requests in flight at once for this tenant (0 = unlimited). */
    uint64_t max_inflight = 0;
};

/** The tenant configuration: API keys plus the keyless default. */
struct TenantTable {
    /** Requests without an X-Api-Key header. */
    TenantConfig default_tenant;

    /** X-Api-Key value -> tenant; unknown keys are rejected. */
    std::map<std::string, TenantConfig> by_api_key;
};

class AdmissionController;

/**
 * RAII inflight slot: while alive the request counts against its
 * tenant's and the global inflight limits; the destructor releases
 * both.  Default-constructed tickets hold nothing.
 */
class AdmissionTicket
{
  public:
    AdmissionTicket() = default;
    AdmissionTicket(AdmissionTicket &&other) noexcept;
    AdmissionTicket &operator=(AdmissionTicket &&other) noexcept;
    ~AdmissionTicket();

    AdmissionTicket(const AdmissionTicket &) = delete;
    AdmissionTicket &operator=(const AdmissionTicket &) = delete;

    bool held() const { return controller_ != nullptr; }

    void release();

  private:
    friend class AdmissionController;
    AdmissionTicket(AdmissionController *controller, size_t tenant)
        : controller_(controller), tenant_(tenant)
    {
    }

    AdmissionController *controller_ = nullptr;
    size_t tenant_ = 0;
};

/** The outcome of one admission attempt. */
struct AdmissionDecision {
    bool admitted = false;

    /** The X-Api-Key was not in the table (answer 401, not 429). */
    bool unknown_key = false;

    /** Resolved tenant name ("" for unknown keys). */
    std::string tenant;

    /** Tenant index for recordExpired(); valid when !unknown_key. */
    size_t tenant_index = 0;

    /** Why the request was shed: "auth", "rate", "inflight", "queue". */
    std::string reason;

    /** Suggested Retry-After seconds when shed (>= 1). */
    int retry_after_s = 1;

    /** Holds the inflight slot while the request runs (admitted only). */
    AdmissionTicket ticket;
};

/** Per-tenant quota enforcement; see the file comment. */
class AdmissionController
{
  public:
    struct Options {
        TenantTable tenants;

        /** Requests in flight across all tenants (0 = unlimited). */
        uint64_t max_global_inflight = 0;

        /** Monotonic clock in ns; null = util::monotonicNanos (tests
         *  inject a fake clock to step token buckets without
         *  sleeping). */
        std::function<uint64_t()> clock_ns;
    };

    explicit AdmissionController(Options options);

    AdmissionController(const AdmissionController &) = delete;
    AdmissionController &operator=(const AdmissionController &) = delete;

    /**
     * Decides one request.  `api_key` is the X-Api-Key header value
     * (null or empty = the default tenant).  When admitted, the
     * returned ticket must stay alive for the duration of the work.
     */
    AdmissionDecision admit(const std::string *api_key)
        EXCLUDES(mutex_);

    /**
     * Records a deadline-expired request for the tenant (the request
     * was admitted or shed already; expired is a separate outcome
     * dimension, not part of the admitted+shed partition).
     */
    void recordExpired(size_t tenant_index) EXCLUDES(mutex_);

    /** One tenant's /statz snapshot. */
    struct TenantStats {
        std::string tenant;
        uint64_t admitted = 0;
        uint64_t shed_rate = 0;     //!< token bucket empty
        uint64_t shed_inflight = 0; //!< tenant max_inflight reached
        uint64_t shed_queue = 0;    //!< global inflight cap reached
        uint64_t shed_auth = 0;     //!< unknown API key (default
                                    //!< tenant row only)
        uint64_t expired = 0;       //!< deadline expired
        uint64_t inflight = 0;      //!< currently running
    };

    /** Snapshot of every tenant, default tenant first. */
    std::vector<TenantStats> stats() const EXCLUDES(mutex_);

  private:
    friend class AdmissionTicket;

    struct TenantState {
        TenantConfig config;
        double tokens = 0.0;
        uint64_t last_refill_ns = 0;
        uint64_t inflight = 0;
        uint64_t admitted = 0;
        uint64_t shed_rate = 0;
        uint64_t shed_inflight = 0;
        uint64_t shed_queue = 0;
        uint64_t shed_auth = 0;
        uint64_t expired = 0;

        // Registry counters, resolved once at construction.
        util::Counter *admitted_total = nullptr;
        util::Counter *shed_rate_total = nullptr;
        util::Counter *shed_inflight_total = nullptr;
        util::Counter *shed_queue_total = nullptr;
        util::Counter *shed_auth_total = nullptr;
        util::Counter *expired_total = nullptr;
        util::Gauge *inflight_gauge = nullptr;
    };

    void release(size_t tenant_index) EXCLUDES(mutex_);
    uint64_t now() const;

    Options options_;
    mutable util::Mutex mutex_;
    std::vector<TenantState> tenants_ GUARDED_BY(mutex_);
    uint64_t global_inflight_ GUARDED_BY(mutex_) = 0;

    /** X-Api-Key -> tenants_ index; immutable after construction. */
    std::unordered_map<std::string, size_t> by_key_;
};

} // namespace vtrain

#endif // VTRAIN_SERVE_ADMISSION_H
