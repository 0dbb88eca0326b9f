#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vtrain {

namespace {

/** ceil(x) clamped to [1, 3600] for a Retry-After hint. */
int
retryAfterHint(double seconds)
{
    const double ceiled = std::ceil(seconds);
    if (ceiled < 1.0)
        return 1;
    if (ceiled > 3600.0)
        return 3600;
    return static_cast<int>(ceiled);
}

} // namespace

AdmissionTicket::AdmissionTicket(AdmissionTicket &&other) noexcept
    : controller_(other.controller_), tenant_(other.tenant_)
{
    other.controller_ = nullptr;
}

AdmissionTicket &
AdmissionTicket::operator=(AdmissionTicket &&other) noexcept
{
    if (this != &other) {
        release();
        controller_ = other.controller_;
        tenant_ = other.tenant_;
        other.controller_ = nullptr;
    }
    return *this;
}

AdmissionTicket::~AdmissionTicket()
{
    release();
}

void
AdmissionTicket::release()
{
    if (controller_ != nullptr) {
        controller_->release(tenant_);
        controller_ = nullptr;
    }
}

AdmissionController::AdmissionController(Options options)
    : options_(std::move(options))
{
    util::MetricRegistry &registry = util::MetricRegistry::global();

    auto add_tenant = [this, &registry](const TenantConfig &config) {
        TenantState state;
        state.config = config;
        state.tokens = config.burst > 0.0
                           ? config.burst
                           : std::max(config.rate_per_sec, 1.0);
        state.last_refill_ns = now();
        const util::MetricLabels labels{{"tenant", config.name}};
        state.admitted_total = registry.counter(
            "vtrain_admission_admitted_total", labels,
            "Requests admitted past admission control, by tenant.");
        state.shed_rate_total = registry.counter(
            "vtrain_admission_shed_total",
            {{"tenant", config.name}, {"reason", "rate"}},
            "Requests shed by admission control, by tenant and "
            "reason.");
        state.shed_inflight_total = registry.counter(
            "vtrain_admission_shed_total",
            {{"tenant", config.name}, {"reason", "inflight"}},
            "Requests shed by admission control, by tenant and "
            "reason.");
        state.shed_queue_total = registry.counter(
            "vtrain_admission_shed_total",
            {{"tenant", config.name}, {"reason", "queue"}},
            "Requests shed by admission control, by tenant and "
            "reason.");
        state.shed_auth_total = registry.counter(
            "vtrain_admission_shed_total",
            {{"tenant", config.name}, {"reason", "auth"}},
            "Requests shed by admission control, by tenant and "
            "reason.");
        state.expired_total = registry.counter(
            "vtrain_admission_expired_total", labels,
            "Requests whose deadline expired before or during "
            "compute, by tenant.");
        state.inflight_gauge = registry.gauge(
            "vtrain_admission_inflight", labels,
            "Admitted requests currently in flight, by tenant.");
        util::MutexLock lock(mutex_);
        tenants_.push_back(std::move(state));
        return tenants_.size() - 1;
    };

    add_tenant(options_.tenants.default_tenant); // index 0
    for (const auto &[key, config] : options_.tenants.by_api_key)
        by_key_.emplace(key, add_tenant(config));
}

uint64_t
AdmissionController::now() const
{
    return options_.clock_ns ? options_.clock_ns()
                             : util::monotonicNanos();
}

AdmissionDecision
AdmissionController::admit(const std::string *api_key)
{
    AdmissionDecision decision;
    size_t index = 0;
    if (api_key != nullptr && !api_key->empty()) {
        const auto it = by_key_.find(*api_key);
        if (it == by_key_.end()) {
            decision.unknown_key = true;
            decision.reason = "auth";
            util::MutexLock lock(mutex_);
            // Attributed to the default tenant's row: the key names
            // no tenant, but the rejection must still be counted.
            ++tenants_[0].shed_auth;
            tenants_[0].shed_auth_total->inc();
            return decision;
        }
        index = it->second;
    }

    util::MutexLock lock(mutex_);
    TenantState &tenant = tenants_[index];
    decision.tenant = tenant.config.name;
    decision.tenant_index = index;

    // Refill the token bucket for the elapsed time, then decide.
    if (tenant.config.rate_per_sec > 0.0) {
        const uint64_t at = now();
        const double burst =
            tenant.config.burst > 0.0
                ? tenant.config.burst
                : std::max(tenant.config.rate_per_sec, 1.0);
        const double elapsed_s =
            static_cast<double>(at - tenant.last_refill_ns) * 1e-9;
        tenant.tokens =
            std::min(burst, tenant.tokens +
                                elapsed_s * tenant.config.rate_per_sec);
        tenant.last_refill_ns = at;
        if (tenant.tokens < 1.0) {
            ++tenant.shed_rate;
            tenant.shed_rate_total->inc();
            decision.reason = "rate";
            decision.retry_after_s = retryAfterHint(
                (1.0 - tenant.tokens) / tenant.config.rate_per_sec);
            return decision;
        }
    }
    if (tenant.config.max_inflight > 0 &&
        tenant.inflight >= tenant.config.max_inflight) {
        ++tenant.shed_inflight;
        tenant.shed_inflight_total->inc();
        decision.reason = "inflight";
        return decision;
    }
    if (options_.max_global_inflight > 0 &&
        global_inflight_ >= options_.max_global_inflight) {
        ++tenant.shed_queue;
        tenant.shed_queue_total->inc();
        decision.reason = "queue";
        return decision;
    }

    if (tenant.config.rate_per_sec > 0.0)
        tenant.tokens -= 1.0;
    ++tenant.inflight;
    ++global_inflight_;
    ++tenant.admitted;
    tenant.admitted_total->inc();
    tenant.inflight_gauge->add(1);
    decision.admitted = true;
    decision.ticket = AdmissionTicket(this, index);
    return decision;
}

void
AdmissionController::release(size_t tenant_index)
{
    util::MutexLock lock(mutex_);
    TenantState &tenant = tenants_[tenant_index];
    if (tenant.inflight > 0)
        --tenant.inflight;
    if (global_inflight_ > 0)
        --global_inflight_;
    tenant.inflight_gauge->sub(1);
}

void
AdmissionController::recordExpired(size_t tenant_index)
{
    util::MutexLock lock(mutex_);
    TenantState &tenant = tenants_[tenant_index];
    ++tenant.expired;
    tenant.expired_total->inc();
}

std::vector<AdmissionController::TenantStats>
AdmissionController::stats() const
{
    std::vector<TenantStats> out;
    util::MutexLock lock(mutex_);
    out.reserve(tenants_.size());
    for (const TenantState &tenant : tenants_) {
        TenantStats stats;
        stats.tenant = tenant.config.name;
        stats.admitted = tenant.admitted;
        stats.shed_rate = tenant.shed_rate;
        stats.shed_inflight = tenant.shed_inflight;
        stats.shed_queue = tenant.shed_queue;
        stats.shed_auth = tenant.shed_auth;
        stats.expired = tenant.expired;
        stats.inflight = tenant.inflight;
        out.push_back(std::move(stats));
    }
    return out;
}

} // namespace vtrain
