#include "trace.h"

#include <algorithm>
#include <iterator>
#include <string_view>

namespace perfbench {

using namespace localut;

namespace {

/** Spans still open on this thread, innermost last. */
thread_local std::vector<std::pair<const SpanLog*, std::size_t>> tlOpen;

} // namespace

SpanLog::SpanLog() : epoch_(Clock::now()) {}

double
SpanLog::now() const
{
    return secondsSince(epoch_);
}

std::size_t
SpanLog::open(const char* name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.request = request;
    for (auto it = tlOpen.rbegin(); it != tlOpen.rend(); ++it) {
        if (it->first == this) {
            span.parent = static_cast<std::int64_t>(it->second);
            break;
        }
    }
    std::size_t index;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index = spans_.size();
        span.start = now();
        spans_.push_back(span);
    }
    tlOpen.emplace_back(this, index);
    return index;
}

void
SpanLog::close(std::size_t index, std::size_t m, std::size_t n,
               double lookups, double bytes)
{
    const double end = now();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Span& span = spans_[index];
        span.end = end;
        span.m = m;
        span.n = n;
        span.lookups = lookups;
        span.bytes = bytes;
    }
    for (auto it = tlOpen.rbegin(); it != tlOpen.rend(); ++it) {
        if (it->first == this && it->second == index) {
            tlOpen.erase(std::next(it).base());
            break;
        }
    }
}

std::vector<Span>
SpanLog::select(const char* name, double from, double to) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const Span& span : spans_) {
        if (span.end >= span.start && span.start >= from &&
            span.start < to && std::string_view(span.name) == name) {
            out.push_back(span);
        }
    }
    return out;
}

// ------------------------------------------------------ TracingBackend

const BackendCapabilities&
TracingBackend::capabilities() const
{
    return inner_->capabilities();
}

GemmPlan
TracingBackend::plan(const GemmProblem& problem, DesignPoint design,
                     const PlanOverrides& overrides) const
{
    const std::size_t span = log_.open(kSpanPlan);
    GemmPlan plan = inner_->plan(problem, design, overrides);
    log_.close(span, plan.m, plan.n);
    return plan;
}

KernelCost
TracingBackend::chargeCosts(const GemmPlan& plan) const
{
    const std::size_t span = log_.open(kSpanCharge);
    KernelCost cost = inner_->chargeCosts(plan);
    log_.close(span, plan.m, plan.n);
    return cost;
}

GemmResult
TracingBackend::execute(const GemmProblem& problem, const GemmPlan& plan,
                        const ExecOptions& options) const
{
    const bool values = options.computeValues && !problem.w.codes.empty();
    const std::size_t span = log_.open(values ? kSpanExecute : kSpanCharge);
    try {
        GemmResult result = inner_->execute(problem, plan, options);
        const auto [lookups, bytes] =
            values ? planWork(plan) : std::pair<double, double>{0, 0};
        log_.close(span, plan.m, plan.n, lookups, bytes);
        return result;
    } catch (...) {
        log_.close(span, plan.m, plan.n);
        throw;
    }
}

void
TracingBackend::chargeHostOps(double ops, TimingReport& timing,
                              EnergyReport& energy) const
{
    inner_->chargeHostOps(ops, timing, energy);
}

CollectiveLinkProfile
TracingBackend::collectiveProfile() const
{
    return inner_->collectiveProfile();
}

MemoryProfile
TracingBackend::memoryProfile() const
{
    return inner_->memoryProfile();
}

std::uint64_t
TracingBackend::configFingerprint() const
{
    return inner_->configFingerprint();
}

// --------------------------------------------------------------- helpers

std::pair<double, double>
planWork(const GemmPlan& plan)
{
    // Each output element accumulates one table lookup per activation
    // group.  Bytes: the packed weight-index stream at the engine's
    // narrowest width, the activation codes, and the int32 output.
    const double m = static_cast<double>(plan.m);
    const double n = static_cast<double>(plan.n);
    const double k = static_cast<double>(plan.k);
    const double groups = plan.groups;
    const unsigned indexBits = plan.config.weightCodec.bits() * plan.p;
    const double indexBytes = indexBits <= 8 ? 1 : indexBits <= 16 ? 2 : 8;
    const double lookups = m * groups * n;
    const double bytes = m * groups * indexBytes + k * n * 2.0 + m * n * 4.0;
    return {lookups, bytes};
}

namespace {

/** Total length of the union of [start, end) intervals. */
double
unionSeconds(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0;
    double curStart = 0, curEnd = -1e300;
    for (const auto& [start, end] : intervals) {
        if (end <= start) {
            continue;
        }
        if (start > curEnd) {
            if (curEnd > curStart) {
                total += curEnd - curStart;
            }
            curStart = start;
            curEnd = end;
        } else {
            curEnd = std::max(curEnd, end);
        }
    }
    if (curEnd > curStart) {
        total += curEnd - curStart;
    }
    return total;
}

/** Intervals of @p spans, clipped to [@p from, @p to). */
std::vector<std::pair<double, double>>
intervalsOf(const std::vector<Span>& spans, double from, double to)
{
    std::vector<std::pair<double, double>> out;
    out.reserve(spans.size());
    for (const Span& span : spans) {
        const double start = std::max(span.start, from);
        const double end = std::min(span.end, to);
        if (end > start) {
            out.emplace_back(start, end);
        }
    }
    return out;
}

} // namespace

double
busySeconds(const std::vector<Span>& spans)
{
    double total = 0;
    for (const Span& span : spans) {
        total += span.seconds();
    }
    return total;
}

void
reportBackendLayers(const SpanLog& log, double from, double to,
                    double units, unsigned workers,
                    const std::vector<const char*>& sessionSpans,
                    Report& report)
{
    const std::vector<Span> exec = log.select(kSpanExecute, from, to);
    const std::vector<Span> charge = log.select(kSpanCharge, from, to);
    const std::vector<Span> plans = log.select(kSpanPlan, from, to);
    const double per = units > 0 ? 1.0 / units : 0.0;

    double lookups = 0, bytes = 0;
    for (const Span& span : exec) {
        lookups += span.lookups;
        bytes += span.bytes;
    }
    report.set("exec.kernel_ms", 1e3 * busySeconds(exec) * per);
    report.set("exec.kernel_calls", static_cast<double>(exec.size()) * per);
    report.set("exec.lookups", lookups * per);
    report.set("exec.bytes", bytes * per);

    report.set("backend.charge_us",
               charge.empty() ? 0.0
                              : 1e6 * busySeconds(charge) /
                                    static_cast<double>(charge.size()));
    report.set("backend.charge_calls",
               static_cast<double>(charge.size()) * per);
    report.set("backend.plan_ms", 1e3 * busySeconds(plans) * per);

    // Session self time: wall time inside the benchmark's calls into the
    // serving layer that no backend span covers.
    std::vector<Span> outer;
    for (const char* name : sessionSpans) {
        const std::vector<Span> spans = log.select(name, from, to);
        outer.insert(outer.end(), spans.begin(), spans.end());
    }
    const auto outerIntervals = intervalsOf(outer, from, to);
    const double outerSeconds = unionSeconds(outerIntervals);
    std::vector<std::pair<double, double>> inner;
    for (const std::vector<Span>* spans : {&exec, &charge, &plans}) {
        for (const auto& [start, end] : intervalsOf(*spans, from, to)) {
            // Clip each backend interval to the session intervals.
            for (const auto& [os, oe] : outerIntervals) {
                const double s = std::max(start, os);
                const double e = std::min(end, oe);
                if (e > s) {
                    inner.emplace_back(s, e);
                }
            }
        }
    }
    report.set("session.overhead_ms",
               1e3 * (outerSeconds - unionSeconds(inner)) * per);
    const double wall = to - from;
    report.set("session.busy_share",
               wall > 0 && workers > 0
                   ? busySeconds(exec) / (wall * workers)
                   : 0.0);
}

void
reportPlanCache(const PlanCache::Stats& before, const PlanCache::Stats& after,
                Report& report)
{
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
        return hits + misses == 0 ? 0.0
                                  : static_cast<double>(hits) /
                                        static_cast<double>(hits + misses);
    };
    report.set("plan_cache.plan_hit_ratio",
               ratio(after.hits - before.hits, after.misses - before.misses));
    report.set("plan_cache.prepared_hit_ratio",
               ratio(after.preparedHits - before.preparedHits,
                     after.preparedMisses - before.preparedMisses));
    report.set("plan_cache.prepared_bytes",
               static_cast<double>(after.preparedBytes));
}

void
reportResidency(const ResidencyStats& stats, Report& report)
{
    report.set("residency.hit_ratio", stats.hitRate());
    report.set("residency.evictions", static_cast<double>(stats.evictions));
    report.set("residency.rebroadcasts",
               static_cast<double>(stats.rebroadcasts));
    report.set("residency.kv_spills", static_cast<double>(stats.kvSpills));
    report.set("residency.kv_refills", static_cast<double>(stats.kvRefills));
    report.set("residency.broadcast_s", stats.broadcastSeconds);
    report.set("residency.kv_s", stats.kvMovedSeconds);
}

} // namespace perfbench
