#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory spans recorded around the benchmark's own calls into the
 * library's public functions, plus a forwarding Backend that times
 * plan / chargeCosts / execute on the session's worker threads.  No
 * tracing lives inside the library: the traced run sees each layer
 * only at its public boundary.
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

/** One timed interval. */
struct Span {
    const char* name = "";  ///< static string, e.g. "exec.execute"
    double start = 0;       ///< seconds since the log's epoch
    double end = -1;        ///< < start while the span is open
    std::int64_t parent = -1; ///< index of the enclosing span; -1 = none
    std::uint64_t request = 0; ///< request id the span belongs to (0 = n/a)
    std::size_t m = 0, n = 0;  ///< GEMM shape (backend spans)
    double lookups = 0;        ///< LUT lookups computed from the plan
    double bytes = 0;          ///< operand bytes computed from the plan

    double seconds() const { return end - start; }
};

/**
 * Thread-safe span store.  The parent of a span is the innermost span
 * still open on the same thread, so worker-thread spans (backend calls)
 * have no parent and are attributed to benchmark spans by time.
 */
class SpanLog
{
  public:
    SpanLog();
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    /** Seconds since this log's epoch. */
    double now() const;
    /** Opens a span on the calling thread; returns its index. */
    std::size_t open(const char* name, std::uint64_t request = 0);
    /** Closes span @p index, attaching plan-derived work counts. */
    void close(std::size_t index, std::size_t m = 0, std::size_t n = 0,
               double lookups = 0, double bytes = 0);
    /** Every span whose name is @p name and that started in
     * [@p from, @p to). */
    std::vector<Span> select(const char* name, double from, double to) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_
};

/** RAII span; a null log makes it a no-op (the untraced run). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, const char* name, std::uint64_t request = 0)
        : log_(log), index_(log ? log->open(name, request) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            log_->close(index_);
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog* log_;
    std::size_t index_;
};

/**
 * Forwards every Backend call to the wrapped backend and records a span
 * around plan(), chargeCosts() and execute().  The interface is fully
 * virtual, so the session drives this exactly like the real backend:
 * same name, same fingerprint, same plans and values.
 */
class TracingBackend final : public localut::Backend
{
  public:
    TracingBackend(localut::BackendPtr inner, SpanLog& log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    using localut::Backend::execute;

    const localut::BackendCapabilities& capabilities() const override;
    localut::GemmPlan plan(const localut::GemmProblem& problem,
                           localut::DesignPoint design,
                           const localut::PlanOverrides& overrides) const
        override;
    localut::KernelCost chargeCosts(const localut::GemmPlan& plan) const
        override;
    localut::GemmResult execute(const localut::GemmProblem& problem,
                                const localut::GemmPlan& plan,
                                const localut::ExecOptions& options) const
        override;
    void chargeHostOps(double ops, localut::TimingReport& timing,
                       localut::EnergyReport& energy) const override;
    localut::CollectiveLinkProfile collectiveProfile() const override;
    localut::MemoryProfile memoryProfile() const override;
    std::uint64_t configFingerprint() const override;

  private:
    localut::BackendPtr inner_;
    SpanLog& log_;
};

/** Span names the forwarding backend records. */
inline constexpr const char* kSpanExecute = "exec.execute"; ///< with values
inline constexpr const char* kSpanCharge = "backend.charge"; ///< no values
inline constexpr const char* kSpanPlan = "backend.plan";

/** LUT lookups and operand bytes one execution of @p plan performs. */
std::pair<double, double> planWork(const localut::GemmPlan& plan);

/** Sum of span durations. */
double busySeconds(const std::vector<Span>& spans);

/**
 * Layer metrics every traced workload derives the same way from its
 * measured window [@p from, @p to) of @p units work units: exec.*,
 * backend.*, session.* (over the @p sessionSpans names), with
 * @p workers session threads.
 */
void reportBackendLayers(const SpanLog& log, double from, double to,
                         double units, unsigned workers,
                         const std::vector<const char*>& sessionSpans,
                         Report& report);

/** plan_cache.* from the counters before and after the window. */
void reportPlanCache(const localut::PlanCache::Stats& before,
                     const localut::PlanCache::Stats& after,
                     Report& report);

/** residency.* from a session's counters. */
void reportResidency(const localut::ResidencyStats& stats, Report& report);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H_
