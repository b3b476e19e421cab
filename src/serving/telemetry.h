#ifndef LOCALUT_SERVING_TELEMETRY_H_
#define LOCALUT_SERVING_TELEMETRY_H_

/**
 * @file
 * Serving telemetry: streaming latency histograms and request counters
 * for the SLO-aware scheduler (serving/scheduler.h).
 *
 * Latencies in this layer are *modeled* (virtual-time) seconds — the
 * same units as every TimingReport in the repository — so the numbers a
 * load test produces are properties of the device model and the
 * scheduling policy, not of the wall clock of the simulating host.  A
 * LatencyHistogram keeps log-spaced buckets (~26% growth over
 * 1 ns..10^4 s), which makes streaming p50/p95/p99 queries O(buckets)
 * and the reported quantile *bounds* stable under sub-bucket model
 * drift — the property tests/test_golden_costs.cc freezes.
 *
 * Telemetry aggregates per-lane (interactive vs batch) histograms of
 * end-to-end latency, queue delay, and service time, admission-outcome
 * counters, deadline hit/miss counters, and accumulated collective /
 * LUT-broadcast seconds.  prometheusText() renders the whole thing in
 * the Prometheus text exposition format, so a serving loop can be
 * scraped (or just printed) without any dependency.
 */

#include <array>
#include <cstdint>
#include <mutex>
#include <string>

#include "serving/fault.h"

namespace localut {

/**
 * The request priority lanes the scheduler serves.  Prefill and Decode
 * are the token engine's disaggregated lanes (serving/token_engine.h):
 * decode steps carry per-token deadlines and outrank everything
 * (a stalled decode stream stalls a live conversation), prefill is a
 * throughput lane slotted between interactive and batch.  Values are
 * appended so Interactive/Batch indices stay stable.
 */
enum class DeadlineClass {
    Interactive, ///< latency-sensitive lane
    Batch,       ///< throughput lane, served when others are idle
    Prefill,     ///< token-engine prompt ingestion (TTFT throughput lane)
    Decode,      ///< token-engine decode steps (per-token deadlines)
};

/** Number of DeadlineClass lanes (array sizing). */
inline constexpr std::size_t kDeadlineClasses = 4;

/** Lane name for reports ("interactive" / "batch" / "prefill" /
 * "decode"). */
const char* deadlineClassName(DeadlineClass lane);

/**
 * Dispatch priority of @p lane (lower serves first): Decode (0) <
 * Interactive (1) < Prefill (2) < Batch (3).  Distinct from the enum's
 * declaration order, which is frozen for index stability.
 */
unsigned deadlineClassPriority(DeadlineClass lane);

/** What the scheduler decided to do with a submitted request. */
enum class AdmissionOutcome {
    Admitted,         ///< placed on a rank; will execute
    ShedDeadline,     ///< shed: the deadline cannot be met (SLO policy)
    RejectedSaturated,///< rejected: every rank queue is at its bound
    ShedFault,        ///< shed: rank faults left no live capacity for it
};

/** Outcome name for reports ("admitted" / "shed_deadline" / ...). */
const char* admissionOutcomeName(AdmissionOutcome outcome);

/**
 * A fixed-bucket streaming latency histogram over modeled seconds.
 * Buckets are log-spaced (kBucketsPerDecade per power of ten) from
 * kMinSeconds up to kMaxSeconds, with one overflow bucket above; the
 * growth factor (~26%) bounds the quantile error.  Not internally
 * locked — Telemetry serializes access.
 */
class LatencyHistogram
{
  public:
    /** Log-bucket resolution: buckets per decade. */
    static constexpr unsigned kBucketsPerDecade = 10;
    /** Lower edge of the first bucket (seconds). */
    static constexpr double kMinSeconds = 1e-9;
    /** Upper edge of the last regular bucket (seconds). */
    static constexpr double kMaxSeconds = 1e4;
    /** Regular buckets (13 decades) plus the overflow bucket. */
    static constexpr std::size_t kBuckets = 13 * kBucketsPerDecade + 1;

    /** Adds one sample of @p seconds (negatives clamp to 0). */
    void record(double seconds);

    /** Samples recorded. */
    std::uint64_t count() const { return count_; }

    /** Sum of all recorded samples (seconds). */
    double sum() const { return sum_; }

    /** Smallest recorded sample; 0 when empty. */
    double minSeconds() const { return count_ == 0 ? 0.0 : min_; }

    /** Largest recorded sample; 0 when empty. */
    double maxSeconds() const { return max_; }

    /** Arithmetic mean; 0 when empty. */
    double meanSeconds() const;

    /**
     * Streaming quantile bound for @p q in [0, 1]: the upper edge of the
     * bucket holding the ceil(q * count)-th smallest sample, clamped to
     * the recorded maximum (so quantile(1) == maxSeconds()).  0 when
     * empty.  Monotone in @p q.
     */
    double quantile(double q) const;

    /** quantile(0.50). */
    double p50() const { return quantile(0.50); }
    /** quantile(0.95). */
    double p95() const { return quantile(0.95); }
    /** quantile(0.99). */
    double p99() const { return quantile(0.99); }

    /** Folds every sample of @p other into this histogram. */
    void merge(const LatencyHistogram& other);

    /** Upper edge (seconds) of bucket @p index (+inf for overflow). */
    static double bucketUpperBound(std::size_t index);

    /** Samples in bucket @p index (for dumps and tests). */
    std::uint64_t bucketCount(std::size_t index) const;

  private:
    static std::size_t bucketIndex(double seconds);

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * One completed (virtually sequenced) request, in modeled seconds.
 * Produced by the scheduler when a request's virtual start time is
 * decided; all fields are deterministic for a deterministic trace.
 */
struct RequestSample {
    std::uint64_t id = 0;             ///< scheduler ticket id
    DeadlineClass lane = DeadlineClass::Interactive; ///< priority lane
    double arrivalSeconds = 0;        ///< virtual arrival time
    double startSeconds = 0;          ///< virtual execution start
    double completionSeconds = 0;     ///< virtual completion
    /** Modeled service time, including any projected cold-start LUT
     * broadcast (completionSeconds - startSeconds). */
    double serviceSeconds = 0;
    /** Absolute virtual deadline; +inf when the request had none. */
    double deadlineSeconds = 0;
    /** Collective (all-gather/reduce) share of the service. */
    double collectiveSeconds = 0;
    /** Projected cold-start LUT broadcast share of the service. */
    double lutBroadcastSeconds = 0;

    /** Virtual seconds spent queued before starting. */
    double queueDelaySeconds() const
    {
        return startSeconds - arrivalSeconds;
    }

    /** End-to-end virtual latency (queue delay + service). */
    double latencySeconds() const
    {
        return completionSeconds - arrivalSeconds;
    }

    /** True when the request completed by its deadline. */
    bool deadlineMet() const
    {
        return completionSeconds <= deadlineSeconds;
    }
};

/** Per-lane aggregate of completed requests. */
struct LaneStats {
    LatencyHistogram latency;    ///< end-to-end latency histogram
    LatencyHistogram queueDelay; ///< queue-delay histogram
    LatencyHistogram service;    ///< service-time histogram
    /** Time-to-first-token histogram (token engine: prefill completion
     * minus arrival; empty on non-token lanes). */
    LatencyHistogram ttft;
    /** Inter-token latency histogram (token engine: gap between
     * consecutive emitted tokens of a stream). */
    LatencyHistogram interToken;
    std::uint64_t completed = 0;     ///< requests sequenced to completion
    std::uint64_t deadlineMet = 0;   ///< completions within the deadline
    std::uint64_t deadlineMissed = 0;///< completions past a finite deadline
    std::uint64_t tokens = 0;        ///< decode tokens emitted on this lane
    std::uint64_t tokensMet = 0;     ///< tokens within their deadline
    std::uint64_t tokensMissed = 0;  ///< tokens past a finite deadline
};

/**
 * A point-in-time copy of the residency manager's KV gauges plus the
 * cross-class eviction split, recorded by the token engine after each
 * step (see ResidencyStats in serving/residency.h for the source
 * counters).
 */
struct KvResidencyGauges {
    std::uint64_t residentBytes = 0; ///< raw KV bytes currently resident
    std::uint64_t streams = 0;       ///< KV streams currently resident
    std::uint64_t spills = 0;        ///< cumulative streams spilled out
    std::uint64_t refills = 0;       ///< cumulative spilled-stream refills
    std::uint64_t sheds = 0;         ///< cumulative capacity sheds
    std::uint64_t lutEvictions = 0;  ///< cumulative LUT sets evicted
};

/** A consistent copy of all telemetry state (see Telemetry::snapshot). */
struct TelemetrySnapshot {
    /** Per-lane (DeadlineClass-indexed) submitted-request counters. */
    std::array<std::uint64_t, kDeadlineClasses> submitted{};
    /** Per-lane admitted-request counters. */
    std::array<std::uint64_t, kDeadlineClasses> admitted{};
    /** Per-lane deadline-shed counters. */
    std::array<std::uint64_t, kDeadlineClasses> shedDeadline{};
    /** Per-lane saturation-reject counters. */
    std::array<std::uint64_t, kDeadlineClasses> rejectedSaturated{};
    /** Per-lane fault-shed counters (admit-time and post-admission). */
    std::array<std::uint64_t, kDeadlineClasses> shedFault{};
    /** Per-lane completion aggregates. */
    std::array<LaneStats, kDeadlineClasses> lanes;
    /** Total collective seconds across completed requests. */
    double collectiveSeconds = 0;
    /** Total projected LUT-broadcast seconds across completions. */
    double lutBroadcastSeconds = 0;
    /** Latest KV-residency gauges (token engine, last recorded step). */
    KvResidencyGauges kv;
    /** Latest fault/recovery counters and health gauges, recorded from
     * FaultInjector::stats(). */
    FaultStats faults;
    /** Gauge: schedulable ranks / total ranks, in [0, 1]. */
    double capacityRatio = 1.0;

    /** Submissions across all lanes. */
    std::uint64_t totalSubmitted() const;
    /** Admissions across all lanes. */
    std::uint64_t totalAdmitted() const;
};

/**
 * Thread-safe telemetry registry for one serving frontend.  The
 * scheduler records admissions and completions; serving code reads
 * snapshot() or scrapes prometheusText().
 *
 * Completion semantics: a "completion" is a *virtual-time sequencing*
 * event — it is recorded the moment the scheduler fixes a request's
 * start/completion on the rank timeline, which keeps telemetry
 * deterministic for a deterministic trace.  A request whose real
 * execution later fails still counts here (the error surfaces at the
 * scheduler's wait() instead); reconcile against the waiter's own
 * accounting when execution errors matter.
 */
class Telemetry
{
  public:
    /** Counts one submission and its admission @p outcome on @p lane. */
    void recordAdmission(DeadlineClass lane, AdmissionOutcome outcome);

    /** Folds one sequenced request into the lane aggregates. */
    void recordCompletion(const RequestSample& sample);

    /** Records one stream's time-to-first-token on @p lane. */
    void recordTtft(DeadlineClass lane, double seconds);

    /**
     * Records one emitted decode token on @p lane: its inter-token gap
     * @p gapSeconds (skipped when negative, i.e. the first token) and
     * whether it @p metDeadline (tokens with no deadline pass true).
     */
    void recordToken(DeadlineClass lane, double gapSeconds,
                     bool metDeadline);

    /** Replaces the KV-residency gauges with @p gauges. */
    void recordKvResidency(const KvResidencyGauges& gauges);

    /** Replaces the fault counters and health gauges with @p faults
     * and the capacity gauge with @p capacityRatio. */
    void recordFaults(const FaultStats& faults, double capacityRatio);

    /**
     * Counts one admitted request on @p sample's lane that was shed by
     * faults after admission (the admit-time path goes through
     * recordAdmission with AdmissionOutcome::ShedFault instead).  The
     * virtual-time sequencer already recorded the request as a
     * completion, so its completed / deadline counters are retracted
     * here; the latency histograms keep the sequenced sample (bucket
     * counts are not retractable).
     */
    void recordPostAdmitFaultShed(const RequestSample& sample);

    /** A consistent copy of every counter and histogram. */
    TelemetrySnapshot snapshot() const;

    /**
     * Renders the snapshot in the Prometheus text exposition format:
     * localut_requests_total{lane,outcome}, per-lane cumulative
     * histogram series (localut_request_latency_seconds et al.),
     * deadline counters, and the collective/broadcast accumulators.
     */
    std::string prometheusText() const;

    /** Zeroes every counter and histogram. */
    void reset();

  private:
    mutable std::mutex mutex_;
    TelemetrySnapshot state_;
};

} // namespace localut

#endif // LOCALUT_SERVING_TELEMETRY_H_
