#ifndef LOCALUT_SERVING_SCHEDULER_H_
#define LOCALUT_SERVING_SCHEDULER_H_

/**
 * @file
 * The SLO-aware request scheduler: a request-level frontend above the
 * InferenceSession.  A ServingRequest — one GEMM or one compiled
 * workload, tagged with a priority lane (interactive vs batch) and a
 * deadline budget — is admitted, placed, and sequenced on a
 * *virtual-time* model of the session's ranks:
 *
 *  - **Projection.**  Service time comes from the PlanCache-memoized
 *    plans of the request (InferenceSession::projectCost(), which reads
 *    a workload's GEMM share priced at compile; timing-only execution
 *    of the same chargeCosts() accounting real execution reports), so
 *    admission projections and modeled service can never diverge.  With LUT residency enabled, the projection adds the
 *    host -> PIM table broadcast a cold rank would pay.
 *
 *  - **Placement.**  Unsharded requests occupy one rank (a data-
 *    parallel replica); the scheduler picks the rank with the earliest
 *    projected completion, preferring ranks whose ResidencyManager
 *    already holds the request's LUT table sets — cold-start-aware
 *    placement.  The session acquires an admitted request's sets before
 *    its submit() returns, so the manager is current for the next
 *    projection.  Sharded workloads gang across every rank.
 *
 *  - **Admission control.**  A request whose deadline cannot be met on
 *    any rank — projected queue delay + service exceeds the budget —
 *    is shed immediately, and a request that would push any *already
 *    admitted* deadline past its budget is shed too (an EDF
 *    schedulability check: admitted deadlines stay feasible under
 *    every later admission).  When every candidate rank's queue is at
 *    SchedulerOptions::maxQueuedPerRank, the request is rejected as
 *    saturated.
 *
 *  - **Sequencing.**  Ranks serve admitted requests non-preemptively:
 *    interactive before batch, earliest absolute deadline first within
 *    a lane, admission order on ties (SchedulerPolicy::Slo), or pure
 *    arrival order (SchedulerPolicy::Fifo, the comparison baseline
 *    bench/serving_load.cc measures against).  Virtual time advances
 *    via advanceTo() (an open-loop load generator drives it with each
 *    arrival); a decision is only finalized once the clock guarantees
 *    no earlier arrival can still show up.
 *
 * Execution is real: every admitted request goes to the
 * InferenceSession pinned to its placement rank — a GEMM through
 * submit(), a workload through run() inside submit(), after which it is
 * sequenced by the table broadcast it was actually charged.  Values are
 * bit-exact with a direct submit() — the scheduler never touches them —
 * and wait() returns the session's result next to the virtual-time
 * RequestSample.  Telemetry (serving/telemetry.h) collects admission
 * counters and per-lane latency/queue-delay/service histograms.
 */

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serving/session.h"
#include "serving/telemetry.h"

namespace localut {

/** How the scheduler orders and admits requests. */
enum class SchedulerPolicy {
    /** Priority lanes + EDF + deadline-aware admission (the default). */
    Slo,
    /** Arrival order, least-loaded placement, no deadline awareness —
     * the comparison baseline. */
    Fifo,
};

/** Policy name for reports ("slo" / "fifo"). */
const char* schedulerPolicyName(SchedulerPolicy policy);

/** Scheduler-wide knobs. */
struct SchedulerOptions {
    /** Ordering / admission policy. */
    SchedulerPolicy policy = SchedulerPolicy::Slo;
    /**
     * Admission bound: a request is rejected as saturated when every
     * candidate rank already has this many admitted-but-unstarted
     * requests queued.
     */
    std::size_t maxQueuedPerRank = 64;
};

/** One request-level unit of serving work. */
struct ServingRequest {
    /** Priority lane. */
    DeadlineClass lane = DeadlineClass::Interactive;
    /**
     * Deadline budget in virtual seconds from arrival; +inf = none.
     * A non-positive budget can never be met and is shed on submit.
     */
    double deadlineSeconds = std::numeric_limits<double>::infinity();
    /**
     * Virtual arrival time; negative (the default) means "the
     * scheduler's current clock".  Arrivals must be monotone — earlier
     * times clamp to the clock.
     */
    double arrivalSeconds = -1.0;

    /** True when this request executes a compiled workload. */
    bool isWorkload = false;
    GemmProblem problem;   ///< GEMM request input
    DesignPoint design = DesignPoint::LoCaLut; ///< GEMM design point
    PlanOverrides overrides;                   ///< GEMM plan overrides
    bool computeValues = true;                 ///< GEMM functional pass
    InferenceSession::CompiledWorkload workload; ///< workload input

    /** Builds a GEMM request. */
    static ServingRequest gemm(
        GemmProblem problem, DesignPoint design,
        DeadlineClass lane = DeadlineClass::Interactive,
        double deadlineSeconds = std::numeric_limits<double>::infinity(),
        bool computeValues = true, const PlanOverrides& overrides = {});

    /** Builds a workload request. */
    static ServingRequest workloadRequest(
        InferenceSession::CompiledWorkload workload,
        DeadlineClass lane = DeadlineClass::Interactive,
        double deadlineSeconds = std::numeric_limits<double>::infinity());
};

/** What submit() decided, with the projections behind the decision. */
struct AdmissionDecision {
    std::uint64_t id = 0;      ///< scheduler ticket (pass to wait())
    AdmissionOutcome outcome = AdmissionOutcome::Admitted; ///< verdict
    DeadlineClass lane = DeadlineClass::Interactive; ///< request lane
    /** Placement rank; kAllRanks for gang (sharded) requests.  Only
     * meaningful when admitted. */
    unsigned rank = 0;
    double arrivalSeconds = 0;   ///< resolved virtual arrival
    /** Projected service seconds (steady cost + projected broadcast). */
    double projectedServiceSeconds = 0;
    double projectedStartSeconds = 0;      ///< projected virtual start
    double projectedCompletionSeconds = 0; ///< projected completion
    /** Absolute virtual deadline; +inf when the request had none. */
    double deadlineSeconds = 0;

    /** True when the request was placed and will execute. */
    bool admitted() const
    {
        return outcome == AdmissionOutcome::Admitted;
    }
};

/** Everything wait() returns for one ticket. */
struct ServingResult {
    AdmissionDecision decision; ///< the admission verdict
    /** Final virtual-time accounting; only valid when admitted. */
    RequestSample sample;
    /** The executed GEMM result (admitted GEMM requests). */
    GemmResult gemm;
    /** The executed workload report (admitted workload requests). */
    InferenceReport report;
};

/**
 * SLO-aware request frontend over one InferenceSession.
 *
 * Thread-safety: submit()/advanceTo()/wait()/telemetry are safe to call
 * concurrently.  Virtual-time sequencing is deterministic for a
 * deterministic (single-submitter) trace; concurrent submitters
 * serialize in lock order.
 */
class RequestScheduler
{
  public:
    /** Placement marker: the request gangs across every rank. */
    static constexpr unsigned kAllRanks =
        std::numeric_limits<unsigned>::max();

    /**
     * @p session outlives the scheduler and executes the admitted
     * requests.  @p telemetry receives the admission and completion
     * records; nullptr uses an internally owned registry.
     */
    explicit RequestScheduler(InferenceSession& session,
                              const SchedulerOptions& options = {},
                              Telemetry* telemetry = nullptr);

    RequestScheduler(const RequestScheduler&) = delete; ///< non-copyable
    RequestScheduler&
    operator=(const RequestScheduler&) = delete; ///< non-copyable

    /** The options the scheduler was opened with. */
    const SchedulerOptions& options() const { return options_; }

    /** The session's rank count (placement domain). */
    unsigned numRanks() const { return numRanks_; }

    /** The telemetry registry admissions and completions land in. */
    Telemetry& telemetry() { return *telemetry_; }

    /** Current virtual time (seconds). */
    double clockSeconds() const;

    /**
     * Advances virtual time to @p seconds (monotone; earlier values are
     * ignored) and finalizes every queued start decision the new clock
     * makes safe.  An open-loop generator calls this with each
     * arrival's timestamp.
     */
    void advanceTo(double seconds);

    /**
     * Admission control: projects the request onto every candidate
     * rank, sheds or rejects per the policy, and on admission places
     * the request (virtual time) and hands it to the session (real
     * execution).  An admitted GEMM is submitted and this returns
     * immediately; an admitted workload (modeled cost only) runs before
     * this returns, and one the session rejects — compiled for another
     * backend, say — throws here.  A NaN deadline or arrival fatals.
     */
    AdmissionDecision submit(ServingRequest request);

    /**
     * Blocks until ticket @p id's real execution completes and returns
     * the result plus the final virtual-time sample (finalizing the
     * virtual schedule as far as needed).  Shed/rejected tickets return
     * just the decision.  Consumes the ticket.
     */
    ServingResult wait(std::uint64_t id);

    /**
     * Finalizes every queued virtual start decision (declares that no
     * further arrivals precede them) and drains the session.
     */
    void drain();

    /** Admitted requests not yet virtually started. */
    std::size_t queuedRequests() const;

  private:
    /** One admitted request in the virtual-time model. */
    struct Entry {
        std::uint64_t id = 0;
        DeadlineClass lane = DeadlineClass::Interactive;
        double arrival = 0;
        double deadline = 0; ///< absolute; +inf when none
        /** Steady seconds + broadcast projected for a GEMM; for a
         * workload (which ran at admission), its report's total. */
        double service = 0;
        /** Placement (a whole workload's serving rank); kAllRanks =
         * gang. */
        unsigned rank = 0;
        std::uint64_t seq = 0; ///< admission order (FIFO + tie-break)
        double collectiveSeconds = 0;
        double broadcastSeconds = 0;
    };

    /** Ticket bookkeeping from admission to wait(). */
    struct Ticket {
        AdmissionDecision decision;
        bool isWorkload = false;
        InferenceSession::RequestId sessionId = 0; ///< GEMM request
        InferenceReport report; ///< workload report, settled at submit
        bool faultShed = false; ///< the workload was shed by faults
        RequestSample sample;
        bool sequenced = false;
    };

    struct ServiceProjection {
        double steadySeconds = 0;
        double collectiveSeconds = 0;
        /** Broadcast seconds a cold rank would pay, per candidate rank
         * (empty when residency is off / request is sharded). */
        std::vector<double> rankBroadcastSeconds;
    };

    /** Priority: lane, then deadline, then seq (Slo); seq (Fifo). */
    bool outranksLocked(const Entry& a, const Entry& b) const;
    /** max(freeAt) over the ranks @p entry occupies. */
    double readyLocked(const Entry& entry,
                       const std::vector<double>& freeAt) const;
    /**
     * Non-preemptive priority simulation of @p entries over @p freeAt:
     * repeatedly starts the highest-priority entry among those whose
     * ranks free up earliest, stopping at decisions later than
     * @p limit.  Returns (start, completion) per input index (-1 for
     * entries not started within the limit); @p freeAt is advanced to
     * the post-simulation per-rank availability.
     */
    std::vector<std::pair<double, double>>
    simulateLocked(const std::vector<const Entry*>& entries,
                   std::vector<double>& freeAt, double limit) const;
    /** Runs the real sequencer up to @p limit, recording samples. */
    void sequenceLocked(double limit);
    /** Steady service of @p request plus, per rank, the broadcast the
     * residency manager would charge its table sets there now. */
    ServiceProjection projectServiceLocked(const ServingRequest& request);
    void recordStartLocked(const Entry& entry, double start,
                           double completion);
    /** Pushes the injector's counters + capacity gauge to telemetry. */
    void publishFaults();

    InferenceSession& session_;
    SchedulerOptions options_;
    unsigned numRanks_;
    /** The session's fault injector; nullptr serves fault-free. */
    FaultInjector* injector_ = nullptr;
    std::unique_ptr<Telemetry> ownedTelemetry_;
    Telemetry* telemetry_;

    mutable std::mutex mutex_;
    double clock_ = 0;
    std::vector<double> freeAt_;      ///< per-rank virtual availability
    std::vector<Entry> pending_;      ///< admitted, not yet started
    std::unordered_map<std::uint64_t, Ticket> tickets_;
    /** Memoized steady service seconds per GEMM plan key (a pure
     * function of the memoized plan; avoids re-running the timing
     * model on every submission of a repeated shape). */
    std::unordered_map<PlanKey, double, PlanKeyHash> gemmServiceMemo_;
    std::uint64_t nextId_ = 1;
    std::uint64_t nextSeq_ = 1;
};

} // namespace localut

#endif // LOCALUT_SERVING_SCHEDULER_H_
