#include "serving/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/saturate.h"
#include "lut/capacity.h"

namespace localut {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

} // namespace

const char*
schedulerPolicyName(SchedulerPolicy policy)
{
    switch (policy) {
      case SchedulerPolicy::Slo:  return "slo";
      case SchedulerPolicy::Fifo: return "fifo";
    }
    LOCALUT_PANIC("invalid scheduler policy");
}

ServingRequest
ServingRequest::gemm(GemmProblem problem, DesignPoint design,
                     DeadlineClass lane, double deadlineSeconds,
                     bool computeValues, const PlanOverrides& overrides)
{
    ServingRequest request;
    request.lane = lane;
    request.deadlineSeconds = deadlineSeconds;
    request.isWorkload = false;
    request.problem = std::move(problem);
    request.design = design;
    request.overrides = overrides;
    request.computeValues = computeValues;
    return request;
}

ServingRequest
ServingRequest::workloadRequest(InferenceSession::CompiledWorkload workload,
                                DeadlineClass lane, double deadlineSeconds)
{
    ServingRequest request;
    request.lane = lane;
    request.deadlineSeconds = deadlineSeconds;
    request.isWorkload = true;
    request.workload = std::move(workload);
    return request;
}

ServingRequest
ServingRequest::prefill(InferenceSession::CompiledWorkload workload,
                        double deadlineSeconds)
{
    return workloadRequest(std::move(workload), DeadlineClass::Prefill,
                           deadlineSeconds);
}

ServingRequest
ServingRequest::decodeStep(InferenceSession::CompiledWorkload workload,
                           double deadlineSeconds)
{
    return workloadRequest(std::move(workload), DeadlineClass::Decode,
                           deadlineSeconds);
}

RequestScheduler::RequestScheduler(InferenceSession& session,
                                   const SchedulerOptions& options,
                                   Telemetry* telemetry)
    : session_(session), options_(options),
      numRanks_(session.totalRanks()),
      injector_(session.options().faultInjector)
{
    LOCALUT_REQUIRE(options_.maxQueuedPerRank >= 1,
                    "the admission bound must admit at least one request");
    if (telemetry == nullptr) {
        ownedTelemetry_ = std::make_unique<Telemetry>();
        telemetry_ = ownedTelemetry_.get();
    } else {
        telemetry_ = telemetry;
    }
    freeAt_.assign(numRanks_, 0.0);
}

double
RequestScheduler::clockSeconds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return clock_;
}

void
RequestScheduler::advanceTo(double seconds)
{
    // Scheduled faults (rank death, link degradation) fire on the same
    // virtual clock the arrivals drive, before any placement decision
    // at the new time.
    if (injector_ != nullptr) {
        injector_->advanceTo(seconds);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (seconds > clock_) {
        clock_ = seconds;
    }
    sequenceLocked(clock_);
}

void
RequestScheduler::publishFaults()
{
    if (injector_ == nullptr) {
        return;
    }
    telemetry_->recordFaults(injector_->stats(),
                             injector_->capacityRatio());
}

std::size_t
RequestScheduler::queuedRequests() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
}

bool
RequestScheduler::outranksLocked(const Entry& a, const Entry& b) const
{
    if (options_.policy == SchedulerPolicy::Fifo) {
        return a.seq < b.seq; // pure arrival order
    }
    if (a.lane != b.lane) {
        return deadlineClassPriority(a.lane) < deadlineClassPriority(b.lane);
    }
    if (a.deadline != b.deadline) {
        return a.deadline < b.deadline; // EDF within the lane
    }
    return a.seq < b.seq;
}

double
RequestScheduler::readyLocked(const Entry& entry,
                              const std::vector<double>& freeAt) const
{
    double ready = entry.arrival;
    if (entry.rank == kAllRanks) {
        for (const double t : freeAt) {
            ready = std::max(ready, t);
        }
    } else {
        ready = std::max(ready, freeAt[entry.rank]);
    }
    return ready;
}

std::vector<std::pair<double, double>>
RequestScheduler::simulateLocked(const std::vector<const Entry*>& entries,
                                 std::vector<double>& freeAt,
                                 double limit) const
{
    std::vector<std::pair<double, double>> schedule(entries.size(),
                                                    {-1.0, -1.0});
    std::vector<bool> started(entries.size(), false);
    std::size_t remaining = entries.size();
    while (remaining > 0) {
        // The earliest time any not-yet-started entry could begin.
        double t = kInf;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!started[i]) {
                t = std::min(t, readyLocked(*entries[i], freeAt));
            }
        }
        if (t > limit) {
            break; // decisions past the limit stay open
        }
        // Among the entries that can start at t, the priority winner
        // goes (non-preemptive, work-conserving).
        std::size_t winner = entries.size();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (started[i] || readyLocked(*entries[i], freeAt) > t) {
                continue;
            }
            if (winner == entries.size() ||
                outranksLocked(*entries[i], *entries[winner])) {
                winner = i;
            }
        }
        LOCALUT_ASSERT(winner < entries.size(),
                       "no winner at the earliest start time");
        const Entry& entry = *entries[winner];
        const double completion = t + entry.service;
        schedule[winner] = {t, completion};
        if (entry.rank == kAllRanks) {
            std::fill(freeAt.begin(), freeAt.end(), completion);
        } else {
            freeAt[entry.rank] = completion;
        }
        started[winner] = true;
        --remaining;
    }
    return schedule;
}

void
RequestScheduler::recordStartLocked(const Entry& entry, double start,
                                    double completion)
{
    auto it = tickets_.find(entry.id);
    LOCALUT_ASSERT(it != tickets_.end(),
                   "sequenced an entry without a ticket");
    Ticket& ticket = it->second;
    RequestSample sample;
    sample.id = entry.id;
    sample.lane = entry.lane;
    sample.arrivalSeconds = entry.arrival;
    sample.startSeconds = start;
    sample.completionSeconds = completion;
    sample.serviceSeconds = entry.service;
    sample.deadlineSeconds = entry.deadline;
    sample.collectiveSeconds = entry.collectiveSeconds;
    sample.lutBroadcastSeconds = entry.broadcastSeconds;
    ticket.sample = sample;
    ticket.sequenced = true;
    telemetry_->recordCompletion(sample);
}

void
RequestScheduler::sequenceLocked(double limit)
{
    if (pending_.empty()) {
        return;
    }
    std::vector<const Entry*> entries;
    entries.reserve(pending_.size());
    for (const Entry& entry : pending_) {
        entries.push_back(&entry);
    }
    std::vector<double> freeAt = freeAt_;
    const auto schedule = simulateLocked(entries, freeAt, limit);
    std::vector<Entry> open;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (schedule[i].first >= 0) {
            recordStartLocked(pending_[i], schedule[i].first,
                              schedule[i].second);
        } else {
            open.push_back(pending_[i]);
        }
    }
    // simulateLocked advanced freeAt by exactly the started entries.
    freeAt_ = std::move(freeAt);
    pending_ = std::move(open);
}

void
RequestScheduler::projectColdStartLocked(
    const GemmPlan& plan, const std::string& scope, double instances,
    ServiceProjection& projection) const
{
    const ResidencyManager* residency = session_.residency();
    for (unsigned rank = 0; rank < numRanks_; ++rank) {
        TableSetKey key = tableSetKeyFor(plan, scope, instances, rank);
        const std::uint64_t bytes =
            satMulU64(tableSetBytes(plan), key.instances);
        if (bytes == 0 || lutBytesSaturated(bytes) ||
            plannedSets_.count(key) != 0 ||
            residency->isResident(key)) {
            continue; // warm (or untracked) on this rank
        }
        projection.rankBroadcastSeconds[rank] +=
            residency->broadcastSeconds(bytes);
        projection.rankKeys[rank].push_back(std::move(key));
    }
}

RequestScheduler::ServiceProjection
RequestScheduler::projectServiceLocked(const ServingRequest& request)
{
    ServiceProjection projection;
    const bool trackCold = session_.residency() != nullptr;

    if (request.isWorkload) {
        const auto& workload = request.workload;
        const WorkloadCostProjection cost = session_.projectCost(workload);
        projection.steadySeconds = cost.totalSeconds();
        projection.collectiveSeconds = cost.collectiveSeconds;
        if (trackCold && !workload.sharded()) {
            const double steps =
                workload.spec.phase == WorkloadPhase::Decode
                    ? std::max(1u, workload.spec.steps)
                    : 1.0;
            projection.rankBroadcastSeconds.assign(numRanks_, 0.0);
            projection.rankKeys.assign(numRanks_, {});
            for (const auto& node : workload.nodes) {
                projectColdStartLocked(node.plan, node.gemm.role,
                                       node.gemm.count / steps,
                                       projection);
            }
        }
        return projection;
    }

    // GEMM request: the plan is PlanCache-memoized; timing-only
    // execution of it is the exact modeled service (values never change
    // the cost accounting), memoized per plan key so repeated shapes
    // skip the timing model on the admission path.
    const GemmPlan plan = session_.plan(request.problem, request.design,
                                        request.overrides);
    const PlanKey key = PlanKey::of(session_.backend(), request.problem,
                                    request.design, request.overrides);
    const auto memo = gemmServiceMemo_.find(key);
    if (memo != gemmServiceMemo_.end()) {
        projection.steadySeconds = memo->second;
    } else {
        projection.steadySeconds =
            session_.backend()
                .execute(request.problem, plan, /*computeValues=*/false)
                .timing.total;
        gemmServiceMemo_.emplace(key, projection.steadySeconds);
    }
    if (trackCold) {
        projection.rankBroadcastSeconds.assign(numRanks_, 0.0);
        projection.rankKeys.assign(numRanks_, {});
        projectColdStartLocked(plan, "", 1.0, projection);
    }
    return projection;
}

AdmissionDecision
RequestScheduler::submit(ServingRequest request)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double arrival = request.arrivalSeconds < 0
                               ? clock_
                               : std::max(clock_, request.arrivalSeconds);
    clock_ = std::max(clock_, arrival);
    if (injector_ != nullptr) {
        // Scheduled faults due at (or before) this arrival fire before
        // the placement decision sees the health mask.
        injector_->advanceTo(clock_);
    }
    sequenceLocked(clock_);

    AdmissionDecision decision;
    decision.id = nextId_++;
    decision.lane = request.lane;
    decision.arrivalSeconds = arrival;
    decision.deadlineSeconds = std::isinf(request.deadlineSeconds)
                                   ? kInf
                                   : arrival + request.deadlineSeconds;

    const bool gang = request.isWorkload && request.workload.sharded();
    if (gang) {
        LOCALUT_REQUIRE(request.workload.numRanks == numRanks_,
                        "sharded workload compiled for ",
                        request.workload.numRanks,
                        " ranks submitted to a scheduler over ",
                        numRanks_);
    }

    auto reject = [&](AdmissionOutcome outcome) {
        decision.outcome = outcome;
        telemetry_->recordAdmission(decision.lane, outcome);
        Ticket ticket;
        ticket.decision = decision;
        ticket.isWorkload = request.isWorkload;
        tickets_.emplace(decision.id, std::move(ticket));
        return decision;
    };

    // A non-positive budget (deadline already in the past) can never be
    // met: shed before doing any projection work.
    if (options_.policy == SchedulerPolicy::Slo &&
        request.deadlineSeconds <= 0) {
        return reject(AdmissionOutcome::ShedDeadline);
    }

    // Fault gate: with no live rank at all nothing can serve, and a
    // gang needs the session to re-shard around losses — impossible
    // when its failover policy is off.
    const bool faultAware = injector_ != nullptr && options_.faultAware;
    if (faultAware &&
        (injector_->aliveCount() == 0 ||
         (gang && injector_->aliveCount() < numRanks_ &&
          !session_.options().faultPolicy.failover))) {
        injector_->noteShedFault();
        publishFaults();
        return reject(AdmissionOutcome::ShedFault);
    }

    // Saturation: admitted-but-unstarted depth per candidate rank.
    std::vector<std::size_t> queued(numRanks_, 0);
    for (const Entry& entry : pending_) {
        if (entry.rank == kAllRanks) {
            for (std::size_t& q : queued) {
                ++q;
            }
        } else {
            ++queued[entry.rank];
        }
    }
    if (gang) {
        if (pending_.size() >= options_.maxQueuedPerRank) {
            return reject(AdmissionOutcome::RejectedSaturated);
        }
    } else if (std::all_of(queued.begin(), queued.end(),
                           [&](std::size_t q) {
                               return q >= options_.maxQueuedPerRank;
                           })) {
        return reject(AdmissionOutcome::RejectedSaturated);
    }

    const ServiceProjection projection = projectServiceLocked(request);

    // Project the candidate onto each unsaturated rank: simulate the
    // whole pending queue plus the candidate and keep the feasible
    // placement with the earliest completion.  Under Slo, feasible
    // means no admitted finite deadline — including the candidate's —
    // is pushed past its budget (the EDF schedulability check).
    Entry candidate;
    candidate.id = decision.id;
    candidate.lane = request.lane;
    candidate.arrival = arrival;
    candidate.deadline = decision.deadlineSeconds;
    candidate.seq = nextSeq_++;
    candidate.collectiveSeconds = projection.collectiveSeconds;

    std::vector<unsigned> candidates;
    if (gang) {
        candidates.push_back(kAllRanks);
    } else {
        for (unsigned rank = 0; rank < numRanks_; ++rank) {
            if (queued[rank] < options_.maxQueuedPerRank &&
                (!faultAware || injector_->schedulable(rank))) {
                candidates.push_back(rank);
            }
        }
        if (candidates.empty()) {
            // Unsaturated ranks exist (the check above passed) but the
            // health mask excluded every one of them.
            injector_->noteShedFault();
            publishFaults();
            return reject(AdmissionOutcome::ShedFault);
        }
    }

    const bool slo = options_.policy == SchedulerPolicy::Slo;
    bool found = false;
    Entry best;
    double bestStart = 0, bestCompletion = kInf;
    for (const unsigned rank : candidates) {
        Entry trial = candidate;
        trial.rank = rank;
        trial.broadcastSeconds =
            rank != kAllRanks && !projection.rankBroadcastSeconds.empty()
                ? projection.rankBroadcastSeconds[rank]
                : 0.0;
        trial.service = projection.steadySeconds + trial.broadcastSeconds;

        std::vector<const Entry*> entries;
        entries.reserve(pending_.size() + 1);
        for (const Entry& entry : pending_) {
            entries.push_back(&entry);
        }
        entries.push_back(&trial);
        std::vector<double> freeAt = freeAt_;
        const auto schedule = simulateLocked(entries, freeAt, kInf);
        bool feasible = true;
        if (slo) {
            for (std::size_t i = 0; i < entries.size(); ++i) {
                if (!std::isinf(entries[i]->deadline) &&
                    schedule[i].second > entries[i]->deadline) {
                    feasible = false;
                    break;
                }
            }
        }
        if (!feasible) {
            continue;
        }
        const auto [start, completion] = schedule.back();
        if (completion < bestCompletion) {
            found = true;
            best = trial;
            bestStart = start;
            bestCompletion = completion;
        }
    }
    if (!found) {
        // Every unsaturated rank fails the schedulability check (Fifo
        // never fails it, so this branch is Slo-only).
        return reject(AdmissionOutcome::ShedDeadline);
    }

    decision.outcome = AdmissionOutcome::Admitted;
    decision.rank = best.rank;
    decision.projectedServiceSeconds = best.service;
    decision.projectedStartSeconds = bestStart;
    decision.projectedCompletionSeconds = bestCompletion;
    telemetry_->recordAdmission(decision.lane,
                                AdmissionOutcome::Admitted);

    // Real execution: pin the request to its placement rank (gangs
    // shard across every rank, exactly as an unpinned submit would).
    SubmitOptions submitOptions;
    submitOptions.rank =
        best.rank == kAllRanks ? -1 : static_cast<int>(best.rank);
    Ticket ticket;
    ticket.decision = decision;
    ticket.isWorkload = request.isWorkload;

    // Commit the placement's table sets so later projections (and
    // placements) see this rank as warm while the request is in
    // flight; wait() releases them once the real execution has
    // acquired the sets and isResident() is authoritative.
    if (best.rank != kAllRanks && !projection.rankKeys.empty()) {
        for (const TableSetKey& key : projection.rankKeys[best.rank]) {
            if (plannedSets_.insert(key).second) {
                ticket.plannedKeys.push_back(key);
            }
        }
    }
    ticket.sessionId =
        request.isWorkload
            ? session_.submit(std::move(request.workload), submitOptions)
            : session_.submit(std::move(request.problem), request.design,
                              request.computeValues, request.overrides,
                              submitOptions);
    tickets_.emplace(decision.id, std::move(ticket));
    pending_.push_back(best);
    sequenceLocked(clock_);
    publishFaults();
    return decision;
}

ServingResult
RequestScheduler::wait(std::uint64_t id)
{
    ServingResult result;
    bool isWorkload = false;
    InferenceSession::RequestId sessionId = 0;
    std::vector<TableSetKey> plannedKeys;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = tickets_.find(id);
        LOCALUT_REQUIRE(it != tickets_.end(),
                        "unknown (or already waited-on) ticket ", id);
        if (!it->second.decision.admitted()) {
            result.decision = it->second.decision;
            tickets_.erase(it);
            return result;
        }
        if (!it->second.sequenced) {
            // Finalize the virtual schedule: the caller is waiting, so
            // no earlier arrival can still preempt these decisions.
            sequenceLocked(kInf);
            it = tickets_.find(id);
            LOCALUT_ASSERT(it != tickets_.end() && it->second.sequenced,
                           "waited ticket did not sequence");
        }
        result.decision = it->second.decision;
        result.sample = it->second.sample;
        isWorkload = it->second.isWorkload;
        sessionId = it->second.sessionId;
        plannedKeys = std::move(it->second.plannedKeys);
        tickets_.erase(it);
    }
    if (!plannedKeys.empty()) {
        // Hand authority over these sets back to the residency manager
        // before blocking on execution (exception-safe: a failed
        // execution must not leave stale "warm" markers).  Until the
        // execution actually acquires them, projections err cold — the
        // conservative direction for admission.
        std::lock_guard<std::mutex> lock(mutex_);
        for (const TableSetKey& key : plannedKeys) {
            plannedSets_.erase(key);
        }
    }
    try {
        if (isWorkload) {
            result.report = session_.waitReport(sessionId);
        } else {
            result.gemm = session_.wait(sessionId);
        }
    } catch (const FaultShedError&) {
        // Admitted, then shed by faults during execution (dead home
        // rank with failover off, retries exhausted, ...): the ticket
        // resolves with a terminal ShedFault verdict instead of
        // rethrowing, mirroring admission-time sheds.
        result.decision.outcome = AdmissionOutcome::ShedFault;
        telemetry_->recordPostAdmitFaultShed(result.sample);
    }
    publishFaults();
    return result;
}

void
RequestScheduler::drain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        sequenceLocked(kInf);
    }
    session_.drain();
}

} // namespace localut
