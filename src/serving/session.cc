#include "serving/session.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "common/logging.h"
#include "dram/timing.h"

namespace localut {

namespace {

/** What settle() decided for one unit of work: the failed attempts to
 * re-pay and the virtual backoff accumulated between them. */
struct FaultOutcome {
    unsigned retries = 0;
    double backoffSeconds = 0.0;
};

/**
 * Runs the deterministic transient-failure loop for one unit of work on
 * @p rank: each injected failure records a rank failure (feeding
 * quarantine) and, when a retry follows, charges one capped-exponential
 * backoff interval.  Returns the failed-attempt count —
 * policy.maxAttempts means the rank exhausted its attempts without a
 * success.
 */
unsigned
transientFailures(FaultInjector& inj, const FaultPolicy& policy,
                  std::uint64_t requestId, unsigned rank,
                  std::uint64_t salt, double& backoffSeconds)
{
    unsigned failed = 0;
    while (failed < policy.maxAttempts &&
           inj.executeFails(requestId, failed, rank, salt)) {
        inj.recordFailure(rank, policy.quarantineThreshold);
        ++failed;
        if (failed < policy.maxAttempts) {
            backoffSeconds += retryBackoffSeconds(
                policy.backoffBaseSeconds, policy.backoffCapSeconds,
                failed - 1);
        }
    }
    return failed;
}

/**
 * Deterministic placement + retry resolution for a whole (unsharded)
 * request starting on @p rank: retry transients on the rank under the
 * policy; on exhaustion — or a dead/quarantined rank — fail over when
 * the policy allows, walking the ranks after it in wrap order and
 * trying each schedulable one once, else shed.  Leaves the serving rank
 * in @p rank; throws FaultShedError when no rank can serve the request.
 */
FaultOutcome
resolveWholeFaults(FaultInjector& inj, const FaultPolicy& policy,
                   std::uint64_t requestId, unsigned& rank)
{
    FaultOutcome out;
    const unsigned start = rank;
    const unsigned total = inj.numRanks();
    const unsigned visits = policy.failover ? total : 1;
    // The salt bumps per failover hop so every rank visit draws from its
    // own deterministic attempt stream.
    std::uint64_t salt = 0;
    for (unsigned i = 0; i < visits; ++i) {
        const unsigned next = (start + i) % total;
        if (!inj.schedulable(next)) {
            continue;
        }
        if (i > 0) {
            ++salt;
            inj.noteFailover();
        }
        rank = next;
        const unsigned failed = transientFailures(
            inj, policy, requestId, rank, salt, out.backoffSeconds);
        out.retries += failed;
        if (failed < policy.maxAttempts) {
            inj.noteRetries(out.retries);
            inj.noteBackoff(out.backoffSeconds);
            return out; // an attempt went through on this rank
        }
    }
    inj.noteShedFault();
    if (!policy.failover) {
        throw FaultShedError(
            rank, "fault shed: rank " + std::to_string(rank) +
                      " cannot serve the request and failover is disabled");
    }
    throw FaultShedError(rank,
                         "fault shed: no schedulable rank could serve "
                         "the request");
}

/** Folds a fault outcome into @p timing: each failed attempt re-pays the
 * clean cost of the work, plus the accumulated virtual backoff. */
void
chargeFaultPenalty(TimingReport& timing, const FaultOutcome& fault)
{
    if (fault.retries == 0 && fault.backoffSeconds <= 0) {
        return;
    }
    const double retrySeconds =
        static_cast<double>(fault.retries) * timing.total;
    timing.total += retrySeconds + fault.backoffSeconds;
    if (retrySeconds > 0) {
        timing.seconds.add("fault.retry", retrySeconds);
    }
    if (fault.backoffSeconds > 0) {
        timing.seconds.add("fault.backoff", fault.backoffSeconds);
    }
}

/**
 * The session whose tile batch this thread is currently draining (null
 * when not inside a tile).  A tile closure that re-enters
 * runTileBatch() on the same session must drain inline: re-submitting
 * from inside a tile would have this thread compete with (and wait on)
 * the batch it is itself a tile of.  Mirrors the TilePool nested-run
 * guard in common/parallel.cc.
 */
thread_local const InferenceSession* tlDrainingSession = nullptr;

struct SessionDrainScope {
    const InferenceSession* previous;

    explicit SessionDrainScope(const InferenceSession* session)
        : previous(tlDrainingSession)
    {
        tlDrainingSession = session;
    }
    ~SessionDrainScope() { tlDrainingSession = previous; }
};

} // namespace

double
InferenceSession::CompiledWorkload::predictedGemmSeconds() const
{
    double seconds = 0;
    for (const PlanNode& node : nodes) {
        seconds += node.plan.predictedSeconds * node.gemm.count;
    }
    for (const ShardedGemm& node : shardedNodes) {
        seconds += node.plan.predictedSeconds() * node.gemm.count;
    }
    return seconds;
}

/** One queued unit of work (a GEMM or a compiled workload). */
struct InferenceSession::Request {
    RequestId id = 0;
    bool isWorkload = false;

    // GEMM request inputs / output.
    GemmProblem problem;
    DesignPoint design = DesignPoint::LoCaLut;
    PlanOverrides overrides;
    bool computeValues = false;
    GemmResult result;

    // Gang state: settle() cuts the plan and decides each shard's fault
    // outcome, the fan-out task queues one shard task per rank, and the
    // last shard to finish reduces.
    ShardPlan shardPlan;
    std::vector<FaultOutcome> shardFaults;
    std::vector<GemmResult> shardResults;
    unsigned remainingShards = 0; ///< guarded by the session mutex

    // Workload request input / output.
    CompiledWorkload workload;
    InferenceReport report;

    // Residency home rank: 0 unless the submission pinned a rank
    // (SubmitOptions::rank — the scheduler's placement decision); a
    // settled failover moves it to the rank that serves the request.
    unsigned homeRank = 0;
    FaultOutcome fault; ///< settled outcome of a whole request

    bool done = false;
    bool claimed = false; ///< a waiter owns this request's result
    std::exception_ptr error;
};

InferenceSession::InferenceSession(BackendPtr backend,
                                   const SessionOptions& options)
    : backend_(std::move(backend)), options_(options)
{
    LOCALUT_REQUIRE(backend_ != nullptr, "InferenceSession needs a backend");
    const unsigned ranks = options_.numRanks;
    LOCALUT_REQUIRE(ranks >= 1, "a session needs at least one rank");
    if (options_.residencyPolicy != ResidencyPolicy::Disabled) {
        residency_ = std::make_unique<ResidencyManager>(
            backend_, ranks, options_.mramBudgetBytes,
            options_.residencyPolicy);
    }
    if (options_.faultInjector != nullptr) {
        LOCALUT_REQUIRE(options_.faultInjector->numRanks() == ranks,
                        "fault injector tracks ",
                        options_.faultInjector->numRanks(),
                        " ranks but the session models ", ranks);
        LOCALUT_REQUIRE(options_.faultPolicy.maxAttempts >= 1,
                        "FaultPolicy::maxAttempts must be at least 1");
        if (residency_ != nullptr) {
            // Rank death invalidates everything resident there: LUT
            // sets rebroadcast on next touch, KV streams become
            // displaced and re-home to a survivor at full-refill cost.
            ResidencyManager* residency = residency_.get();
            options_.faultInjector->onRankLoss(
                [residency](unsigned rank) {
                    residency->invalidateRank(rank);
                });
        }
    }
    rankQueues_.resize(ranks);
    unsigned workers = options_.workers;
    if (workers == 0) {
        const unsigned base = std::max(
            1u, std::min(8u, std::thread::hardware_concurrency()));
        // Enough workers that every rank's shard of a sharded GEMM can
        // be in flight at once.
        workers = std::max(base, std::min(ranks, 8u));
    }
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        workers_.emplace_back([this, i] { workerLoop(i); });
    }
}

InferenceSession::InferenceSession(const std::string& backendName,
                                   const SessionOptions& options)
    : InferenceSession(makeBackend(backendName), options)
{}

InferenceSession::~InferenceSession()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

unsigned
InferenceSession::workerCount() const
{
    return static_cast<unsigned>(workers_.size());
}

GemmPlan
InferenceSession::plan(const GemmProblem& problem, DesignPoint design,
                       const PlanOverrides& overrides)
{
    return cache_.planFor(*backend_, problem, design, overrides);
}

ShardPlan
InferenceSession::shardPlan(const GemmProblem& problem, DesignPoint design,
                            const PlanOverrides& overrides,
                            std::size_t align)
{
    const ShardSpec spec{options_.numRanks, options_.shardStrategy, align};
    return cache_.shardPlanFor(*backend_, problem, design, spec, overrides);
}

bool
InferenceSession::anyQueuedLocked() const
{
    return std::any_of(rankQueues_.begin(), rankQueues_.end(),
                       [](const auto& queue) { return !queue.empty(); });
}

unsigned
InferenceSession::pickRankLocked()
{
    // Continuous batching: park the task on the least-loaded rank queue,
    // rotating the starting rank so equally-loaded ranks share work.
    const unsigned ranks = static_cast<unsigned>(rankQueues_.size());
    const unsigned start = nextRank_++ % ranks;
    unsigned best = start;
    for (unsigned i = 1; i < ranks; ++i) {
        const unsigned rank = (start + i) % ranks;
        if (rankQueues_[rank].size() < rankQueues_[best].size()) {
            best = rank;
        }
    }
    return best;
}

InferenceSession::Task
InferenceSession::popTaskLocked(unsigned preferredRank)
{
    const unsigned ranks = static_cast<unsigned>(rankQueues_.size());
    for (unsigned i = 0; i < ranks; ++i) {
        auto& queue = rankQueues_[(preferredRank + i) % ranks];
        if (!queue.empty()) {
            const Task task = queue.front();
            queue.pop_front();
            return task;
        }
    }
    LOCALUT_PANIC("popTaskLocked on empty queues");
}

InferenceSession::RequestId
InferenceSession::enqueue(std::unique_ptr<Request> request,
                          const SubmitOptions& submitOptions)
{
    Request* raw = request.get();
    const bool pinned = submitOptions.rank >= 0;
    if (pinned) {
        LOCALUT_REQUIRE(static_cast<unsigned>(submitOptions.rank) <
                            totalRanks(),
                        "request pinned to rank ", submitOptions.rank,
                        " of a session with ", totalRanks(), " ranks");
        raw->homeRank = static_cast<unsigned>(submitOptions.rank);
    }
    const RequestId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    raw->id = id;
    // A pinned request executes whole (unsharded) on its rank; an
    // unpinned GEMM on a multi-rank session shards across ranks.  A
    // failed settle is the request's outcome: it is never queued and
    // wait() rethrows it.
    bool gang = !pinned && !raw->isWorkload && totalRanks() > 1;
    try {
        gang = settle(*raw, gang);
    } catch (...) {
        raw->error = std::current_exception();
        raw->done = true;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        LOCALUT_REQUIRE(!stopping_, "session is shutting down");
        if (!raw->done) {
            const unsigned rank = pinned ? raw->homeRank : pickRankLocked();
            rankQueues_[rank].push_back(
                {raw, gang ? kFanOutTask : kWholeTask, {}});
        }
        requests_.emplace(id, std::move(request));
    }
    queueCv_.notify_one();
    return id;
}

bool
InferenceSession::settle(Request& request, bool gang)
{
    FaultInjector* const inj = options_.faultInjector;
    const FaultPolicy& policy = options_.faultPolicy;
    ShardSpec spec{options_.numRanks, options_.shardStrategy, 1};
    std::vector<unsigned> survivors;
    bool reshard = false;
    if (gang && inj != nullptr) {
        survivors = inj->schedulableRanks();
        reshard = survivors.size() < totalRanks();
        if (reshard) {
            if (survivors.empty()) {
                inj->noteShedFault();
                throw FaultShedError(FaultInjector::kNoRank,
                                     "fault shed: no schedulable rank "
                                     "left to cut the GEMM across");
            }
            if (!policy.failover) {
                inj->noteShedFault();
                throw FaultShedError(survivors.front(),
                                     "fault shed: rank loss with "
                                     "failover disabled");
            }
            inj->noteFailover();
            // Re-shard over the survivor set: the survivor-count cut is
            // memoized like any other, the shards are remapped onto the
            // live ranks below, and the column/row reductions are exact
            // at any cut, so results stay bit-identical to healthy runs.
            // One survivor leaves nothing to cut: serve the request
            // whole on it (bit-exact by the numRanks = 1 equivalence).
            spec = ShardSpec{static_cast<unsigned>(survivors.size()),
                             options_.shardStrategy, 1};
            if (survivors.size() == 1) {
                request.homeRank = survivors.front();
                gang = false;
            }
        }
    }
    if (!gang) {
        if (inj != nullptr) {
            // Residency homes the tables on the rank that serves it.
            request.fault = resolveWholeFaults(*inj, policy, request.id,
                                               request.homeRank);
        }
        return false;
    }
    request.shardPlan = cache_.shardPlanFor(
        *backend_, request.problem, request.design, spec,
        request.overrides);
    const std::size_t shards = request.shardPlan.shards.size();
    request.shardResults.resize(shards);
    request.shardFaults.resize(shards);
    if (inj == nullptr) {
        return true;
    }
    for (std::size_t i = 0; i < shards; ++i) {
        GemmShard& shard = request.shardPlan.shards[i];
        if (reshard) {
            shard.rank = survivors[shard.rank % survivors.size()];
        }
        // Shards never hop ranks — the survivor re-shard is the failover
        // — so exhausting the retry budget sheds the whole request.
        const unsigned rank = shard.rank % totalRanks();
        FaultOutcome& fault = request.shardFaults[i];
        fault.retries = transientFailures(
            *inj, policy, request.id, rank,
            /*salt=*/static_cast<std::uint64_t>(i) + 1,
            fault.backoffSeconds);
        if (fault.retries >= policy.maxAttempts) {
            inj->noteShedFault();
            throw FaultShedError(
                rank, "fault shed: shard " + std::to_string(i) +
                          " exhausted its attempts on rank " +
                          std::to_string(rank));
        }
    }
    for (const FaultOutcome& fault : request.shardFaults) {
        inj->noteRetries(fault.retries);
        inj->noteBackoff(fault.backoffSeconds);
    }
    return true;
}

InferenceSession::RequestId
InferenceSession::submit(GemmProblem problem, DesignPoint design,
                         bool computeValues, const PlanOverrides& overrides,
                         const SubmitOptions& submitOptions)
{
    // Reject malformed operands here, on the caller's thread: a short
    // code vector would otherwise surface as an out-of-bounds read when
    // a shard slices it or a kernel packs it.
    requireOperandShapes(problem);
    auto request = std::make_unique<Request>();
    request->isWorkload = false;
    request->problem = std::move(problem);
    request->design = design;
    request->overrides = overrides;
    request->computeValues = computeValues;
    return enqueue(std::move(request), submitOptions);
}

InferenceSession::RequestId
InferenceSession::submit(CompiledWorkload workload,
                         const SubmitOptions& submitOptions)
{
    LOCALUT_REQUIRE(submitOptions.rank < 0 || !workload.sharded(),
                    "a sharded workload spans every rank and cannot be "
                    "pinned to one (compileUnsharded() it instead)");
    auto request = std::make_unique<Request>();
    request->isWorkload = true;
    request->workload = std::move(workload);
    return enqueue(std::move(request), submitOptions);
}

InferenceSession::CompiledWorkload
InferenceSession::compile(const WorkloadSpec& spec, const QuantConfig& quant,
                          DesignPoint design, const PlanOverrides& overrides)
{
    return compileWith(spec, quant, design, overrides, options_.numRanks);
}

InferenceSession::CompiledWorkload
InferenceSession::compileUnsharded(const WorkloadSpec& spec,
                                   const QuantConfig& quant,
                                   DesignPoint design,
                                   const PlanOverrides& overrides)
{
    return compileWith(spec, quant, design, overrides, /*numRanks=*/1);
}

InferenceSession::CompiledWorkload
InferenceSession::compileWith(const WorkloadSpec& spec,
                              const QuantConfig& quant, DesignPoint design,
                              const PlanOverrides& overrides,
                              unsigned numRanks)
{
    CompiledWorkload workload;
    workload.spec = spec;
    workload.quant = quant;
    workload.design = design;
    workload.overrides = overrides;
    workload.numRanks = numRanks;
    workload.backendName = backend_->name();
    workload.backendFingerprint = backend_->configFingerprint();
    for (const WorkloadGemm& gemm : workloadGemms(spec)) {
        const GemmProblem problem =
            makeShapeOnlyProblem(gemm.m, gemm.k, gemm.n, quant);
        if (numRanks > 1) {
            // Tensor-parallel column cut across every rank, aligned to
            // the GEMM's row grouping — attention heads for QKV
            // (head-parallel), 1 elsewhere.
            const ShardSpec shard{numRanks, options_.shardStrategy,
                                  gemm.rowAlign};
            workload.shardedNodes.push_back(
                {gemm, cache_.shardPlanFor(*backend_, problem, design,
                                           shard, overrides)});
        } else {
            workload.nodes.push_back(
                {gemm,
                 cache_.planFor(*backend_, problem, design, overrides)});
        }
    }
    workload.hostOps = workloadHostOps(spec);
    return workload;
}

WorkloadCostProjection
InferenceSession::projectCost(const CompiledWorkload& workload) const
{
    return workload.sharded()
               ? projectShardedWorkloadCost(*backend_,
                                            workload.shardedNodes,
                                            workload.quant,
                                            workload.hostOps)
               : projectWorkloadCost(*backend_, workload.nodes,
                                     workload.quant, workload.hostOps);
}

InferenceReport
InferenceSession::run(const CompiledWorkload& workload) const
{
    return runAt(workload, /*homeRank=*/0);
}

InferenceReport
InferenceSession::runAt(const CompiledWorkload& workload,
                        unsigned homeRank) const
{
    // Plans only make sense on the device model that produced them.
    LOCALUT_REQUIRE(workload.backendName == backend_->name() &&
                        workload.backendFingerprint ==
                            backend_->configFingerprint(),
                    "workload compiled for backend \"",
                    workload.backendName,
                    "\" submitted to a session on \"", backend_->name(),
                    "\"");
    // Unsharded workloads occupy one rank and are valid on any session
    // of this backend (the scheduler serves them data-parallel); a
    // sharded cut must match the session's rank count exactly.
    LOCALUT_REQUIRE(!workload.sharded() ||
                        workload.numRanks == options_.numRanks,
                    "workload compiled for ", workload.numRanks,
                    " ranks submitted to a session with ",
                    options_.numRanks,
                    " (recompile on this session to re-cut the shards)");
    const ExecOptions nodeOptions = execOptions(/*computeValues=*/false);
    InferenceReport report =
        workload.sharded()
            ? executeShardedWorkload(*backend_, workload.shardedNodes,
                                     workload.quant, workload.hostOps,
                                     nodeOptions)
            : executeWorkload(*backend_, workload.nodes, workload.quant,
                              workload.hostOps, nodeOptions);
    if (residency_ == nullptr) {
        return report;
    }
    // Thread every GEMM node through the residency manager: each
    // distinct (layer, shape, design) table set broadcasts host -> PIM
    // on first touch and is free while it stays MRAM-resident, so a
    // repeated decode request pays table transfer once per layer
    // instead of once per step.
    const double steps = workload.spec.phase == WorkloadPhase::Decode
                             ? std::max(1u, workload.spec.steps)
                             : 1.0;
    auto chargeNode = [&](const ResidencyCharge& charge) {
        charge.apply(report.timing, report.energy);
        report.lutBroadcastSeconds += charge.seconds;
    };
    // count aggregates layers (and decode steps); the per-layer table
    // instances are count / steps.  Unsharded sets home on the
    // request's placement rank; sharded sets span their cut's ranks.
    for (const PlanNode& node : workload.nodes) {
        chargeNode(residency_->acquire(node.plan, node.gemm.role,
                                       node.gemm.count / steps, homeRank));
    }
    for (const ShardedGemm& node : workload.shardedNodes) {
        chargeNode(residency_->acquire(node.plan, node.gemm.role,
                                       node.gemm.count / steps));
    }
    return report;
}

ExecOptions
InferenceSession::execOptions(bool computeValues) const
{
    ExecOptions options;
    options.computeValues = computeValues;
    if (workerCount() > 1) {
        options.tiles = &poolTiles_;
    }
    return options;
}

void
InferenceSession::runWhole(Request& request)
{
    if (request.isWorkload) {
        request.report = runAt(request.workload, request.homeRank);
        chargeFaultPenalty(request.report.timing, request.fault);
        return;
    }
    // Plans are memoized; identical shapes across requests hit the cache.
    const GemmPlan plan = cache_.planFor(*backend_, request.problem,
                                         request.design, request.overrides);
    ExecOptions options = execOptions(request.computeValues);
    // Prepared operands are memoized alongside the plan (keyed by the
    // plan key + weight fingerprint), so repeated requests against the
    // same weights skip packing and table construction entirely.
    const std::shared_ptr<const PreparedGemm> prepared =
        cache_.operandFor(*backend_, request.problem, plan,
                          request.computeValues, request.overrides);
    options.prepared = prepared.get();
    request.result = backend_->execute(request.problem, plan, options);
    if (residency_ != nullptr) {
        residency_->acquire(plan, "", 1.0, request.homeRank)
            .apply(request.result.timing, request.result.energy,
                   &request.result.cost);
    }
    chargeFaultPenalty(request.result.timing, request.fault);
}

void
InferenceSession::runShard(Request& request, unsigned shardIndex)
{
    const GemmProblem slice =
        shardProblem(request.problem, request.shardPlan, shardIndex);
    const GemmPlan& plan = request.shardPlan.shards[shardIndex].plan;
    ExecOptions options = execOptions(request.computeValues);
    const std::shared_ptr<const PreparedGemm> prepared =
        cache_.operandFor(*backend_, slice, plan, request.computeValues,
                          request.overrides);
    options.prepared = prepared.get();
    request.shardResults[shardIndex] =
        backend_->execute(slice, plan, options);
    chargeFaultPenalty(request.shardResults[shardIndex].timing,
                       request.shardFaults[shardIndex]);
}

void
InferenceSession::finishRequest(Request& request)
{
    std::unique_lock<std::mutex> lock(mutex_);
    request.done = true;
    doneCv_.notify_all();
}

void
InferenceSession::runTileBatch(std::size_t tiles,
                               const std::function<void(std::size_t)>& fn)
{
    if (tiles == 0) {
        return;
    }
    if (tiles == 1 || workerCount() <= 1 || tlDrainingSession == this) {
        // Serial shapes, a single-worker session, and NESTED
        // submissions (a tile closure re-entering the session executor
        // it is already draining a tile of) all drain inline.
        for (std::size_t i = 0; i < tiles; ++i) {
            fn(i);
        }
        return;
    }
    auto batch = std::make_shared<TileBatch>();
    batch->fn = &fn;
    batch->count = tiles;
    batch->claimChunk = claimChunkFor(tiles, workerCount() + 1);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Front of every rank queue: an idle worker's next pop helps
        // finish the GEMM someone is already executing.  A stale claim
        // task (batch already exhausted) is popped and dropped.
        for (auto& queue : rankQueues_) {
            queue.push_front(Task{nullptr, kTileTask, batch});
        }
    }
    queueCv_.notify_all();
    // Participate: the submitting thread claims tiles too, so the batch
    // completes even if every worker is busy elsewhere.
    bool last;
    {
        SessionDrainScope scope(this);
        last = batch->drain();
    }
    if (last) {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.notify_all();
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&batch] { return batch->settled(); });
    }
    batch->rethrowIfError();
}

void
InferenceSession::runTask(const Task& task)
{
    if (task.shard == kTileTask) {
        bool last;
        {
            SessionDrainScope scope(this);
            last = task.tiles->drain();
        }
        if (last) {
            std::unique_lock<std::mutex> lock(mutex_);
            doneCv_.notify_all();
        }
        return;
    }
    Request& request = *task.request;
    if (task.shard == kFanOutTask) {
        // Queue one task per shard on its rank.  This runs on a worker
        // rather than in submit(): fanning out from the submitting
        // thread measured slower on closed-loop decode.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            request.remainingShards =
                static_cast<unsigned>(request.shardPlan.shards.size());
            for (unsigned i = 0; i < request.remainingShards; ++i) {
                rankQueues_[request.shardPlan.shards[i].rank % totalRanks()]
                    .push_back({&request, static_cast<int>(i), {}});
            }
        }
        queueCv_.notify_all();
        return;
    }
    if (task.shard == kWholeTask) {
        try {
            runWhole(request);
        } catch (...) {
            request.error = std::current_exception();
        }
        finishRequest(request);
        return;
    }
    // One shard of a sharded GEMM.  The last shard to finish reduces in
    // shard-index order, so the result is deterministic regardless of
    // which workers ran which shards in what order.
    try {
        runShard(request, static_cast<unsigned>(task.shard));
    } catch (...) {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!request.error) {
            request.error = std::current_exception();
        }
    }
    bool last = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        LOCALUT_ASSERT(request.remainingShards > 0,
                       "shard finished after its request completed");
        last = --request.remainingShards == 0;
    }
    if (!last) {
        return;
    }
    if (!request.error) {
        try {
            request.result =
                reduceShardResults(*backend_, request.shardPlan,
                                   std::move(request.shardResults));
            if (residency_ != nullptr) {
                // Each shard's table set consumes its own rank's budget.
                residency_->acquire(request.shardPlan)
                    .apply(request.result.timing, request.result.energy,
                           &request.result.cost);
            }
        } catch (...) {
            request.error = std::current_exception();
        }
    }
    finishRequest(request);
}

void
InferenceSession::workerLoop(unsigned workerIndex)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        queueCv_.wait(
            lock, [this] { return stopping_ || anyQueuedLocked(); });
        if (!anyQueuedLocked()) {
            if (stopping_) {
                return;
            }
            continue;
        }
        const Task task = popTaskLocked(workerIndex);
        lock.unlock();
        runTask(task);
        lock.lock();
    }
}

std::unique_ptr<InferenceSession::Request>
InferenceSession::take(RequestId id, bool wantWorkload)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = requests_.find(id);
    LOCALUT_REQUIRE(it != requests_.end(),
                    "unknown (or already waited-on) request id ", id);
    Request* request = it->second.get();
    LOCALUT_REQUIRE(!request->claimed,
                    "request ", id, " already has a waiter");
    LOCALUT_REQUIRE(request->isWorkload == wantWorkload,
                    wantWorkload ? "waitReport() on a GEMM request"
                                 : "wait() on a workload request");
    // The claim keeps concurrent waiters out; the pointer stays valid
    // across the wait (node-based map), but `it` may not (rehash on
    // concurrent submits), so re-find before erasing.
    request->claimed = true;
    doneCv_.wait(lock, [request] { return request->done; });
    auto again = requests_.find(id);
    LOCALUT_ASSERT(again != requests_.end(), "claimed request vanished");
    std::unique_ptr<Request> owned = std::move(again->second);
    requests_.erase(again);
    return owned;
}

GemmResult
InferenceSession::wait(RequestId id)
{
    std::unique_ptr<Request> request = take(id, /*wantWorkload=*/false);
    if (request->error) {
        std::rethrow_exception(request->error);
    }
    return std::move(request->result);
}

InferenceReport
InferenceSession::waitReport(RequestId id)
{
    std::unique_ptr<Request> request = take(id, /*wantWorkload=*/true);
    if (request->error) {
        std::rethrow_exception(request->error);
    }
    return request->report;
}

void
InferenceSession::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] {
        if (anyQueuedLocked()) {
            return false;
        }
        return std::all_of(requests_.begin(), requests_.end(),
                           [](const auto& kv) { return kv.second->done; });
    });
}

std::size_t
InferenceSession::pendingRequests() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    std::size_t pending = 0;
    for (const auto& [id, request] : requests_) {
        if (!request->done) {
            ++pending;
        }
    }
    return pending;
}

} // namespace localut
