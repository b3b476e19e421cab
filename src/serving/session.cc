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

/** The GEMM share compile() priced into @p workload; fatals on a
 * workload no session compiled. */
const InferenceReport&
gemmShareOf(const InferenceSession::CompiledWorkload& workload)
{
    LOCALUT_REQUIRE(workload.gemmShare != nullptr,
                    "workload was not compiled: it has no priced GEMM "
                    "share (build it with InferenceSession::compile())");
    return *workload.gemmShare;
}

/**
 * The session whose tile batch this thread is currently draining (null
 * when not inside a tile).  A tile closure that re-enters
 * runTileBatch() on the same session must drain inline: re-submitting
 * from inside a tile would have this thread compete with (and wait on)
 * the batch it is itself a tile of.  Mirrors the TilePool nested-run
 * guard in common/parallel.cc.  A gang's shards clear the marker, so
 * their GEMMs fan tiles out (runGang()).
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

/** One submitted GEMM request. */
struct InferenceSession::Request {
    RequestId id = 0;

    // Inputs / output.
    GemmProblem problem;
    DesignPoint design = DesignPoint::LoCaLut;
    PlanOverrides overrides;
    bool computeValues = false;
    /** A whole GEMM's plan, looked up at submit. */
    GemmPlan plan{DesignPoint::LoCaLut,
                  QuantConfig{ValueCodec::signedBinary(),
                              ValueCodec::signedBinary()}};
    GemmResult result;

    // Gang state (no shards on a whole request): settle() cuts the plan
    // and decides each shard's fault outcome; runGang() runs the shards
    // as one tile batch and reduces them.
    ShardPlan shardPlan;
    std::vector<FaultOutcome> shardFaults;
    std::vector<GemmResult> shardResults;

    // Residency home rank: 0 unless the submission pinned a rank
    // (SubmitOptions::rank — the scheduler's placement decision); a
    // settled failover moves it to the rank that serves the request.
    unsigned homeRank = 0;
    FaultOutcome fault; ///< settled outcome of a whole request
    /** Table broadcast acquired at submit; the worker folds it into the
     * result (a default charge is a hit and folds in nothing). */
    ResidencyCharge residency;

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
            backend_, ranks, options_.mramBudgetBytes);
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
        workers_.emplace_back([this] { workerLoop(); });
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

unsigned
InferenceSession::homeRankFor(const SubmitOptions& submitOptions) const
{
    if (submitOptions.rank < 0) {
        return 0;
    }
    LOCALUT_REQUIRE(static_cast<unsigned>(submitOptions.rank) < totalRanks(),
                    "request pinned to rank ", submitOptions.rank,
                    " of a session with ", totalRanks(), " ranks");
    return static_cast<unsigned>(submitOptions.rank);
}

InferenceSession::RequestId
InferenceSession::enqueue(std::unique_ptr<Request> request,
                          const SubmitOptions& submitOptions)
{
    Request* raw = request.get();
    raw->homeRank = homeRankFor(submitOptions);
    const RequestId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    raw->id = id;
    // A pinned request executes whole (unsharded) on its rank; an
    // unpinned GEMM on a multi-rank session shards across ranks.  Once
    // settle() has fixed the serving rank(s), the request's table sets
    // are acquired here, in submission order, so the residency manager
    // is current when submit() returns.  A failure is the request's
    // outcome: it is never queued and wait() rethrows it.
    bool gang = submitOptions.rank < 0 && totalRanks() > 1;
    try {
        gang = settle(*raw, gang);
        if (!gang) {
            // Plans are memoized; identical shapes across requests hit
            // the cache.
            raw->plan = cache_.planFor(*backend_, raw->problem, raw->design,
                                       raw->overrides);
        }
        if (residency_ != nullptr) {
            // A cut's shards name absolute ranks (a survivor re-shard
            // remaps them), so its set spans the session's ranks; each
            // shard's tables consume their own rank's budget.
            raw->residency = residency_->acquire(
                gang ? resolveTableSet(raw->shardPlan, "", 1.0,
                                       totalRanks())
                     : resolveTableSet(raw->plan),
                raw->homeRank);
        }
    } catch (...) {
        raw->error = std::current_exception();
        raw->done = true;
    }
    const bool queued = !raw->done;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        LOCALUT_REQUIRE(!stopping_, "session is shutting down");
        if (queued) {
            queue_.push_back({raw, {}});
        }
        requests_.emplace(id, std::move(request));
    }
    if (queued) {
        queueCv_.notify_one();
    }
    return id;
}

bool
InferenceSession::settle(Request& request, bool gang)
{
    FaultInjector* const inj = options_.faultInjector;
    const FaultPolicy& policy = options_.faultPolicy;
    ShardSpec spec{options_.numRanks, 1};
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
            // live ranks below, and the all-gather is exact at any cut,
            // so results stay bit-identical to healthy runs.
            // One survivor leaves nothing to cut: serve the request
            // whole on it (bit-exact by the numRanks = 1 equivalence).
            spec = ShardSpec{static_cast<unsigned>(survivors.size()), 1};
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
    request->problem = std::move(problem);
    request->design = design;
    request->overrides = overrides;
    request->computeValues = computeValues;
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
    // count aggregates layers (and decode steps); a table set holds one
    // copy per layer, so its instances are count / steps.
    const double steps = spec.phase == WorkloadPhase::Decode
                             ? std::max(1u, spec.steps)
                             : 1.0;
    for (const WorkloadGemm& gemm : workloadGemms(spec)) {
        const GemmProblem problem =
            makeShapeOnlyProblem(gemm.m, gemm.k, gemm.n, quant);
        if (numRanks > 1) {
            // Tensor-parallel column cut across every rank, aligned to
            // the GEMM's row grouping — attention heads for QKV
            // (head-parallel), 1 elsewhere.
            const ShardSpec shard{numRanks, gemm.rowAlign};
            workload.shardedNodes.push_back(
                {gemm, cache_.shardPlanFor(*backend_, problem, design,
                                           shard, overrides)});
            workload.tableSets.push_back(
                resolveTableSet(workload.shardedNodes.back().plan,
                                gemm.role, gemm.count / steps, numRanks));
        } else {
            workload.nodes.push_back(
                {gemm,
                 cache_.planFor(*backend_, problem, design, overrides)});
            workload.tableSets.push_back(resolveTableSet(
                workload.nodes.back().plan, gemm.role, gemm.count / steps));
        }
    }
    workload.hostOps = workloadHostOps(spec);
    // A node's modeled cost depends only on its plan, so the graph is
    // priced once here; run() and projectCost() read the share.
    workload.gemmShare = std::make_shared<const InferenceReport>(
        numRanks > 1 ? priceShardedWorkloadGemms(
                           *backend_, workload.shardedNodes, quant)
                     : priceWorkloadGemms(*backend_, workload.nodes, quant));
    return workload;
}

WorkloadCostProjection
InferenceSession::projectCost(const CompiledWorkload& workload) const
{
    const InferenceReport& share = gemmShareOf(workload);
    TimingReport hostTiming;
    EnergyReport hostEnergy;
    backend_->chargeHostOps(workload.hostOps, hostTiming, hostEnergy);
    return {share.gemmSeconds, share.hostOpSeconds + hostTiming.total,
            share.collectiveSeconds};
}

InferenceReport
InferenceSession::run(const CompiledWorkload& workload,
                      const SubmitOptions& submitOptions)
{
    LOCALUT_REQUIRE(submitOptions.rank < 0 || !workload.sharded(),
                    "a sharded workload spans every rank and cannot be "
                    "pinned to one (compileUnsharded() it instead)");
    unsigned rank = homeRankFor(submitOptions);
    const RequestId id = nextId_.fetch_add(1, std::memory_order_relaxed);
    // Fault outcomes hash on the request id, drawn from the same counter
    // as GEMM requests; a failover moves the residency home with it.
    FaultOutcome fault;
    if (options_.faultInjector != nullptr) {
        fault = resolveWholeFaults(*options_.faultInjector,
                                   options_.faultPolicy, id, rank);
    }
    InferenceReport report = runAt(workload, rank);
    chargeFaultPenalty(report.timing, fault);
    report.rank = rank;
    return report;
}

InferenceReport
InferenceSession::runAt(const CompiledWorkload& workload,
                        unsigned homeRank) const
{
    const InferenceReport& share = gemmShareOf(workload);
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
    // The broadcast-free report: the share priced at compile, then the
    // host ops after it, as a fresh pricing would accumulate them.
    InferenceReport report = share;
    chargeWorkloadHostOps(*backend_, workload.hostOps, report);
    if (residency_ == nullptr) {
        return report;
    }
    // Thread every node's table set through the residency manager: each
    // distinct (layer, shape, design) set broadcasts host -> PIM on
    // first touch and is free while it stays MRAM-resident, so a
    // repeated decode request pays table transfer once per layer
    // instead of once per step.  Unsharded sets home on the request's
    // placement rank; sharded sets span their cut's ranks.
    for (const ResolvedTableSet& set : workload.tableSets) {
        const ResidencyCharge charge = residency_->acquire(set, homeRank);
        charge.apply(report.timing, report.energy);
        report.lutBroadcastSeconds += charge.seconds;
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
    ExecOptions options = execOptions(request.computeValues);
    // Prepared operands are memoized alongside the plan (keyed by the
    // plan key + weight fingerprint), so repeated requests against the
    // same weights skip packing and table construction entirely.
    const std::shared_ptr<const PreparedGemm> prepared =
        cache_.operandFor(*backend_, request.problem, request.plan,
                          request.computeValues, request.overrides);
    options.prepared = prepared.get();
    request.result =
        backend_->execute(request.problem, request.plan, options);
    request.residency.apply(request.result.timing, request.result.energy,
                            &request.result.cost);
    chargeFaultPenalty(request.result.timing, request.fault);
}

void
InferenceSession::runGang(Request& request)
{
    // The gang's worker fans its shards out as a tile batch; fanning out
    // from the submitting thread instead measured slower on closed-loop
    // decode.  The batch rethrows the lowest-index shard's error, and
    // the reduce runs in shard-index order, so neither depends on which
    // thread ran which shard.  Each shard clears the nested-drain marker
    // so its own tiles fan out too.  Those tiles run under the marker
    // and start no batch, so a thread waiting on a shard waits only on
    // leaf tiles that running threads hold.
    const std::function<void(std::size_t)> shard = [&](std::size_t i) {
        SessionDrainScope scope(nullptr);
        runShard(request, static_cast<unsigned>(i));
    };
    runTileBatch(request.shardPlan.shards.size(), shard);
    request.result = reduceShardResults(request.shardPlan,
                                        std::move(request.shardResults));
    request.residency.apply(request.result.timing, request.result.energy,
                            &request.result.cost);
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
        // One claim per worker at the front of the queue: an idle
        // worker's next pop helps finish the GEMM someone is already
        // executing.  A stale claim (batch already exhausted) is popped
        // and dropped.
        queue_.insert(queue_.begin(), workerCount(), Task{nullptr, batch});
    }
    queueCv_.notify_all();
    // Participate: the calling thread claims every tile no other thread
    // has, so it then waits only on tiles that running threads hold, and
    // the batch completes even if every worker is busy elsewhere.
    drainTiles(*batch);
    {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.wait(lock, [&batch] { return batch->settled(); });
    }
    batch->rethrowIfError();
}

void
InferenceSession::drainTiles(TileBatch& batch)
{
    bool last;
    {
        SessionDrainScope scope(this);
        last = batch.drain();
    }
    if (last) {
        std::unique_lock<std::mutex> lock(mutex_);
        doneCv_.notify_all();
    }
}

void
InferenceSession::runTask(const Task& task)
{
    if (task.tiles != nullptr) {
        drainTiles(*task.tiles);
        return;
    }
    Request& request = *task.request;
    try {
        if (request.shardPlan.shards.empty()) {
            runWhole(request);
        } else {
            runGang(request);
        }
    } catch (...) {
        request.error = std::current_exception();
    }
    finishRequest(request);
}

void
InferenceSession::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        queueCv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            return; // stopping, and nothing is left to run
        }
        const Task task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        runTask(task);
        lock.lock();
    }
}

GemmResult
InferenceSession::wait(RequestId id)
{
    std::unique_ptr<Request> request;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto it = requests_.find(id);
        LOCALUT_REQUIRE(it != requests_.end(),
                        "unknown (or already waited-on) request id ", id);
        Request* raw = it->second.get();
        LOCALUT_REQUIRE(!raw->claimed,
                        "request ", id, " already has a waiter");
        // The claim keeps concurrent waiters out; the pointer stays valid
        // across the wait (node-based map), but `it` may not (rehash on
        // concurrent submits), so re-find before erasing.
        raw->claimed = true;
        doneCv_.wait(lock, [raw] { return raw->done; });
        auto again = requests_.find(id);
        LOCALUT_ASSERT(again != requests_.end(),
                       "claimed request vanished");
        request = std::move(again->second);
        requests_.erase(again);
    }
    if (request->error) {
        std::rethrow_exception(request->error);
    }
    return std::move(request->result);
}

void
InferenceSession::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    // Only the requests decide: a claim still queued belongs to a
    // running request or to a batch that has already settled, and
    // popping a stale claim wakes no one.
    doneCv_.wait(lock, [this] {
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
