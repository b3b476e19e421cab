#ifndef LOCALUT_SERVING_SESSION_H_
#define LOCALUT_SERVING_SESSION_H_

/**
 * @file
 * The serving API: an InferenceSession binds a Backend to a PlanCache and
 * a worker pool, so callers compile a workload (or an individual GEMM)
 * once and then submit requests against it:
 *
 *     InferenceSession session(makeBackend("upmem"));
 *     auto workload = session.compile(
 *         WorkloadSpec::decode(TransformerConfig::opt125m(), 32, 128, 16),
 *         QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);
 *     InferenceReport report = session.run(workload);
 *
 * Plans are memoized in the session's PlanCache keyed by (shape,
 * QuantConfig, DesignPoint, overrides, shard config, backend), so
 * repeated decode steps — and repeated requests in a serving loop — stop
 * paying planner cost.  Value-computing GEMMs also fetch their prepared
 * operands (packed weights and LUT tables, kernels/exec_engine.h) from
 * the same cache, so repeated requests against the same weights stop
 * re-packing them.  Every GemmProblem/workload is executed exactly as
 * the synchronous API would execute it; requests are independent, so
 * results are deterministic regardless of completion order.
 *
 * Every serving decision is made on the calling thread: the fault
 * outcome, the rank cut, and the LUT table sets the request acquires
 * from the ResidencyManager, so charges follow submission order
 * whatever the worker timing.  Workers only execute submitted GEMMs and
 * fold the settled charges in.  A workload computes no values, so run()
 * settles its whole report and returns it; it never reaches a worker.
 *
 * Workers share one FIFO work queue.  Since every modeled number is
 * settled at submit, which worker runs a task changes no output, so no
 * queue belongs to a rank.
 *
 * Sharding: with SessionOptions::numRanks > 1 the session models that
 * many logical PIM ranks.  An unpinned GEMM is cut by a ShardPlan
 * (serving/sharding.h) into a gang, one shard per rank.  The worker
 * that pops the gang runs its shards as one tile batch that idle
 * workers help finish, then reduces them in shard-index order, so
 * results stay bit-exact with numRanks = 1.  Compiled workloads shard
 * every GEMM node the same way (column-parallel for FFN/QKV,
 * head-aligned — i.e. head-parallel — for QKV).
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "common/parallel.h"
#include "nn/inference.h"
#include "nn/workload.h"
#include "serving/fault.h"
#include "serving/plan_cache.h"
#include "serving/residency.h"
#include "serving/sharding.h"

namespace localut {

/** Session-wide knobs. */
struct SessionOptions {
    /**
     * Worker threads; 0 picks min(hardware_concurrency, 8).  With more
     * than one worker, the functional pass of each GEMM is also cut
     * into output tiles that idle workers help finish; tiles write
     * disjoint output ranges with a fixed per-element accumulation
     * order, so results are bit-identical to serial execution.
     */
    unsigned workers = 0;
    /**
     * Logical PIM ranks behind the host link (num_ranks).  1 executes
     * exactly as before; > 1 shards every unpinned GEMM across the
     * ranks and executes the shards concurrently as one tile batch,
     * bit-exact with 1.
     */
    unsigned numRanks = 1;
    /**
     * LUT residency tracking (serving/residency.h).  Disabled (the
     * default) reproduces the pre-residency cost model: tables are never
     * charged nor retained.  Any other policy threads every submitted
     * GEMM through the session's ResidencyManager: a first-touch GEMM
     * pays an explicit host -> PIM table broadcast (Phase::LutBroadcast)
     * and later requests find the tables MRAM-resident and pay nothing —
     * so InferenceReport distinguishes cold-start from steady-state
     * serving.  Functional values are identical either way.
     */
    ResidencyPolicy residencyPolicy = ResidencyPolicy::Disabled;
    /**
     * Per-unit (per DPU / bank) MRAM byte budget for resident table
     * sets; 0 uses the backend's Backend::memoryProfile() default.
     * Ignored while residencyPolicy is Disabled.
     */
    std::uint64_t mramBudgetBytes = 0;
    /**
     * Deterministic fault injector (serving/fault.h) that submit() and
     * run() consult to settle each request's fault outcome before
     * executing it; shared with the scheduler and token engine so all
     * layers see one health registry.  nullptr (the
     * default) serves fault-free with zero overhead.  Not owned: the
     * injector must outlive the session, must track numRanks ranks, and
     * its scheduled faults must not fire after the
     * session is destroyed (the session registers a rank-loss listener
     * that touches its residency manager).  With an injector set,
     * transient execute failures retry under `faultPolicy` with capped
     * exponential virtual-time backoff, dead/quarantined ranks re-home
     * or re-shard work (failover) or shed it (FaultShedError surfaces
     * at wait(), or from run()), and all retry/backoff cost is charged
     * as modeled seconds into the request's TimingReport — never a
     * wall-clock sleep.
     */
    FaultInjector* faultInjector = nullptr;
    /** Retry / quarantine / failover policy; used only with an injector. */
    FaultPolicy faultPolicy;
};

/**
 * Per-submission knobs (the defaults reproduce the un-hinted API).
 * The SLO-aware scheduler (serving/scheduler.h) and the token engine
 * (serving/token_engine.h) are the main callers: their placement
 * decisions pin requests to the rank they chose.
 */
struct SubmitOptions {
    /**
     * Rank this request is pinned to: its residency home, and the first
     * rank its fault outcome is settled on.  -1 leaves it unpinned,
     * which homes it on rank 0 and — for GEMMs on a numRanks > 1
     * session — shards the GEMM across the ranks.  A pinned request
     * executes *whole* (unsharded) on that rank: the data-parallel
     * serving regime, where each rank is a replica serving complete
     * requests.  A pinned rank must be below
     * InferenceSession::totalRanks().
     */
    int rank = -1;
};

/**
 * Compile-once / submit-many serving sessions on one backend.
 *
 * Thread-safety: all public methods are safe to call concurrently; GEMM
 * execution runs on the session's worker pool (backends are stateless
 * and const, the PlanCache is internally locked).
 */
class InferenceSession
{
  public:
    /** Handle for one submitted request (consumed by wait()). */
    using RequestId = std::uint64_t;

    /** A planned GEMM node of a compiled workload. */
    using PlanNode = PlannedGemm;

    /** A workload compiled into a plan graph (backend-specific), with
     * its GEMM share priced once at compile. */
    struct CompiledWorkload {
        WorkloadSpec spec;           ///< the phase this graph executes
        QuantConfig quant{ValueCodec::signedBinary(),
                          ValueCodec::signedBinary()}; ///< quantization
        DesignPoint design = DesignPoint::LoCaLut; ///< design point
        PlanOverrides overrides;     ///< planner overrides in effect
        std::vector<PlanNode> nodes; ///< one per distinct GEMM shape
        /** Sharded plan graph; populated instead of `nodes` when the
         * session compiles with numRanks > 1. */
        std::vector<ShardedGemm> shardedNodes;
        /** Each node's LUT table set, resolved at compile in node
         * order; run() acquires them under the request's home rank. */
        std::vector<ResolvedTableSet> tableSets;
        unsigned numRanks = 1;       ///< ranks the cut was for
        /** Non-GEMM host work (scalar ops); run() and projectCost()
         * charge it on every call, so a copy may change it. */
        double hostOps = 0;
        /**
         * The graph's GEMM share, priced at compile: every node's
         * timing and energy accumulated in node order into an empty
         * report (GEMM, collective and shard-reduce seconds; no host
         * ops).  run() copies it and charges hostOps on top;
         * projectCost() reads it.  Const and shared, so copying the
         * workload costs a refcount bump, and editing `nodes` after
         * compile does not re-price them.  Null on a workload no
         * session compiled, which run() and projectCost() reject.
         */
        std::shared_ptr<const InferenceReport> gemmShare;
        /** Identity of the backend that compiled the plans; a session
         * refuses to execute another backend's workload. */
        std::string backendName;
        std::uint64_t backendFingerprint = 0; ///< device-config hash

        /** True when this workload was cut across ranks. */
        bool sharded() const { return !shardedNodes.empty(); }
    };

    /** Opens a session on @p backend under @p options. */
    explicit InferenceSession(BackendPtr backend,
                              const SessionOptions& options = {});

    /** Convenience: looks the backend up by registry name. */
    explicit InferenceSession(const std::string& backendName,
                              const SessionOptions& options = {});

    /** Drains outstanding requests, then stops the workers. */
    ~InferenceSession();

    InferenceSession(const InferenceSession&) = delete; ///< non-copyable
    InferenceSession&
    operator=(const InferenceSession&) = delete; ///< non-copyable

    /** The device model requests execute on. */
    const Backend& backend() const { return *backend_; }
    /** The options the session was opened with. */
    const SessionOptions& options() const { return options_; }
    /** Ranks the session models. */
    unsigned totalRanks() const { return options_.numRanks; }
    /** Worker threads serving the work queue. */
    unsigned workerCount() const;

    /** Plans one GEMM through the session cache (memoized). */
    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides = {});

    /** Hit/miss counters of the session's PlanCache. */
    PlanCache::Stats planCacheStats() const { return cache_.stats(); }

    /** The session's residency manager; nullptr while
     * SessionOptions::residencyPolicy is Disabled. */
    ResidencyManager* residency() const { return residency_.get(); }

    /** Zero-valued stats while residency is disabled. */
    ResidencyStats residencyStats() const
    {
        return residency_ ? residency_->stats() : ResidencyStats{};
    }

    // ------------------------------------------------- GEMM requests
    /**
     * Enqueues one GEMM without executing it.  @p computeValues runs
     * the functional pass (false = cost accounting only).  A pinned
     * rank in @p submitOptions executes the GEMM whole (unsharded) and
     * homes its LUT residency on that rank; an unpinned GEMM on a
     * multi-rank session is cut across the ranks here.
     * Malformed input fatals here, before any work is queued:
     * materialized codes whose count is not rows x cols, or a pinned
     * rank outside [0, totalRanks()).
     */
    RequestId submit(GemmProblem problem, DesignPoint design,
                     bool computeValues = false,
                     const PlanOverrides& overrides = {},
                     const SubmitOptions& submitOptions = {});

    /**
     * Blocks until the GEMM request @p id completes and returns its
     * result (consuming it; a second wait on the same id fatals).
     * Rethrows any error the request raised.
     */
    GemmResult wait(RequestId id);

    // --------------------------------------------- workload requests
    /**
     * Compiles one workload phase into a plan graph: every distinct GEMM
     * shape is planned once (through the cache) and bound to its repeat
     * count, the nodes are priced once into the workload's gemmShare
     * and their LUT table sets resolved into tableSets, and the
     * non-GEMM host work is pre-aggregated.  run() and
     * projectCost() read that share, so they price no GEMM again.
     */
    CompiledWorkload compile(const WorkloadSpec& spec,
                             const QuantConfig& quant, DesignPoint design,
                             const PlanOverrides& overrides = {});

    /**
     * compile() without the rank cut, regardless of the session's
     * numRanks: every GEMM is planned whole.  The resulting workload is
     * valid on any session of this backend — it occupies a single rank
     * per request, which is how the SLO scheduler serves whole
     * requests data-parallel across ranks (one replica per rank)
     * instead of tensor-parallel across all of them.
     */
    CompiledWorkload compileUnsharded(const WorkloadSpec& spec,
                                      const QuantConfig& quant,
                                      DesignPoint design,
                                      const PlanOverrides& overrides = {});

    /**
     * Steady-state per-request cost of @p workload on this session's
     * backend — the admission-control projection (exactly what run()
     * reports, minus residency broadcasts and fault penalties).  The
     * GEMM and collective shares come from the workload's compile-time
     * gemmShare; the host share adds the charge of its hostOps.  Fatals
     * on a workload no session compiled.
     */
    WorkloadCostProjection projectCost(const CompiledWorkload& workload)
        const;

    /**
     * Runs one compiled-workload request on the calling thread and
     * returns its report: a workload is modeled cost only, so the fault
     * outcome, the table broadcasts and the report all settle here.  A
     * pinned rank in @p submitOptions homes the (necessarily unsharded)
     * workload's LUT residency on that rank; a rank outside
     * [0, totalRanks()) fatals.  InferenceReport::rank names the rank
     * that served the request, after any failover.  The steady report
     * is the workload's compile-time gemmShare plus the charge of its
     * hostOps; no GEMM is priced here.  Fatals on a workload no session
     * compiled.  Throws FaultShedError when faults leave no rank to
     * serve it.
     */
    InferenceReport run(const CompiledWorkload& workload,
                        const SubmitOptions& submitOptions = {});

    // ------------------------------------------------------- control
    /** Blocks until every outstanding request has executed. */
    void drain();

    /** Requests submitted but not yet executed or waited on. */
    std::size_t pendingRequests() const;

  private:
    struct Request;

    /**
     * One entry of the work queue: a submitted GEMM (`request` set; a
     * whole GEMM, or a gang whose shards run as a tile batch), or a
     * claim on a tile batch an executing request fanned out (`tiles`
     * set).  The plan or cut, every fault outcome and the residency
     * charge were settled at submit.
     */
    struct Task {
        Request* request = nullptr;
        std::shared_ptr<TileBatch> tiles;
    };

    /**
     * TileExecutor over this session's worker pool: run() parks one
     * claim per worker at the front of the work queue (tiles finish the
     * GEMM someone is already executing), participates in the batch on
     * the calling thread, and blocks until it settles.  The caller
     * claims every tile no other thread has, so it waits only on tiles
     * that running threads hold: it finishes even with no free worker.
     * A gang's shards run as such a batch on the worker that popped the
     * gang.  A batch started inside a tile drains inline, except a
     * shard's own tiles, which fan out.
     */
    class PoolTiles final : public TileExecutor
    {
      public:
        explicit PoolTiles(InferenceSession* session) : session_(session) {}

        unsigned concurrency() const override
        {
            return session_->workerCount();
        }

        void run(std::size_t tiles,
                 const std::function<void(std::size_t)>& fn) const override
        {
            session_->runTileBatch(tiles, fn);
        }

      private:
        InferenceSession* session_;
    };

    CompiledWorkload compileWith(const WorkloadSpec& spec,
                                 const QuantConfig& quant,
                                 DesignPoint design,
                                 const PlanOverrides& overrides,
                                 unsigned numRanks);
    /** The report of @p workload served from @p homeRank: its
     * gemmShare plus its hostOps, then its table sets acquired in node
     * order (the fault penalty comes on top). */
    InferenceReport runAt(const CompiledWorkload& workload,
                          unsigned homeRank) const;
    /** The rank @p submitOptions pins (0 when unpinned); fatals on a
     * rank outside [0, totalRanks()). */
    unsigned homeRankFor(const SubmitOptions& submitOptions) const;
    RequestId enqueue(std::unique_ptr<Request> request,
                      const SubmitOptions& submitOptions);
    /**
     * Makes every fault decision for @p request and cuts a @p gang over
     * the schedulable ranks, on the submitting thread before it is
     * queued; returns whether it still runs as a gang.  Throws on a
     * shed or a failed cut.
     */
    bool settle(Request& request, bool gang);
    void workerLoop();
    void runTask(const Task& task);
    void runWhole(Request& request);
    /** Runs a gang's shards as one tile batch, then reduces them in
     * shard-index order and applies the residency charge. */
    void runGang(Request& request);
    void runShard(Request& request, unsigned shardIndex);
    void runTileBatch(std::size_t tiles,
                      const std::function<void(std::size_t)>& fn);
    /** Claims and runs tiles of @p batch until none is left unclaimed;
     * wakes the waiters if this call retired the last tile. */
    void drainTiles(TileBatch& batch);
    /** Execution options for one request (tiles; the prepared operand
     * is looked up per call site). */
    ExecOptions execOptions(bool computeValues) const;
    void finishRequest(Request& request);

    BackendPtr backend_;
    SessionOptions options_;
    PlanCache cache_;
    PoolTiles poolTiles_{this};
    /** Created when options_.residencyPolicy != Disabled; internally
     * locked, so concurrent submitters take turns on it. */
    std::unique_ptr<ResidencyManager> residency_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< wakes workers
    std::condition_variable doneCv_;  ///< wakes waiters
    /** The work queue: submitted GEMMs join at the back, tile claims at
     * the front, and workers pop the front. */
    std::deque<Task> queue_;
    std::unordered_map<RequestId, std::unique_ptr<Request>> requests_;
    std::atomic<RequestId> nextId_{1}; ///< drawn before settle, unlocked
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace localut

#endif // LOCALUT_SERVING_SESSION_H_
