#ifndef LOCALUT_SERVING_SESSION_H_
#define LOCALUT_SERVING_SESSION_H_

/**
 * @file
 * The serving API: an InferenceSession binds a Backend to a PlanCache and
 * a worker pool, so callers compile a workload (or an individual GEMM)
 * once and then dispatch batched requests asynchronously:
 *
 *     InferenceSession session(makeBackend("upmem"));
 *     auto workload = session.compile(
 *         WorkloadSpec::decode(TransformerConfig::opt125m(), 32, 128, 16),
 *         QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);
 *     auto id = session.submit(workload);
 *     // ... submit more requests; they execute on the worker pool ...
 *     InferenceReport report = session.waitReport(id);
 *
 * Plans are memoized in the session's PlanCache keyed by (shape,
 * QuantConfig, DesignPoint, overrides, shard config, backend), so
 * repeated decode steps — and repeated requests in a serving loop — stop
 * paying planner cost.  Value-computing GEMMs also fetch their prepared
 * operands (packed weights and LUT tables, kernels/exec_engine.h) from
 * the same cache, so repeated requests against the same weights stop
 * re-packing them.  Every GemmProblem/workload submitted is executed
 * exactly as the synchronous API would execute it; requests are
 * independent, so results are deterministic regardless of completion
 * order.
 *
 * Sharding: with SessionOptions::numRanks > 1 the session models that
 * many logical PIM ranks.  Submitted GEMMs are cut by a ShardPlan
 * (serving/sharding.h) and their shards execute concurrently — the
 * scheduler packs queued work into per-rank work queues (continuous
 * batching) instead of dispatching one request at a time — with a
 * deterministic reduction, so results stay bit-exact with numRanks = 1.
 * Compiled workloads shard every GEMM node the same way (column-parallel
 * for FFN/QKV, head-aligned — i.e. head-parallel — for QKV).
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
     * exactly as before; > 1 shards every GEMM across the ranks and
     * executes the shards concurrently on per-rank work queues,
     * bit-exact with 1.
     */
    unsigned numRanks = 1;
    /** How GEMMs are cut across ranks when numRanks > 1. */
    ShardStrategy shardStrategy = ShardStrategy::ColumnParallel;
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
     * Deterministic fault injector (serving/fault.h) that submit()
     * consults to settle each request's fault outcome before queueing
     * it; shared with the scheduler and token engine so all layers see
     * one health registry.  nullptr (the
     * default) serves fault-free with zero overhead.  Not owned: the
     * injector must outlive the session, must track numRanks ranks, and
     * its scheduled faults must not fire after the
     * session is destroyed (the session registers a rank-loss listener
     * that touches its residency manager).  With an injector set,
     * transient execute failures retry under `faultPolicy` with capped
     * exponential virtual-time backoff, dead/quarantined ranks re-home
     * or re-shard work (failover) or shed it (FaultShedError surfaces
     * at wait()), and all retry/backoff cost is charged as modeled
     * seconds into the request's TimingReport — never a wall-clock
     * sleep.
     */
    FaultInjector* faultInjector = nullptr;
    /** Retry / quarantine / failover policy; used only with an injector. */
    FaultPolicy faultPolicy;
};

/**
 * Per-submission knobs (the defaults reproduce the un-hinted API).
 * The SLO-aware scheduler (serving/scheduler.h) is the main caller:
 * its placement decisions pin requests to the rank its virtual-time
 * model chose.
 */
struct SubmitOptions {
    /**
     * Rank queue (and residency home rank) this request is pinned to;
     * -1 lets the session pick (continuous batching) and — for GEMMs on
     * a numRanks > 1 session — shard the GEMM across the ranks.  A
     * pinned request executes *whole* (unsharded) on that rank: the
     * data-parallel serving regime, where each rank is a replica
     * serving complete requests.  A pinned rank must be below
     * InferenceSession::totalRanks().
     */
    int rank = -1;
};

/**
 * Compile-once / submit-many serving sessions on one backend.
 *
 * Thread-safety: all public methods are safe to call concurrently; the
 * execution itself runs on the session's worker pool (backends are
 * stateless and const, the PlanCache is internally locked).
 */
class InferenceSession
{
  public:
    /** Handle for one submitted request (consumed by wait()). */
    using RequestId = std::uint64_t;

    /** A planned GEMM node of a compiled workload. */
    using PlanNode = PlannedGemm;

    /** A workload compiled into a plan graph (backend-specific). */
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
        unsigned numRanks = 1;       ///< ranks the cut was for
        double hostOps = 0;          ///< non-GEMM host work (scalar ops)
        /** Identity of the backend that compiled the plans; a session
         * refuses to execute another backend's workload. */
        std::string backendName;
        std::uint64_t backendFingerprint = 0; ///< device-config hash

        /** True when this workload was cut across ranks. */
        bool sharded() const { return !shardedNodes.empty(); }

        /** Modeled seconds spent on the PIM GEMMs per request (sum of
         * per-node predictions; for quick admission-control estimates). */
        double predictedGemmSeconds() const;
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
    /** Ranks the session models (one work queue each). */
    unsigned totalRanks() const
    {
        return static_cast<unsigned>(rankQueues_.size());
    }
    /** Worker threads serving the rank queues. */
    unsigned workerCount() const;

    /** Plans one GEMM through the session cache (memoized). */
    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides = {});

    /**
     * Cuts and plans one GEMM across the session's ranks (memoized);
     * @p align forces shard boundaries onto multiples (head-parallel).
     */
    ShardPlan shardPlan(const GemmProblem& problem, DesignPoint design,
                        const PlanOverrides& overrides = {},
                        std::size_t align = 1);

    /** The session's plan / shard-plan / prepared-operand memo. */
    PlanCache& planCache() { return cache_; }
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
     * rank in @p submitOptions executes the GEMM whole (unsharded) on
     * that rank's queue and homes its LUT residency there; an unpinned
     * GEMM on a multi-rank session is cut across the ranks here.
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
     * count; the non-GEMM host work is pre-aggregated.
     */
    CompiledWorkload compile(const WorkloadSpec& spec,
                             const QuantConfig& quant, DesignPoint design,
                             const PlanOverrides& overrides = {});

    /**
     * compile() without the rank cut, regardless of the session's
     * numRanks: every GEMM is planned whole.  The resulting workload is
     * valid on any session of this backend — it occupies a single rank
     * queue per request, which is how the SLO scheduler serves whole
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
     * reports, minus residency broadcasts).
     */
    WorkloadCostProjection projectCost(const CompiledWorkload& workload)
        const;

    /**
     * Enqueues one compiled-workload execution; returns immediately.  A
     * pinned rank in @p submitOptions executes the (necessarily
     * unsharded) workload whole on that rank's queue and homes its LUT
     * residency there; a rank outside [0, totalRanks()) fatals.
     */
    RequestId submit(CompiledWorkload workload,
                     const SubmitOptions& submitOptions = {});

    /** Blocks until workload request @p id completes (consuming it). */
    InferenceReport waitReport(RequestId id);

    /** Executes a compiled workload synchronously on the calling thread. */
    InferenceReport run(const CompiledWorkload& workload) const;

    // ------------------------------------------------------- control
    /** Blocks until every outstanding request has executed. */
    void drain();

    /** Requests submitted but not yet executed or waited on. */
    std::size_t pendingRequests() const;

  private:
    struct Request;

    /**
     * One schedulable unit on a rank queue: a whole request (unsharded
     * GEMM or compiled workload), the fan-out of a gang (queues one
     * shard task per shard; the cut and every fault outcome were settled
     * at submit), one shard of a gang, or a functional tile batch
     * fanned out by an executing request (kTileTask; `tiles` set).
     */
    struct Task {
        Request* request = nullptr;
        int shard = kWholeTask; ///< kWholeTask/kFanOutTask/kTileTask/index
        std::shared_ptr<TileBatch> tiles;
    };
    static constexpr int kWholeTask = -1;
    static constexpr int kFanOutTask = -2;
    static constexpr int kTileTask = -3;

    /**
     * TileExecutor over this session's worker pool: run() parks one
     * claim task per rank queue (at the front — tiles finish the GEMM
     * someone is already executing), participates in the batch on the
     * calling thread, and blocks until it settles.  Whole-batch
     * completion is what bounds the wait, so a submitter with no free
     * workers still finishes on its own.
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
    InferenceReport runAt(const CompiledWorkload& workload,
                          unsigned homeRank) const;
    RequestId enqueue(std::unique_ptr<Request> request,
                      const SubmitOptions& submitOptions);
    /**
     * Makes every fault decision for @p request and cuts a @p gang over
     * the schedulable ranks, on the submitting thread before it is
     * queued; returns whether it still runs as a gang.  Throws on a
     * shed or a failed cut.
     */
    bool settle(Request& request, bool gang);
    bool anyQueuedLocked() const;
    unsigned pickRankLocked();
    Task popTaskLocked(unsigned preferredRank);
    void workerLoop(unsigned workerIndex);
    void runTask(const Task& task);
    void runShard(Request& request, unsigned shardIndex);
    void runWhole(Request& request);
    void runTileBatch(std::size_t tiles,
                      const std::function<void(std::size_t)>& fn);
    /** Execution options for one request (tiles; the prepared operand
     * is looked up per call site). */
    ExecOptions execOptions(bool computeValues) const;
    void finishRequest(Request& request);
    std::unique_ptr<Request> take(RequestId id, bool wantWorkload);

    BackendPtr backend_;
    SessionOptions options_;
    PlanCache cache_;
    PoolTiles poolTiles_{this};
    /** Created when options_.residencyPolicy != Disabled; internally
     * locked, so const execution paths share it across workers. */
    std::unique_ptr<ResidencyManager> residency_;

    mutable std::mutex mutex_;
    std::condition_variable queueCv_; ///< wakes workers
    std::condition_variable doneCv_;  ///< wakes waiters
    /** Per-rank work queues; the scheduler packs queued requests into
     * them (continuous batching) and sharded GEMMs fan one shard task
     * onto each rank's queue.  Workers prefer their own rank's queue and
     * steal from the others when it runs dry. */
    std::vector<std::deque<Task>> rankQueues_;
    unsigned nextRank_ = 0; ///< rotates whole-task placement on ties
    std::unordered_map<RequestId, std::unique_ptr<Request>> requests_;
    std::atomic<RequestId> nextId_{1}; ///< drawn before settle, unlocked
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace localut

#endif // LOCALUT_SERVING_SESSION_H_
