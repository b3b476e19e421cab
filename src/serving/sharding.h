#ifndef LOCALUT_SERVING_SHARDING_H_
#define LOCALUT_SERVING_SHARDING_H_

/**
 * @file
 * The sharded execution layer: a ShardPlan partitions one GemmProblem
 * across N logical PIM ranks, so the shards execute concurrently (each on
 * its own rank of the device model) and a deterministic reduction
 * assembles the result:
 *
 *  - ColumnParallel splits the output dimension M (the Megatron-style
 *    column tensor-parallel cut for FFN/QKV weights).  Shard boundaries
 *    respect an alignment, so aligning QKV shards to the attention head
 *    size makes the same cut head-parallel for attention.  The reduction
 *    is an all-gather: ranks contribute disjoint output slices, so the
 *    assembled result is bit-exact against the unsharded execution by
 *    construction.
 *  - RowParallel splits the reduction dimension K; every rank produces a
 *    full MxN partial-sum matrix and the host reduces them in rank order.
 *    Integer partial sums are associative, so this is also bit-exact —
 *    and therefore RowParallel is restricted to integer configurations
 *    (floating-point accumulation order would diverge).
 *
 * The collective hop (all-gather or reduce) is charged explicitly: each
 * rank drains its slice out of its DRAM banks (dram/timing's
 * collectiveDrainCost) and the host link moves the aggregated bytes; the
 * slower of the two paces the transfer, on top of one bulk-launch
 * latency.  Backends expose their own numbers via
 * Backend::collectiveProfile().
 */

#include <cstddef>
#include <vector>

#include "backend/backend.h"
#include "kernels/exec_engine.h"
#include "nn/workload.h"

namespace localut {

class PlanCache;

/** How a GEMM is cut across ranks. */
enum class ShardStrategy {
    ColumnParallel, ///< split M (output rows); reduction is an all-gather
    RowParallel,    ///< split K (depth); reduction sums int32 partials
};

/** Strategy name for reports ("column-parallel" / "row-parallel"). */
const char* shardStrategyName(ShardStrategy strategy);

/** Everything that determines a sharded cut (part of the PlanKey). */
struct ShardSpec {
    unsigned numRanks = 1; ///< logical PIM ranks (1 = unsharded)
    ShardStrategy strategy = ShardStrategy::ColumnParallel;
    /**
     * Shard boundaries land on multiples of this (e.g. the attention
     * head size for QKV projections — head-parallel attention).
     */
    std::size_t align = 1;

    bool operator==(const ShardSpec&) const = default; ///< field-wise

    /** True when this spec actually cuts the GEMM (> 1 rank). */
    bool sharded() const { return numRanks > 1; }
};

/** One rank's slice of a sharded GEMM, bound to its execution plan. */
struct GemmShard {
    unsigned rank = 0; ///< logical rank this slice executes on
    /** Row range (ColumnParallel) or depth range (RowParallel). */
    std::size_t begin = 0, end = 0;
    GemmPlan plan; ///< the slice's execution plan

    /** Slice length along the shard axis. */
    std::size_t extent() const { return end - begin; }
};

/**
 * A GemmProblem partitioned across ranks: per-shard plans plus the
 * explicit cost of the reduction collective.  Build via makeShardPlan()
 * (or memoized through PlanCache::shardPlanFor()).
 */
struct ShardPlan {
    ShardSpec spec;  ///< the cut this plan realizes
    DesignPoint design = DesignPoint::LoCaLut; ///< design point
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()}; ///< quantization
    std::size_t m = 0, k = 0, n = 0; ///< the whole GEMM's shape
    std::vector<GemmShard> shards; ///< never empty; 1 entry = unsharded

    // Reduction collective (all zero when a single shard covers the GEMM).
    double collectiveBytes = 0;   ///< bytes drained rank -> host
    double collectiveSeconds = 0; ///< modeled rank -> host hop
    double collectiveJoules = 0;  ///< drain + link transfer energy
    double hostReduceOps = 0;     ///< RowParallel host partial-sum adds
    double hostReduceSeconds = 0; ///< modeled time of those adds

    /** Modeled seconds: slowest shard (they run concurrently) +
     * collective + the RowParallel host reduce. */
    double predictedSeconds() const;
};

/**
 * Partitions @p problem across @p spec.numRanks ranks under @p design and
 * plans every shard (through @p cache when given, so repeated shapes
 * reuse sub-plans).  Degenerate dimensions produce fewer shards than
 * ranks; numRanks = 1 reduces to the unsharded plan with zero collective
 * cost.
 */
ShardPlan makeShardPlan(const Backend& backend, const GemmProblem& problem,
                        DesignPoint design, const ShardSpec& spec,
                        const PlanOverrides& overrides = {},
                        PlanCache* cache = nullptr);

/**
 * The sub-problem shard @p shardIndex executes: the W/A slice described
 * by the shard's range (codes are sliced when the problem carries them;
 * shape-only problems stay shape-only).
 */
GemmProblem shardProblem(const GemmProblem& problem, const ShardPlan& plan,
                         unsigned shardIndex);

/**
 * Deterministic reduction of per-shard results (one per shard, in shard
 * order): values are assembled in shard-index order (concatenation for
 * ColumnParallel, int32 partial-sum addition for RowParallel), timing
 * takes the critical (slowest) shard — shards run concurrently on
 * distinct ranks — plus the collective, and energy/event costs sum
 * across ranks.
 */
GemmResult reduceShardResults(const Backend& backend, const ShardPlan& plan,
                              std::vector<GemmResult> parts);

/**
 * Executes every shard on the calling thread and reduces.  The
 * InferenceSession's per-rank work queues provide the concurrent path;
 * this is the sequential reference both must match bit-exactly.
 */
GemmResult executeSharded(const Backend& backend,
                          const GemmProblem& problem, const ShardPlan& plan,
                          bool computeValues = true);

/**
 * executeSharded() under explicit execution options.  options.prepared
 * is ignored (a whole-problem operand cannot serve the slices); pass
 * @p cache to fetch/populate per-shard prepared operands instead —
 * exactly what a sharded serving loop reuses across decode steps.
 * @p overrides must be the PlanOverrides the shard plan was cut with
 * (they are part of the prepared-operand cache key).
 */
GemmResult executeSharded(const Backend& backend,
                          const GemmProblem& problem, const ShardPlan& plan,
                          const ExecOptions& options,
                          PlanCache* cache = nullptr,
                          const PlanOverrides& overrides = {});

/** A workload GEMM bound to its sharded execution plan (the cut spans
 * every rank). */
struct ShardedGemm {
    WorkloadGemm gemm; ///< the shape + repeat count
    ShardPlan plan;    ///< its rank cut
};

/**
 * Sharded counterpart of executeWorkload(): executes every node's shards
 * (timing-only) plus @p hostOps host work and aggregates the report,
 * including each node's collective transfer.  @p options carries the
 * execution knobs (its computeValues is overridden to false: workload
 * nodes are shape-only).
 */
InferenceReport executeShardedWorkload(const Backend& backend,
                                       const std::vector<ShardedGemm>& nodes,
                                       const QuantConfig& quant,
                                       double hostOps,
                                       const ExecOptions& options = {});

/**
 * Sharded counterpart of projectWorkloadCost() (nn/workload.h): the
 * steady-state per-request cost of executing @p nodes plus @p hostOps
 * host work, with the collective share separated out — exactly
 * executeShardedWorkload()'s timing, without a functional pass.
 */
WorkloadCostProjection
projectShardedWorkloadCost(const Backend& backend,
                           const std::vector<ShardedGemm>& nodes,
                           const QuantConfig& quant, double hostOps);

} // namespace localut

#endif // LOCALUT_SERVING_SHARDING_H_
