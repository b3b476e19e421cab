#ifndef LOCALUT_SERVING_SHARDING_H_
#define LOCALUT_SERVING_SHARDING_H_

/**
 * @file
 * The sharded execution layer: a ShardPlan partitions one GemmProblem
 * across N logical PIM ranks, so the shards execute concurrently (each on
 * its own rank of the device model) and a deterministic all-gather
 * assembles the result.
 *
 * The cut splits the output dimension M (the Megatron-style column
 * tensor-parallel cut for FFN/QKV weights).  Shard boundaries respect an
 * alignment, so aligning QKV shards to the attention head size makes the
 * same cut head-parallel for attention.  Ranks contribute disjoint output
 * slices, so the assembled result is bit-exact against the unsharded
 * execution by construction, for integer and floating-point configs
 * alike.
 *
 * The all-gather hop is charged explicitly: each rank drains its slice
 * out of its DRAM banks (dram/timing's collectiveDrainCost) and the host
 * link moves the aggregated bytes; the slower of the two paces the
 * transfer, on top of one bulk-launch latency.  Backends expose their
 * own numbers via Backend::collectiveProfile().
 */

#include <cstddef>
#include <vector>

#include "backend/backend.h"
#include "kernels/exec_engine.h"
#include "nn/workload.h"

namespace localut {

class PlanCache;

/** Everything that determines a sharded cut (part of the PlanKey). */
struct ShardSpec {
    unsigned numRanks = 1; ///< logical PIM ranks (1 = unsharded)
    /**
     * Shard boundaries land on multiples of this (e.g. the attention
     * head size for QKV projections — head-parallel attention).
     */
    std::size_t align = 1;

    bool operator==(const ShardSpec&) const = default; ///< field-wise
};

/** One rank's slice of a sharded GEMM, bound to its execution plan. */
struct GemmShard {
    unsigned rank = 0; ///< logical rank this slice executes on
    std::size_t begin = 0, end = 0; ///< output-row range [begin, end)
    GemmPlan plan; ///< the slice's execution plan

    /** Number of output rows in the slice. */
    std::size_t extent() const { return end - begin; }
};

/**
 * A GemmProblem partitioned across ranks: per-shard plans plus the
 * explicit cost of the all-gather collective.  Build via makeShardPlan()
 * (or memoized through PlanCache::shardPlanFor()).
 */
struct ShardPlan {
    ShardSpec spec;  ///< the cut this plan realizes
    DesignPoint design = DesignPoint::LoCaLut; ///< design point
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()}; ///< quantization
    std::size_t m = 0, k = 0, n = 0; ///< the whole GEMM's shape
    std::vector<GemmShard> shards; ///< never empty; 1 entry = unsharded

    // All-gather collective (all zero when a single shard covers the GEMM).
    double collectiveBytes = 0;   ///< bytes drained rank -> host
    double collectiveSeconds = 0; ///< modeled rank -> host hop
    double collectiveJoules = 0;  ///< drain + link transfer energy
};

/**
 * Partitions @p problem across @p spec.numRanks ranks under @p design and
 * plans every shard (through @p cache when given, so repeated shapes
 * reuse sub-plans).  Degenerate dimensions produce fewer shards than
 * ranks; numRanks = 1 reduces to the unsharded plan with zero collective
 * cost.  Fatals on a malformed or empty problem (requireOperandShapes()).
 */
ShardPlan makeShardPlan(const Backend& backend, const GemmProblem& problem,
                        DesignPoint design, const ShardSpec& spec,
                        const PlanOverrides& overrides = {},
                        PlanCache* cache = nullptr);

/**
 * The sub-problem shard @p shardIndex executes: W rows [begin, end) and
 * all of A (codes are sliced when the problem carries them; shape-only
 * problems stay shape-only).
 */
GemmProblem shardProblem(const GemmProblem& problem, const ShardPlan& plan,
                         unsigned shardIndex);

/**
 * Deterministic reduction of per-shard results (one per shard, in shard
 * order): values are concatenated in shard-index order, timing takes the
 * critical (slowest) shard — shards run concurrently on distinct ranks —
 * plus the collective, and energy/event costs sum across ranks.
 */
GemmResult reduceShardResults(const ShardPlan& plan,
                              std::vector<GemmResult> parts);

/**
 * Executes every shard on the calling thread and reduces.  The
 * InferenceSession runs the shards concurrently as one tile batch; this
 * is the sequential reference it must match bit-exactly.
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
 * Sharded counterpart of priceWorkloadGemms(): prices every node's
 * shards (timing-only: workload nodes are shape-only) in node order into
 * an empty report, with no host ops, splitting each node's time into its
 * GEMM and collective shares.  chargeWorkloadHostOps() completes the
 * report.
 */
InferenceReport
priceShardedWorkloadGemms(const Backend& backend,
                          const std::vector<ShardedGemm>& nodes,
                          const QuantConfig& quant);

} // namespace localut

#endif // LOCALUT_SERVING_SHARDING_H_
