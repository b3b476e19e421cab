#ifndef LOCALUT_SERVING_PLAN_CACHE_H_
#define LOCALUT_SERVING_PLAN_CACHE_H_

/**
 * @file
 * Memoization of GemmPlans.  Planning a LoCaLUT GEMM walks the packing /
 * placement / slice-window / partition-grid space with the full event
 * model, which costs far more than "executing" the plan on the system
 * model — and a transformer serving loop re-plans the same handful of
 * shapes on every decode step.  The PlanCache keys plans by everything
 * that determines them: (M, K, N), quantization config, design point,
 * planner overrides, the shard configuration, and the backend that
 * produced the plan.  Sharded plans (ShardPlan, serving/sharding.h) are
 * memoized alongside the per-shape GemmPlans — a sharded decode loop
 * re-cuts the same handful of shapes every step — and their per-shard
 * sub-plans flow through the same GemmPlan memo, so two shard configs
 * that produce the same slice shapes share the planning work.  Hit/miss
 * counters are exposed so serving code (and tests) can verify reuse.
 *
 * Prepared operands (PreparedGemm, kernels/exec_engine.h) are memoized
 * here too: preparedFor() keys them by the same plan key plus a
 * weight-content fingerprint, so a serving loop executing the same
 * layer weights request after request packs and tables them exactly
 * once — while two same-shaped problems with different weights can
 * never alias.  An LRU bounded by resident bytes keeps fuzz-style
 * workloads (thousands of distinct problems) from retaining packed
 * weights forever, while a whole sharded decode step (one operand per
 * GEMM per shard slice) stays resident from step to step.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "backend/backend.h"
#include "kernels/exec_engine.h"
#include "serving/sharding.h"

namespace localut {

/** Everything that determines a plan.  Equality-comparable and hashable. */
struct PlanKey {
    std::size_t m = 0, k = 0, n = 0; ///< GEMM shape
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()}; ///< quantization
    DesignPoint design = DesignPoint::LoCaLut; ///< design point
    PlanOverrides overrides;       ///< planner overrides in effect
    ShardSpec shard;               ///< default (numRanks 1) = unsharded
    std::string backend;           ///< plans are device-specific...
    std::uint64_t fingerprint = 0; ///< ...including the device config

    bool operator==(const PlanKey&) const = default; ///< field-wise

    /** Builds the key for (@p backend, @p problem, @p design, ...). */
    static PlanKey of(const Backend& backend, const GemmProblem& problem,
                      DesignPoint design, const PlanOverrides& overrides,
                      const ShardSpec& shard = {});
};

/** Hash over every PlanKey field. */
struct PlanKeyHash {
    /** Combines every key field into one hash. */
    std::size_t operator()(const PlanKey& key) const;
};

/**
 * A thread-safe (shape, config, design, overrides, backend) -> GemmPlan
 * memo.  Safe to share across InferenceSession worker threads.
 */
class PlanCache
{
  public:
    /**
     * Hit/miss accounting at two granularities.  `hits`/`misses` count
     * *logical* lookups — one per planFor() or shardPlanFor() call, i.e.
     * one per logical GEMM — while `shardHits`/`shardMisses` count the
     * per-shard sub-plan lookups a shard-plan cut resolves internally.
     * Keeping them separate stops one sharded GEMM from being
     * double-counted as N rank hits: a cold 4-rank cut whose slices
     * share a shape is exactly 1 logical miss + 1 shard miss + 3 shard
     * hits, never "3 hits".
     */
    struct Stats {
        std::uint64_t hits = 0;        ///< logical lookups served cached
        std::uint64_t misses = 0;      ///< logical lookups that planned
        std::uint64_t shardHits = 0;   ///< per-shard sub-plan hits
        std::uint64_t shardMisses = 0; ///< per-shard sub-plan misses
        std::uint64_t preparedHits = 0;   ///< preparedFor() served cached
        std::uint64_t preparedMisses = 0; ///< preparedFor() that built
        std::size_t entries = 0;          ///< cached plans + shard plans
        std::size_t preparedEntries = 0;  ///< cached prepared operands
        std::uint64_t preparedBytes = 0; ///< resident operand bytes

        /** Logical (per-GEMM) hit rate. */
        double
        hitRate() const
        {
            const std::uint64_t lookups = hits + misses;
            return lookups == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(lookups);
        }

        /** Per-shard sub-plan hit rate. */
        double
        shardHitRate() const
        {
            const std::uint64_t lookups = shardHits + shardMisses;
            return lookups == 0
                       ? 0.0
                       : static_cast<double>(shardHits) /
                             static_cast<double>(lookups);
        }
    };

    /**
     * Returns the cached plan for (@p backend, @p problem, @p design,
     * @p overrides), planning and inserting on a miss.
     */
    GemmPlan planFor(const Backend& backend, const GemmProblem& problem,
                     DesignPoint design,
                     const PlanOverrides& overrides = {});

    /**
     * Returns the cached ShardPlan for (@p backend, @p problem, @p design,
     * @p spec, @p overrides), cutting and planning on a miss.  Counts as
     * ONE logical lookup; the per-shard sub-plans a cold cut resolves go
     * through shardSubPlanFor() and count in the separate shard
     * counters.
     */
    ShardPlan shardPlanFor(const Backend& backend,
                           const GemmProblem& problem, DesignPoint design,
                           const ShardSpec& spec,
                           const PlanOverrides& overrides = {});

    /**
     * planFor() for the per-shard slice sub-plans of a shard-plan cut
     * (called by makeShardPlan()): shares the GemmPlan memo but counts
     * in Stats::shardHits/shardMisses so a sharded logical GEMM is not
     * double-counted as N rank lookups.
     */
    GemmPlan shardSubPlanFor(const Backend& backend,
                             const GemmProblem& problem, DesignPoint design,
                             const PlanOverrides& overrides = {});

    /** Default prepared-operand budget: 256 MiB, the LutTableCache's. */
    static constexpr std::uint64_t kDefaultMaxPreparedBytes =
        std::uint64_t{256} << 20;

    /**
     * Returns the cached PreparedGemm for (@p backend, @p problem,
     * @p plan, @p overrides) — keyed by the plan key plus
     * weightsFingerprint(problem.w) — building and inserting on a miss,
     * then evicting least recently used operands until the resident
     * bytes fit the budget.  An operand larger than the whole budget is
     * returned but not kept.  @p plan must be the plan the operand will
     * execute under (normally the one planFor() returned for the same
     * arguments); the returned operand satisfies
     * prepared->matches(problem, plan).
     */
    std::shared_ptr<const PreparedGemm>
    preparedFor(const Backend& backend, const GemmProblem& problem,
                const GemmPlan& plan, const PlanOverrides& overrides = {});

    /**
     * The prepared operand an execution of (@p problem, @p plan) on
     * @p backend runs against: preparedFor(), or null when no operand
     * applies — the pass computes no values (@p computeValues false),
     * the backend is BackendCapabilities::referenceFunctionalOnly (its
     * reference MAC reads only the tiny ad-hoc decode codebooks, so
     * caching full LUT operands for it would only evict the operands
     * the LUT backends need), or the weights are not materialized (a
     * shape-only problem).  Null lookups leave the counters untouched.
     */
    std::shared_ptr<const PreparedGemm>
    operandFor(const Backend& backend, const GemmProblem& problem,
               const GemmPlan& plan, bool computeValues,
               const PlanOverrides& overrides = {});

    /**
     * Caps the prepared-operand LRU at @p maxBytes of
     * PreparedGemm::bytes() (default kDefaultMaxPreparedBytes), evicting
     * least recently used operands now if the cache holds more.
     */
    void setMaxPreparedBytes(std::uint64_t maxBytes);

    /** A consistent copy of the hit/miss counters and entry counts. */
    Stats stats() const;

    /** Cached plans + shard plans currently held. */
    std::size_t size() const;

    /** Drops all entries (counters are kept; see resetStats()). */
    void clear();

    /** Zeroes the hit/miss counters. */
    void resetStats();

  private:
    GemmPlan planForCounted(const Backend& backend,
                            const GemmProblem& problem, DesignPoint design,
                            const PlanOverrides& overrides,
                            std::uint64_t& hits, std::uint64_t& misses);

    struct PreparedKey {
        PlanKey plan;
        std::uint64_t weights = 0;

        bool operator==(const PreparedKey&) const = default;
    };

    struct PreparedKeyHash {
        std::size_t operator()(const PreparedKey& key) const;
    };

    struct PreparedEntry {
        std::shared_ptr<const PreparedGemm> prepared;
        std::uint64_t lastUse = 0;
    };

    /** Evicts LRU operands until preparedBytes_ fits the budget. */
    void evictPreparedLocked();

    mutable std::mutex mutex_;
    std::unordered_map<PlanKey, GemmPlan, PlanKeyHash> plans_;
    std::unordered_map<PlanKey, ShardPlan, PlanKeyHash> shardPlans_;
    std::unordered_map<PreparedKey, PreparedEntry, PreparedKeyHash>
        prepared_;
    std::uint64_t preparedBytes_ = 0; ///< sum of prepared_ bytes()
    std::uint64_t maxPreparedBytes_ = kDefaultMaxPreparedBytes;
    std::uint64_t preparedClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t shardHits_ = 0;
    std::uint64_t shardMisses_ = 0;
    std::uint64_t preparedHits_ = 0;
    std::uint64_t preparedMisses_ = 0;
};

} // namespace localut

#endif // LOCALUT_SERVING_PLAN_CACHE_H_
