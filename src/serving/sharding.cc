#include "serving/sharding.h"

#include <algorithm>
#include <utility>

#include "common/bitops.h"
#include "common/logging.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"

namespace localut {

const char*
shardStrategyName(ShardStrategy strategy)
{
    switch (strategy) {
      case ShardStrategy::ColumnParallel: return "column-parallel";
      case ShardStrategy::RowParallel:    return "row-parallel";
    }
    LOCALUT_PANIC("invalid shard strategy");
}

double
ShardPlan::predictedSeconds() const
{
    double slowest = 0;
    for (const GemmShard& shard : shards) {
        slowest = std::max(slowest, shard.plan.predictedSeconds);
    }
    return slowest + collectiveSeconds + hostReduceSeconds;
}

namespace {

/** Output elements are int32 (integer configs) or fp32: 4 bytes both. */
constexpr double kOutBytes = 4.0;

/**
 * Charges the RowParallel host partial-sum reduce of @p plan.  The one
 * derivation shared by planning (ShardPlan::hostReduceSeconds),
 * reduceShardResults() (which folds it into the result), and
 * executeShardedWorkload() (which classifies the same seconds into the
 * report's host share).
 */
void
chargeHostReduce(const Backend& backend, const ShardPlan& plan,
                 TimingReport& timing, EnergyReport& energy)
{
    backend.chargeHostOps(plan.hostReduceOps, timing, energy);
}

/**
 * Charges the reduction collective of @p plan (> 1 shard only): every
 * rank drains its slice out of its banks while the host link moves the
 * aggregate (collectiveHopCost), and RowParallel adds shards - 1
 * partials per output element on the host.  Golden-pinned against the
 * closed form in test_golden_costs.
 */
void
chargeCollective(const Backend& backend, ShardPlan& plan)
{
    const std::size_t shards = plan.shards.size();
    if (shards <= 1) {
        return;
    }
    const CollectiveLinkProfile prof = backend.collectiveProfile();
    const double outElems =
        static_cast<double>(plan.m) * static_cast<double>(plan.n);
    const bool rowPar = plan.spec.strategy == ShardStrategy::RowParallel;

    double perRankBytes = 0; // the largest single rank's contribution
    double totalBytes = 0;   // moved rank -> host, summed over ranks
    for (const GemmShard& shard : plan.shards) {
        const double bytes =
            rowPar ? outElems * kOutBytes
                   : static_cast<double>(shard.extent()) *
                         static_cast<double>(plan.n) * kOutBytes;
        perRankBytes = std::max(perRankBytes, bytes);
        totalBytes += bytes;
    }
    if (rowPar) {
        plan.hostReduceOps = static_cast<double>(shards - 1) * outElems;
    }

    // Ranks drain concurrently and the host link serializes the
    // aggregate; energy pays for every byte drained and crossed.  One
    // bulk-launch latency covers the rank-parallel hop.
    const CollectiveCost cost = collectiveHopCost(
        prof.dram, prof.dramEnergy,
        {prof.banksPerRank, perRankBytes, totalBytes}, prof.hostLinkTier());
    plan.collectiveBytes = totalBytes;
    plan.collectiveSeconds = cost.seconds;
    plan.collectiveJoules = cost.joules;
    if (plan.hostReduceOps > 0) {
        TimingReport reduceTiming;
        EnergyReport reduceEnergy;
        chargeHostReduce(backend, plan, reduceTiming, reduceEnergy);
        plan.hostReduceSeconds = reduceTiming.total;
    }
}

} // namespace

ShardPlan
makeShardPlan(const Backend& backend, const GemmProblem& problem,
              DesignPoint design, const ShardSpec& spec,
              const PlanOverrides& overrides, PlanCache* cache)
{
    LOCALUT_REQUIRE(spec.numRanks >= 1, "a shard plan needs >= 1 rank");
    ShardPlan plan;
    plan.spec = spec;
    plan.design = design;
    plan.config = problem.config();
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();

    const bool rowPar = spec.strategy == ShardStrategy::RowParallel;
    const bool isInt = plan.config.weightCodec.isInteger() &&
                       plan.config.actCodec.isInteger();
    LOCALUT_REQUIRE(!rowPar || !spec.sharded() || isInt,
                    "row-parallel sharding reduces partial sums, which is "
                    "bit-exact only for integer configs (got ",
                    plan.config.name(), ")");

    // Cut the shard axis into numRanks contiguous, alignment-respecting
    // slices (ceil split: the tail shard may be shorter or absent when
    // the axis is small).
    const std::size_t axis = rowPar ? plan.k : plan.m;
    const std::size_t align = std::max<std::size_t>(1, spec.align);
    const std::size_t groups = ceilDiv(axis, align);
    const std::size_t step =
        ceilDiv(groups, static_cast<std::size_t>(spec.numRanks)) * align;
    for (unsigned r = 0; static_cast<std::size_t>(r) * step < axis; ++r) {
        const std::size_t begin = static_cast<std::size_t>(r) * step;
        const std::size_t end = std::min(axis, begin + step);
        const GemmProblem slice =
            rowPar ? makeShapeOnlyProblem(plan.m, end - begin, plan.n,
                                          plan.config)
                   : makeShapeOnlyProblem(end - begin, plan.k, plan.n,
                                          plan.config);
        GemmPlan subPlan =
            cache ? cache->shardSubPlanFor(backend, slice, design,
                                           overrides)
                  : backend.plan(slice, design, overrides);
        plan.shards.push_back({r, begin, end, std::move(subPlan)});
    }
    LOCALUT_ASSERT(!plan.shards.empty() &&
                       plan.shards.back().end == axis,
                   "shard partition does not cover the axis");
    chargeCollective(backend, plan);
    return plan;
}

GemmProblem
shardProblem(const GemmProblem& problem, const ShardPlan& plan,
             unsigned shardIndex)
{
    LOCALUT_REQUIRE(shardIndex < plan.shards.size(),
                    "shard index out of range");
    LOCALUT_REQUIRE(problem.m() == plan.m && problem.k() == plan.k &&
                        problem.n() == plan.n,
                    "problem shape does not match the shard plan");
    const GemmShard& shard = plan.shards[shardIndex];
    const std::size_t lo = shard.begin, hi = shard.end;

    GemmProblem sub;
    if (plan.spec.strategy == ShardStrategy::ColumnParallel) {
        // W rows [lo, hi) (row-major: contiguous); all of A.
        sub.w.rows = hi - lo;
        sub.w.cols = problem.w.cols;
        sub.w.codec = problem.w.codec;
        sub.w.scale = problem.w.scale;
        if (!problem.w.codes.empty()) {
            sub.w.codes.assign(
                problem.w.codes.begin() +
                    static_cast<std::ptrdiff_t>(lo * problem.w.cols),
                problem.w.codes.begin() +
                    static_cast<std::ptrdiff_t>(hi * problem.w.cols));
        }
        sub.a = problem.a;
    } else {
        // W columns [lo, hi) (strided rows); A rows [lo, hi) (contiguous).
        sub.w.rows = problem.w.rows;
        sub.w.cols = hi - lo;
        sub.w.codec = problem.w.codec;
        sub.w.scale = problem.w.scale;
        if (!problem.w.codes.empty()) {
            sub.w.codes.reserve(sub.w.rows * sub.w.cols);
            for (std::size_t r = 0; r < problem.w.rows; ++r) {
                const auto row = problem.w.codes.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     r * problem.w.cols);
                sub.w.codes.insert(
                    sub.w.codes.end(),
                    row + static_cast<std::ptrdiff_t>(lo),
                    row + static_cast<std::ptrdiff_t>(hi));
            }
        }
        sub.a.rows = hi - lo;
        sub.a.cols = problem.a.cols;
        sub.a.codec = problem.a.codec;
        sub.a.scale = problem.a.scale;
        if (!problem.a.codes.empty()) {
            sub.a.codes.assign(
                problem.a.codes.begin() +
                    static_cast<std::ptrdiff_t>(lo * problem.a.cols),
                problem.a.codes.begin() +
                    static_cast<std::ptrdiff_t>(hi * problem.a.cols));
        }
    }
    return sub;
}

GemmResult
reduceShardResults(const Backend& backend, const ShardPlan& plan,
                   std::vector<GemmResult> parts)
{
    LOCALUT_REQUIRE(parts.size() == plan.shards.size(),
                    "need one result per shard");
    // Critical shard: slowest end-to-end; lowest index breaks ties, so
    // the reduction is deterministic regardless of completion order.
    std::size_t critical = 0;
    for (std::size_t i = 1; i < parts.size(); ++i) {
        if (parts[i].timing.total > parts[critical].timing.total) {
            critical = i;
        }
    }

    GemmResult out;
    out.timing = parts[critical].timing;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        out.cost.merge(parts[i].cost);
        accumulate(out.energy, parts[i].energy);
    }

    // Assemble values in shard-index order (deterministic reduction).
    const bool hasInt = !parts[critical].outInt.empty();
    const bool hasFloat = !parts[critical].outFloat.empty();
    if (parts.size() == 1) {
        // A single shard covers the whole output under either strategy
        // (this is also the one RowParallel case that is legal for
        // float configs: nothing needs summing).
        out.outInt = std::move(parts[0].outInt);
        out.outFloat = std::move(parts[0].outFloat);
    } else if (hasInt || hasFloat) {
        const std::size_t elems = plan.m * plan.n;
        if (hasInt) {
            out.outInt.assign(elems, 0);
        } else {
            out.outFloat.assign(elems, 0.0f);
        }
        for (std::size_t i = 0; i < parts.size(); ++i) {
            const GemmShard& shard = plan.shards[i];
            if (plan.spec.strategy == ShardStrategy::ColumnParallel) {
                const std::size_t offset = shard.begin * plan.n;
                if (hasInt) {
                    std::copy(parts[i].outInt.begin(),
                              parts[i].outInt.end(),
                              out.outInt.begin() +
                                  static_cast<std::ptrdiff_t>(offset));
                } else {
                    std::copy(parts[i].outFloat.begin(),
                              parts[i].outFloat.end(),
                              out.outFloat.begin() +
                                  static_cast<std::ptrdiff_t>(offset));
                }
            } else {
                LOCALUT_ASSERT(hasInt, "row-parallel reduce is int-only");
                LOCALUT_ASSERT(parts[i].outInt.size() == elems,
                               "row-parallel partial has wrong shape");
                for (std::size_t e = 0; e < elems; ++e) {
                    out.outInt[e] += parts[i].outInt[e];
                }
            }
        }
    }

    // Charge the collective on top of the critical shard.
    if (plan.collectiveSeconds > 0 || plan.collectiveJoules > 0) {
        out.timing.linkSeconds += plan.collectiveSeconds;
        out.timing.total += plan.collectiveSeconds;
        out.timing.seconds.add("link.collective", plan.collectiveSeconds);
        out.energy.total += plan.collectiveJoules;
        out.energy.joules.add("link.collective", plan.collectiveJoules);
        out.cost.addLinkBytes(Phase::LinkOut, plan.collectiveBytes);
    }
    if (plan.hostReduceOps > 0) {
        TimingReport reduceTiming;
        EnergyReport reduceEnergy;
        chargeHostReduce(backend, plan, reduceTiming, reduceEnergy);
        accumulate(out.timing, reduceTiming);
        accumulate(out.energy, reduceEnergy);
        out.cost.addHostOps(Phase::HostOther, plan.hostReduceOps);
    }
    return out;
}

GemmResult
executeSharded(const Backend& backend, const GemmProblem& problem,
               const ShardPlan& plan, bool computeValues)
{
    ExecOptions options;
    options.computeValues = computeValues;
    return executeSharded(backend, problem, plan, options);
}

GemmResult
executeSharded(const Backend& backend, const GemmProblem& problem,
               const ShardPlan& plan, const ExecOptions& options,
               PlanCache* cache, const PlanOverrides& overrides)
{
    std::vector<GemmResult> parts;
    parts.reserve(plan.shards.size());
    for (unsigned i = 0; i < plan.shards.size(); ++i) {
        const GemmProblem slice = shardProblem(problem, plan, i);
        const std::shared_ptr<const PreparedGemm> prepared =
            cache != nullptr
                ? cache->operandFor(backend, slice, plan.shards[i].plan,
                                    options.computeValues, overrides)
                : nullptr;
        ExecOptions shardOptions = options;
        shardOptions.prepared = prepared.get();
        parts.push_back(backend.execute(slice, plan.shards[i].plan,
                                        shardOptions));
    }
    return reduceShardResults(backend, plan, std::move(parts));
}

InferenceReport
executeShardedWorkload(const Backend& backend,
                       const std::vector<ShardedGemm>& nodes,
                       const QuantConfig& quant, double hostOps,
                       const ExecOptions& options)
{
    ExecOptions nodeOptions = options;
    nodeOptions.computeValues = false; // workload nodes are shape-only
    nodeOptions.prepared = nullptr;
    InferenceReport report;
    for (const ShardedGemm& node : nodes) {
        const GemmProblem problem = makeShapeOnlyProblem(
            node.gemm.m, node.gemm.k, node.gemm.n, quant);
        const GemmResult r =
            executeSharded(backend, problem, node.plan, nodeOptions);
        accumulate(report.timing, r.timing, node.gemm.count);
        accumulate(report.energy, r.energy, node.gemm.count);
        // The node's end-to-end time contains the collective and (for
        // RowParallel) the host partial-sum reduce; classify those into
        // their own report shares so gemm + host + collective == total.
        double reduceSeconds = 0;
        if (node.plan.hostReduceOps > 0) {
            TimingReport reduceTiming;
            EnergyReport reduceEnergy;
            chargeHostReduce(backend, node.plan, reduceTiming,
                             reduceEnergy);
            reduceSeconds = reduceTiming.total;
        }
        report.gemmSeconds +=
            (r.timing.total - node.plan.collectiveSeconds - reduceSeconds) *
            node.gemm.count;
        report.hostOpSeconds += reduceSeconds * node.gemm.count;
        report.collectiveSeconds +=
            node.plan.collectiveSeconds * node.gemm.count;
    }
    TimingReport hostTiming;
    EnergyReport hostEnergy;
    backend.chargeHostOps(hostOps, hostTiming, hostEnergy);
    accumulate(report.timing, hostTiming);
    accumulate(report.energy, hostEnergy);
    report.hostOpSeconds += hostTiming.total;
    return report;
}

WorkloadCostProjection
projectShardedWorkloadCost(const Backend& backend,
                           const std::vector<ShardedGemm>& nodes,
                           const QuantConfig& quant, double hostOps)
{
    const InferenceReport report =
        executeShardedWorkload(backend, nodes, quant, hostOps);
    return {report.gemmSeconds, report.hostOpSeconds,
            report.collectiveSeconds};
}

} // namespace localut
