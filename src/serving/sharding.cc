#include "serving/sharding.h"

#include <algorithm>
#include <utility>

#include "common/bitops.h"
#include "common/logging.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"

namespace localut {

namespace {

/** Output elements are int32 (integer configs) or fp32: 4 bytes both. */
constexpr double kOutBytes = 4.0;

/**
 * Charges the all-gather collective of @p plan (> 1 shard only): every
 * rank drains its slice out of its banks while the host link moves the
 * aggregate (collectiveHopCost).  Golden-pinned against the closed form
 * in test_golden_costs.
 */
void
chargeCollective(const Backend& backend, ShardPlan& plan)
{
    if (plan.shards.size() <= 1) {
        return;
    }
    const CollectiveLinkProfile prof = backend.collectiveProfile();

    double perRankBytes = 0; // the largest single rank's contribution
    double totalBytes = 0;   // moved rank -> host, summed over ranks
    for (const GemmShard& shard : plan.shards) {
        const double bytes = static_cast<double>(shard.extent()) *
                             static_cast<double>(plan.n) * kOutBytes;
        perRankBytes = std::max(perRankBytes, bytes);
        totalBytes += bytes;
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
}

} // namespace

ShardPlan
makeShardPlan(const Backend& backend, const GemmProblem& problem,
              DesignPoint design, const ShardSpec& spec,
              const PlanOverrides& overrides, PlanCache* cache)
{
    LOCALUT_REQUIRE(spec.numRanks >= 1, "a shard plan needs >= 1 rank");
    requireOperandShapes(problem);
    ShardPlan plan;
    plan.spec = spec;
    plan.design = design;
    plan.config = problem.config();
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();

    // Cut M into numRanks contiguous, alignment-respecting slices (ceil
    // split: the tail shard may be shorter or absent when M is small).
    const std::size_t align = std::max<std::size_t>(1, spec.align);
    const std::size_t groups = ceilDiv(plan.m, align);
    const std::size_t step =
        ceilDiv(groups, static_cast<std::size_t>(spec.numRanks)) * align;
    for (unsigned r = 0; static_cast<std::size_t>(r) * step < plan.m; ++r) {
        const std::size_t begin = static_cast<std::size_t>(r) * step;
        const std::size_t end = std::min(plan.m, begin + step);
        const GemmProblem slice =
            makeShapeOnlyProblem(end - begin, plan.k, plan.n, plan.config);
        GemmPlan subPlan =
            cache ? cache->shardSubPlanFor(backend, slice, design,
                                           overrides)
                  : backend.plan(slice, design, overrides);
        plan.shards.push_back({r, begin, end, std::move(subPlan)});
    }
    LOCALUT_ASSERT(!plan.shards.empty() &&
                       plan.shards.back().end == plan.m,
                   "shard partition does not cover M");
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

    // W rows [lo, hi) (row-major: contiguous); all of A.
    GemmProblem sub;
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
    return sub;
}

GemmResult
reduceShardResults(const ShardPlan& plan, std::vector<GemmResult> parts)
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
        // A single shard covers the whole output.
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
            const std::ptrdiff_t offset =
                static_cast<std::ptrdiff_t>(plan.shards[i].begin * plan.n);
            if (hasInt) {
                std::copy(parts[i].outInt.begin(), parts[i].outInt.end(),
                          out.outInt.begin() + offset);
            } else {
                std::copy(parts[i].outFloat.begin(),
                          parts[i].outFloat.end(),
                          out.outFloat.begin() + offset);
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
    return reduceShardResults(plan, std::move(parts));
}

InferenceReport
priceShardedWorkloadGemms(const Backend& backend,
                          const std::vector<ShardedGemm>& nodes,
                          const QuantConfig& quant)
{
    InferenceReport report;
    for (const ShardedGemm& node : nodes) {
        const GemmProblem problem = makeShapeOnlyProblem(
            node.gemm.m, node.gemm.k, node.gemm.n, quant);
        const GemmResult r = executeSharded(backend, problem, node.plan,
                                            /*computeValues=*/false);
        accumulate(report.timing, r.timing, node.gemm.count);
        accumulate(report.energy, r.energy, node.gemm.count);
        // The node's end-to-end time contains the collective; classify it
        // into its own report share so gemm + host + collective == total.
        report.gemmSeconds +=
            (r.timing.total - node.plan.collectiveSeconds) * node.gemm.count;
        report.collectiveSeconds +=
            node.plan.collectiveSeconds * node.gemm.count;
    }
    return report;
}

} // namespace localut
