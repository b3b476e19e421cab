/**
 * @file
 * Differential fuzzing of the cross-backend / sharded-vs-unsharded
 * parity invariant: ~200 randomized GemmProblem shapes x quantization
 * configs execute on the upmem, bankpim, host-cpu, and upmem-sim
 * backends (upmem-sim changes DPU timing only, never numerics), sharded
 * (num_ranks in {2, 4, 8, 16}, both strategies) and
 * unsharded, asserting
 *
 *  - bit-exact functional outputs everywhere (the reference is
 *    referenceGemmInt on the raw codes), and
 *  - monotone non-negative cost deltas: the sharded execution is never
 *    faster than its own critical shard, the collective charge is never
 *    negative, and collective bytes never shrink as ranks grow.
 *
 * Shapes are drawn from a deterministic SplitMix64 stream, so a failure
 * reproduces from the case index alone.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/exec_engine.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"
#include "serving/sharding.h"

namespace localut {
namespace {

struct FuzzCase {
    std::size_t m, k, n;
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()};
    std::string backend;
    unsigned ranks;
    ShardStrategy strategy;
    std::uint64_t seed;

    std::string
    describe() const
    {
        return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " n=" + std::to_string(n) + " " + config.name() + " " +
               backend + " ranks=" + std::to_string(ranks) + " " +
               shardStrategyName(strategy);
    }
};

std::vector<FuzzCase>
drawCases(std::size_t count)
{
    Rng rng(0xf022);
    const std::vector<QuantConfig> configs = QuantConfig::paperConfigs();
    const char* backends[] = {"upmem", "bankpim", "host-cpu", "upmem-sim"};
    const unsigned rankChoices[] = {2, 4, 8};
    std::vector<FuzzCase> cases;
    cases.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        FuzzCase c;
        c.m = 1 + rng.nextBounded(96);
        c.k = 2 + rng.nextBounded(96);
        c.n = 1 + rng.nextBounded(32);
        c.config = configs[rng.nextBounded(configs.size())];
        c.backend = backends[rng.nextBounded(4)];
        c.ranks = rankChoices[rng.nextBounded(3)];
        // Half the cases double the cut (up to 16 ranks).
        c.ranks *= 1 + rng.nextBounded(2);
        // Row-parallel on a minority of the integer cases; k >= 2 keeps
        // the cut non-degenerate.
        c.strategy = rng.nextBounded(4) == 0
                         ? ShardStrategy::RowParallel
                         : ShardStrategy::ColumnParallel;
        c.seed = 1000 + i;
        cases.push_back(c);
    }
    return cases;
}

TEST(ParityFuzz, ShardedMatchesUnshardedAcrossBackends)
{
    const std::vector<FuzzCase> cases = drawCases(200);
    // One cache shared by all backends (PlanKey embeds the backend name
    // + fingerprint, so entries never alias): repeated slice shapes
    // reuse their sub-plans, which keeps 200 planner walks cheap.
    PlanCache cache;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const FuzzCase& c = cases[i];
        SCOPED_TRACE("case " + std::to_string(i) + ": " + c.describe());
        const BackendPtr backend = makeBackend(c.backend);
        const GemmProblem problem =
            makeRandomProblem(c.m, c.k, c.n, c.config, c.seed);
        const auto reference = referenceGemmInt(problem.w, problem.a);

        // Unsharded execution on this backend.
        const GemmPlan plain =
            cache.planFor(*backend, problem, DesignPoint::LoCaLut);
        const GemmResult unsharded = backend->execute(problem, plain);
        EXPECT_EQ(unsharded.outInt, reference);

        // Sharded execution: bit-exact with the unsharded output (a
        // wider cut never reorders any element's accumulation).
        ShardSpec spec;
        spec.numRanks = c.ranks;
        spec.strategy = c.strategy;
        const ShardPlan plan = cache.shardPlanFor(
            *backend, problem, DesignPoint::LoCaLut, spec);
        const GemmResult sharded = executeSharded(*backend, problem, plan);
        EXPECT_EQ(sharded.outInt, unsharded.outInt);

        // Monotone non-negative cost deltas: the collective never gives
        // time or bytes back, and the reduced result is never faster
        // than its slowest shard.
        EXPECT_GE(plan.collectiveSeconds, 0.0);
        EXPECT_GE(plan.collectiveJoules, 0.0);
        EXPECT_GE(plan.collectiveBytes, 0.0);
        double criticalShardSeconds = 0.0;
        for (unsigned s = 0; s < plan.shards.size(); ++s) {
            const GemmResult part = backend->execute(
                shardProblem(problem, plan, s), plan.shards[s].plan,
                /*computeValues=*/false);
            criticalShardSeconds =
                std::max(criticalShardSeconds, part.timing.total);
        }
        EXPECT_GE(sharded.timing.total + 1e-18,
                  criticalShardSeconds + plan.collectiveSeconds);
    }
}

/**
 * Prepared-operand parity: prepared (cached PreparedGemm + arena +
 * tile-parallel) execution is bit-exact against unprepared execution
 * across upmem/bankpim/host-cpu x ranks {1, 2, 4} x tile threads
 * {1, 4}, unsharded and sharded alike.
 */
TEST(ParityFuzz, PreparedMatchesUnpreparedAcrossBackendsRanksThreads)
{
    Rng rng(0x9e37);
    const std::vector<QuantConfig> configs = QuantConfig::paperConfigs();
    const char* backends[] = {"upmem", "bankpim", "host-cpu", "upmem-sim"};
    PlanCache cache;
    TilePool pool(4);
    for (unsigned i = 0; i < 48; ++i) {
        const std::size_t m = 1 + rng.nextBounded(80);
        const std::size_t k = 2 + rng.nextBounded(80);
        const std::size_t n = 1 + rng.nextBounded(24);
        const QuantConfig cfg = configs[rng.nextBounded(configs.size())];
        const BackendPtr backend = makeBackend(backends[rng.nextBounded(4)]);
        const GemmProblem problem =
            makeRandomProblem(m, k, n, cfg, 0xabc0 + i);
        SCOPED_TRACE("case " + std::to_string(i) + ": m=" +
                     std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n) + " " + cfg.name() + " " +
                     backend->name());

        const GemmPlan plan =
            cache.planFor(*backend, problem, DesignPoint::LoCaLut);
        const GemmResult baseline = backend->execute(problem, plan);
        EXPECT_EQ(baseline.outInt,
                  referenceGemmInt(problem.w, problem.a));

        for (unsigned threads : {1u, 4u}) {
            ExecOptions options;
            const std::shared_ptr<const PreparedGemm> prepared =
                cache.preparedFor(*backend, problem, plan);
            options.prepared = prepared.get();
            if (threads > 1) {
                options.tiles = &pool;
            }
            const GemmResult prep = backend->execute(problem, plan, options);
            EXPECT_EQ(prep.outInt, baseline.outInt) << "threads=" << threads;

            for (unsigned ranks : {2u, 4u}) {
                ShardSpec spec;
                spec.numRanks = ranks;
                const ShardPlan shardPlan = cache.shardPlanFor(
                    *backend, problem, DesignPoint::LoCaLut, spec);
                ExecOptions shardOptions;
                shardOptions.tiles = options.tiles;
                const GemmResult sharded = executeSharded(
                    *backend, problem, shardPlan, shardOptions, &cache);
                EXPECT_EQ(sharded.outInt, baseline.outInt)
                    << "ranks=" << ranks << " threads=" << threads;
            }
        }
    }
    // The prepared cache actually served repeats: every (shape, ranks,
    // threads) revisit of the same weights is a hit.
    const PlanCache::Stats stats = cache.stats();
    EXPECT_GT(stats.preparedHits, 0u);
    EXPECT_GT(stats.preparedMisses, 0u);
}

/**
 * Prepared execution through the vectorized fused lookup-accumulate
 * loops matches the reference GEMM on ALL five backends (including
 * host-gpu), serial and tile-parallel; float execution is bit-identical
 * serial vs tile-parallel, streaming on and off (the float
 * accumulation order is part of the contract).
 */
TEST(ParityFuzz, PreparedMatchesReferenceAcrossAllBackends)
{
    Rng rng(0x51d0);
    const std::vector<QuantConfig> configs = QuantConfig::paperConfigs();
    const char* backends[] = {"upmem", "bankpim", "host-cpu", "host-gpu",
                              "upmem-sim"};
    PlanCache cache;
    TilePool pool(4);
    for (const char* name : backends) {
        const BackendPtr backend = makeBackend(name);
        for (unsigned i = 0; i < 8; ++i) {
            const std::size_t m = 1 + rng.nextBounded(80);
            const std::size_t k = 2 + rng.nextBounded(80);
            const std::size_t n = 1 + rng.nextBounded(24);
            const QuantConfig cfg =
                configs[rng.nextBounded(configs.size())];
            const GemmProblem problem =
                makeRandomProblem(m, k, n, cfg, 0x51d0 + i);
            SCOPED_TRACE(std::string(name) + " case " + std::to_string(i) +
                         ": m=" + std::to_string(m) + " k=" +
                         std::to_string(k) + " n=" + std::to_string(n) +
                         " " + cfg.name());
            const GemmPlan plan =
                cache.planFor(*backend, problem, DesignPoint::LoCaLut);
            const std::shared_ptr<const PreparedGemm> prepared =
                cache.preparedFor(*backend, problem, plan);
            for (unsigned threads : {1u, 4u}) {
                ExecOptions options;
                options.prepared = prepared.get();
                if (threads > 1) {
                    options.tiles = &pool;
                }
                const GemmResult r = backend->execute(problem, plan, options);
                EXPECT_EQ(r.outInt, referenceGemmInt(problem.w, problem.a))
                    << "threads=" << threads;
            }
        }
    }

    // Float path: the vectorized dimension is a block of 8 output
    // columns (independent outputs), never the group reduction, and
    // tiles cut only the output, so float accumulation is bit-identical
    // serial vs tile-parallel — with and without slice streaming.  This
    // shape is under the per-tile work floor and runs as one tile; the
    // ExecTiling suite (test_exec_engine.cc) covers GEMMs cut into
    // several.
    const QuantConfig fpCfg = QuantConfig::fpPreset(1, 8);
    const GemmProblem fpProblem = makeRandomProblem(33, 48, 6, fpCfg, 17);
    for (bool streaming : {false, true}) {
        GemmPlan plan(DesignPoint::LoCaLut, fpProblem.config());
        plan.m = fpProblem.m();
        plan.k = fpProblem.k();
        plan.n = fpProblem.n();
        plan.p = 2;
        plan.streaming = streaming;
        plan.kSlices = streaming ? 4 : 1;
        plan.groups =
            static_cast<unsigned>((plan.k + plan.p - 1) / std::size_t{plan.p});
        const auto prepared = prepareGemm(fpProblem, plan);
        ExecOptions serial;
        serial.prepared = prepared.get();
        ExecOptions tiled = serial;
        tiled.tiles = &pool;
        std::vector<float> serialOut, tiledOut;
        executeGemmFloat(fpProblem, plan, serial, serialOut);
        executeGemmFloat(fpProblem, plan, tiled, tiledOut);
        EXPECT_EQ(serialOut, tiledOut) << "streaming=" << streaming;
    }
}

TEST(ParityFuzz, CollectiveBytesMonotoneInRanks)
{
    Rng rng(0xbeef);
    const std::vector<QuantConfig> configs = QuantConfig::paperConfigs();
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    for (unsigned i = 0; i < 24; ++i) {
        const std::size_t m = 8 + rng.nextBounded(120);
        const std::size_t k = 8 + rng.nextBounded(120);
        const std::size_t n = 1 + rng.nextBounded(32);
        const QuantConfig cfg = configs[rng.nextBounded(configs.size())];
        const GemmProblem problem = makeShapeOnlyProblem(m, k, n, cfg);
        SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                     " n=" + std::to_string(n) + " " + cfg.name());
        double prevBytes = 0.0, prevSeconds = 0.0;
        for (unsigned ranks : {1u, 2u, 4u, 8u}) {
            ShardSpec spec;
            spec.numRanks = ranks;
            const ShardPlan plan = cache.shardPlanFor(
                *backend, problem, DesignPoint::LoCaLut, spec);
            EXPECT_GE(plan.collectiveBytes, prevBytes) << ranks;
            EXPECT_GE(plan.collectiveSeconds, prevSeconds) << ranks;
            prevBytes = plan.collectiveBytes;
            prevSeconds = plan.collectiveSeconds;
        }
    }
}

} // namespace
} // namespace localut
