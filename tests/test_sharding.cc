/**
 * @file
 * Sharded execution layer tests: ShardPlan partitioning (coverage,
 * alignment / head-parallel boundaries, degenerate axes), bit-exact
 * parity of sharded vs unsharded execution for integer and float
 * configs, the collective cost model (non-negative, monotone, absent at
 * one rank), the sharded InferenceSession path (shards run as one tile
 * batch, deterministic reduction and error), and the acceptance
 * criterion of sharding: the fig10 OPT decode workload is faster
 * sharded across 4 ranks than unsharded.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "common/logging.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"
#include "serving/session.h"
#include "serving/sharding.h"

namespace localut {
namespace {

TEST(ShardPlan, SingleRankIsTheUnshardedPlan)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(96, 64, 8, cfg);

    const ShardPlan plan = makeShardPlan(*backend, problem,
                                         DesignPoint::LoCaLut, ShardSpec{});
    ASSERT_EQ(plan.shards.size(), 1u);
    EXPECT_EQ(plan.shards[0].begin, 0u);
    EXPECT_EQ(plan.shards[0].end, 96u);
    EXPECT_DOUBLE_EQ(plan.collectiveSeconds, 0.0);
    EXPECT_DOUBLE_EQ(plan.collectiveBytes, 0.0);

    // Execution through the shard path is the direct execution.
    const GemmResult sharded =
        executeSharded(*backend, problem, plan, /*computeValues=*/false);
    const GemmResult direct =
        backend->execute(problem, plan.shards[0].plan,
                         /*computeValues=*/false);
    EXPECT_DOUBLE_EQ(sharded.timing.total, direct.timing.total);
    EXPECT_DOUBLE_EQ(sharded.energy.total, direct.energy.total);
}

TEST(ShardPlan, CoversTheAxisWithAlignedBoundaries)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    // 768 rows, head size 64, 4 ranks: each shard must hold whole heads.
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 32, cfg);
    ShardSpec spec;
    spec.numRanks = 4;
    spec.align = 64;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);

    ASSERT_EQ(plan.shards.size(), 4u);
    std::size_t covered = 0;
    for (const GemmShard& shard : plan.shards) {
        EXPECT_EQ(shard.begin, covered);
        EXPECT_EQ(shard.begin % 64, 0u) << "head split across ranks";
        covered = shard.end;
    }
    EXPECT_EQ(covered, 768u);
    EXPECT_GT(plan.collectiveSeconds, 0.0);
    EXPECT_DOUBLE_EQ(plan.collectiveBytes, 768.0 * 32.0 * 4.0);
}

TEST(ShardPlan, DegenerateAxisProducesFewerShards)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    // 3 output rows cannot feed 8 ranks.
    const GemmProblem problem = makeShapeOnlyProblem(3, 64, 8, cfg);
    ShardSpec spec;
    spec.numRanks = 8;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_LE(plan.shards.size(), 3u);
    EXPECT_EQ(plan.shards.back().end, 3u);
}

TEST(ShardPlan, ColumnParallelIsBitExactOnEveryBackend)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(48, 96, 16, cfg, 7);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    for (const char* name : {"upmem", "bankpim", "host-cpu"}) {
        const BackendPtr backend = makeBackend(name);
        for (unsigned ranks : {2u, 4u, 8u}) {
            ShardSpec spec;
            spec.numRanks = ranks;
            const ShardPlan plan = makeShardPlan(
                *backend, problem, DesignPoint::LoCaLut, spec);
            const GemmResult result =
                executeSharded(*backend, problem, plan);
            EXPECT_EQ(result.outInt, reference)
                << name << " ranks=" << ranks;
        }
    }
}

/** Both cuts the layer offers, the plain column cut and the
 * head-parallel one (boundaries on a 24-row head size, so the slices
 * differ from the plain cut at every rank count), reproduce the
 * unsharded output. */
TEST(ShardPlan, BothStrategiesStayBitExactAcrossRankCounts)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(64, 64, 8, cfg, 91);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    const BackendPtr backend = makeBackend("upmem");
    for (const std::size_t align : {std::size_t{1}, std::size_t{24}}) {
        for (const unsigned ranks : {2u, 4u, 8u}) {
            ShardSpec spec;
            spec.numRanks = ranks;
            spec.align = align;
            const ShardPlan plan = makeShardPlan(
                *backend, problem, DesignPoint::LoCaLut, spec);
            for (const GemmShard& shard : plan.shards)
                EXPECT_EQ(shard.begin % align, 0u)
                    << "align=" << align << " ranks=" << ranks;
            const GemmResult result =
                executeSharded(*backend, problem, plan);
            EXPECT_EQ(result.outInt, reference)
                << "align=" << align << " ranks=" << ranks;
        }
    }
}

/** The all-gather concatenates fp32 slices too: a float config cut
 * across ranks, sequentially and as a session gang, reproduces the
 * unsharded values exactly. */
TEST(ShardPlan, FloatConfigsGatherBitExactly)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::fpPreset(1, 8);
    const GemmProblem problem =
        makeRandomProblem(40, 32, 4, cfg, /*seed=*/17);
    const auto reference = referenceGemmFloat(problem.w, problem.a);

    for (const unsigned ranks : {1u, 2u, 4u}) {
        ShardSpec spec;
        spec.numRanks = ranks;
        const ShardPlan plan =
            makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
        ASSERT_EQ(plan.shards.size(), ranks);
        EXPECT_EQ(executeSharded(*backend, problem, plan).outFloat,
                  reference)
            << "executeSharded ranks=" << ranks;

        SessionOptions options;
        options.numRanks = ranks;
        InferenceSession session(backend, options);
        const GemmResult viaGang = session.wait(session.submit(
            problem, DesignPoint::LoCaLut, /*computeValues=*/true));
        EXPECT_EQ(viaGang.outFloat, reference) << "gang ranks=" << ranks;
    }
}

TEST(ShardPlan, CollectiveCostIsMonotoneInRanks)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 32, cfg);

    double prevSeconds = 0.0;
    double prevBytes = 0.0;
    for (unsigned ranks : {1u, 2u, 4u, 8u}) {
        ShardSpec spec;
        spec.numRanks = ranks;
        const ShardPlan plan =
            makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
        EXPECT_GE(plan.collectiveSeconds, prevSeconds) << ranks;
        EXPECT_GE(plan.collectiveBytes, prevBytes) << ranks;
        EXPECT_GE(plan.collectiveJoules, 0.0) << ranks;
        prevSeconds = plan.collectiveSeconds;
        prevBytes = plan.collectiveBytes;
    }
}

TEST(PlanCacheSharding, ShardPlansAreMemoizedSeparately)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(128, 64, 8, cfg);
    PlanCache cache;

    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan first = cache.shardPlanFor(
        *backend, problem, DesignPoint::LoCaLut, spec);
    const auto afterFirst = cache.stats();
    // One ShardPlan entry + one sub-plan entry per distinct slice shape.
    EXPECT_GE(afterFirst.entries, 2u);

    const ShardPlan second = cache.shardPlanFor(
        *backend, problem, DesignPoint::LoCaLut, spec);
    EXPECT_EQ(cache.stats().misses, afterFirst.misses);
    EXPECT_GT(cache.stats().hits, afterFirst.hits);
    EXPECT_EQ(second.shards.size(), first.shards.size());

    // A different rank count is a different key.
    ShardSpec other = spec;
    other.numRanks = 2;
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, other);
    EXPECT_GT(cache.stats().misses, afterFirst.misses);
}

TEST(ShardedSession, GemmRequestsAreBitExactWithUnsharded)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    SessionOptions sharded;
    sharded.numRanks = 4;
    InferenceSession shardedSession(makeBackend("upmem"), sharded);
    InferenceSession plainSession(makeBackend("upmem"));

    std::vector<InferenceSession::RequestId> shardedIds, plainIds;
    std::vector<GemmProblem> problems;
    for (unsigned i = 0; i < 8; ++i) {
        problems.push_back(
            makeRandomProblem(64, 64, 8, cfg, /*seed=*/300 + i));
        shardedIds.push_back(shardedSession.submit(
            problems.back(), DesignPoint::LoCaLut, /*computeValues=*/true));
        plainIds.push_back(plainSession.submit(
            problems.back(), DesignPoint::LoCaLut, /*computeValues=*/true));
    }
    for (unsigned i = 0; i < problems.size(); ++i) {
        const GemmResult viaSharded = shardedSession.wait(shardedIds[i]);
        const GemmResult viaPlain = plainSession.wait(plainIds[i]);
        const auto reference =
            referenceGemmInt(problems[i].w, problems[i].a);
        EXPECT_EQ(viaSharded.outInt, reference) << i;
        EXPECT_EQ(viaPlain.outInt, reference) << i;
        // Sharding always charges the collective hop.
        EXPECT_GT(viaSharded.timing.total, 0.0);
        EXPECT_GT(viaSharded.timing.seconds.get("link.collective"), 0.0);
    }
    EXPECT_EQ(shardedSession.pendingRequests(), 0u);
}

TEST(ShardedSession, MatchesSequentialShardedExecution)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    const GemmProblem problem = makeRandomProblem(96, 64, 8, cfg, 21);

    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(backend, options);
    const GemmResult viaSession = session.wait(
        session.submit(problem, DesignPoint::LoCaLut,
                       /*computeValues=*/true));

    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    const GemmResult sequential = executeSharded(*backend, problem, plan);

    EXPECT_EQ(viaSession.outInt, sequential.outInt);
    EXPECT_DOUBLE_EQ(viaSession.timing.total, sequential.timing.total);
    EXPECT_DOUBLE_EQ(viaSession.energy.total, sequential.energy.total);
}

TEST(ShardedSession, WorkloadShardsEveryGemmNode)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);

    const auto workload = session.compile(
        WorkloadSpec::decode(model, 32, 128, 2), cfg, DesignPoint::LoCaLut);
    EXPECT_TRUE(workload.sharded());
    EXPECT_EQ(workload.shardedNodes.size(), 4u);
    EXPECT_EQ(workload.numRanks, 4u);
    EXPECT_TRUE(workload.nodes.empty());
    // QKV shards align to the attention head size (head-parallel).
    const ShardPlan& qkv = workload.shardedNodes.front().plan;
    for (const GemmShard& shard : qkv.shards) {
        EXPECT_EQ(shard.begin % model.headDim(), 0u);
    }

    const InferenceReport report = session.run(workload);
    EXPECT_GT(report.timing.total, 0.0);
    EXPECT_GT(report.collectiveSeconds, 0.0);
    // The report shares partition the total: the collective is not
    // hidden inside the GEMM share too.
    EXPECT_NEAR(report.gemmSeconds + report.hostOpSeconds +
                    report.collectiveSeconds,
                report.timing.total, report.timing.total * 1e-9);
}

/** The ISSUE acceptance criterion: fig10's OPT decode workload, sharded
 * across 4 ranks, has a lower modeled latency than unsharded. */
TEST(ShardedSession, Fig10OptDecodeFasterAtFourRanks)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const WorkloadSpec spec = WorkloadSpec::decode(model, 32, 128, 8);

    InferenceSession plain(makeBackend("upmem"));
    const InferenceReport unsharded =
        plain.run(plain.compile(spec, cfg, DesignPoint::LoCaLut));

    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);
    const InferenceReport sharded =
        session.run(session.compile(spec, cfg, DesignPoint::LoCaLut));

    EXPECT_LT(sharded.timing.total, unsharded.timing.total);
    EXPECT_GT(sharded.collectiveSeconds, 0.0);
    // The collective is an overhead the unsharded path does not pay, so
    // speedup stays below the 4x hardware scale-out.
    EXPECT_GT(sharded.timing.total, unsharded.timing.total / 4.0);
}

/** Bit-exactness of the 4-rank cut end to end: sharded GEMM requests
 * reproduce the unsharded values exactly. */
TEST(ShardedSession, TwoNodeGemmRequestsAreBitExactWithUnsharded)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);
    EXPECT_EQ(session.totalRanks(), 4u);

    for (unsigned i = 0; i < 4; ++i) {
        const GemmProblem problem =
            makeRandomProblem(64, 64, 8, cfg, /*seed=*/500 + i);
        const GemmResult result = session.wait(session.submit(
            problem, DesignPoint::LoCaLut, /*computeValues=*/true));
        EXPECT_EQ(result.outInt, referenceGemmInt(problem.w, problem.a))
            << i;
    }
}

TEST(ShardedSession, RejectsWorkloadCompiledForOtherRankCount)
{
    const BackendPtr backend = makeBackend("upmem");
    const WorkloadSpec spec =
        WorkloadSpec::prefill(TransformerConfig::bertBase(), 2, 16);
    const QuantConfig cfg = QuantConfig::preset("W1A3");

    InferenceSession plain(backend);
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession sharded(backend, options);

    // A sharded workload on a session with a different rank count must
    // be rejected (its shard cut no longer matches any rank layout).
    const auto shardedWork =
        sharded.compile(spec, cfg, DesignPoint::LoCaLut);
    EXPECT_THROW(plain.run(shardedWork), std::runtime_error);

    // An *unsharded* workload, by contrast, occupies a single rank and
    // is valid on any session of the backend — the data-parallel
    // serving contract the RequestScheduler relies on: it must execute
    // whole and report exactly the single-rank cost.
    const auto unshardedWork =
        plain.compile(spec, cfg, DesignPoint::LoCaLut);
    const InferenceReport onPlain = plain.run(unshardedWork);
    const InferenceReport onSharded = sharded.run(unshardedWork);
    EXPECT_DOUBLE_EQ(onSharded.timing.total, onPlain.timing.total);
    EXPECT_DOUBLE_EQ(onSharded.collectiveSeconds, 0.0);
}

TEST(ShardedSession, ErrorsInShardedRequestsSurfaceAtWait)
{
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("bankpim"), options);
    const GemmProblem problem = makeShapeOnlyProblem(
        64, 64, 8, QuantConfig::preset("W1A3"));
    // bankpim cannot plan LTC; the plan stage fails and must surface at
    // wait() without wedging the work queue.
    const auto bad = session.submit(problem, DesignPoint::Ltc);
    EXPECT_THROW(session.wait(bad), std::runtime_error);

    const auto ok = session.submit(problem, DesignPoint::LoCaLut);
    EXPECT_GT(session.wait(ok).timing.total, 0.0);
}

/** A gang whose shards 1 and 3 both fail: wait() rethrows shard 1's
 * error every time, whichever shard's thread fails first. */
TEST(ShardedSession, FailingShardsReportTheLowestShardsError)
{
    const BackendPtr backend = makeBackend("upmem");
    GemmProblem problem =
        makeRandomProblem(256, 128, 8, QuantConfig::preset("W4A4"), 61);
    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(plan.shards.size(), 4u);
    // A weight code past the 4-bit codec's 16 symbols fails the
    // kernel's range check, which names the slice's largest code.
    problem.w.codes[plan.shards[1].begin * problem.w.cols] = 17;
    problem.w.codes[plan.shards[3].begin * problem.w.cols] = 20;

    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(backend, options);
    for (unsigned i = 0; i < 20; ++i) {
        const auto id = session.submit(problem, DesignPoint::LoCaLut,
                                       /*computeValues=*/true);
        try {
            session.wait(id);
            ADD_FAILURE() << "submit " << i << " did not fail";
        } catch (const FatalError& error) {
            EXPECT_NE(std::string(error.what()).find("code 17"),
                      std::string::npos)
                << "submit " << i << ": " << error.what();
        }
    }
    EXPECT_EQ(session.pendingRequests(), 0u);
}

/** A worker waiting on its own gang's batch claims every shard no
 * other thread holds, so gangs complete with fewer workers than
 * shards: four submitters each submit six gangs to a 4-rank session,
 * and every result must be bit-exact. */
TEST(ShardedSession, ConcurrentGangsCompleteOnFewerWorkersThanShards)
{
    constexpr unsigned kSubmitters = 4;
    constexpr unsigned kGangs = 6;
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> problems;
    std::vector<std::vector<std::int32_t>> refs;
    for (unsigned i = 0; i < 4; ++i) {
        problems.push_back(
            makeRandomProblem(512, 512, 32, cfg, /*seed=*/700 + i));
        refs.push_back(referenceGemmInt(problems.back().w, problems.back().a));
    }
    for (const unsigned workers : {1u, 2u}) {
        SessionOptions options;
        options.numRanks = 4;
        options.workers = workers;
        InferenceSession session(makeBackend("upmem"), options);
        ASSERT_EQ(session.workerCount(), workers);
        std::atomic<unsigned> exact{0};
        std::vector<std::thread> submitters;
        for (unsigned t = 0; t < kSubmitters; ++t) {
            submitters.emplace_back([&, t] {
                std::vector<InferenceSession::RequestId> ids;
                for (unsigned g = 0; g < kGangs; ++g) {
                    ids.push_back(session.submit(
                        problems[(t + g) % problems.size()],
                        DesignPoint::LoCaLut, /*computeValues=*/true));
                }
                for (unsigned g = 0; g < kGangs; ++g) {
                    if (session.wait(ids[g]).outInt ==
                        refs[(t + g) % refs.size()]) {
                        ++exact;
                    }
                }
            });
        }
        for (std::thread& submitter : submitters) {
            submitter.join();
        }
        EXPECT_EQ(exact.load(), kSubmitters * kGangs)
            << workers << " workers";
        EXPECT_EQ(session.pendingRequests(), 0u);
    }
}

} // namespace
} // namespace localut
