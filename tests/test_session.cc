/**
 * @file
 * InferenceSession tests: asynchronous submit/wait matches the
 * synchronous engine bit-for-bit, compiled workloads match the
 * TransformerRunner and carry table sets that run the same on any
 * session, decode steps reuse cached plans, errors raised
 * inside worker threads surface at wait(), and malformed GEMM input (or
 * a rank outside the grid) is rejected as a FatalError at the backend,
 * session, fault-injector and residency entry points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "backend/upmem_backend.h"
#include "common/logging.h"
#include "nn/inference.h"
#include "serving/session.h"
#include "serving/sharding.h"

namespace localut {
namespace {

TEST(InferenceSession, AsyncGemmMatchesSynchronousEngine)
{
    const BackendPtr backend = makeBackend("upmem");
    InferenceSession session(backend);
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeRandomProblem(48, 96, 16, cfg, 5);

    const auto id = session.submit(problem, DesignPoint::LoCaLut,
                                   /*computeValues=*/true);
    const GemmResult async = session.wait(id);
    const GemmResult sync = backend->execute(problem, DesignPoint::LoCaLut);

    EXPECT_EQ(async.outInt, sync.outInt);
    EXPECT_DOUBLE_EQ(async.timing.total, sync.timing.total);
    EXPECT_DOUBLE_EQ(async.energy.total, sync.energy.total);
}

/**
 * The tile-parallel + prepared-operand serving path: with several
 * workers, value-computing GEMMs fan their functional tiles onto the
 * session's own worker pool and execute against cached PreparedGemms —
 * bit-exact vs the synchronous engine, unsharded and sharded, across
 * repeated submissions of the same weights (which must hit the
 * prepared cache).  Run under -fsanitize=thread to verify the
 * tile-batch claim counters.
 */
TEST(InferenceSession, TileParallelPreparedServingIsBitExact)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(96, 64, 24, cfg, 17);
    const GemmResult sync = backend->execute(problem, DesignPoint::LoCaLut);

    for (unsigned ranks : {1u, 2u}) {
        SessionOptions options;
        options.workers = 4; // force a real pool even on small machines
        options.numRanks = ranks;
        InferenceSession session(backend, options);
        ASSERT_EQ(session.workerCount(), 4u);

        std::vector<InferenceSession::RequestId> ids;
        for (int i = 0; i < 6; ++i) {
            ids.push_back(session.submit(problem, DesignPoint::LoCaLut,
                                         /*computeValues=*/true));
        }
        for (const auto id : ids) {
            EXPECT_EQ(session.wait(id).outInt, sync.outInt)
                << "ranks=" << ranks;
        }
        // Re-submitting the same weights hit the prepared-operand memo.
        EXPECT_GT(session.planCacheStats().preparedHits, 0u);
    }
}

TEST(InferenceSession, BatchedSubmissionsAllComplete)
{
    InferenceSession session(makeBackend("upmem"));
    const QuantConfig cfg = QuantConfig::preset("W2A2");

    std::vector<InferenceSession::RequestId> ids;
    std::vector<std::vector<std::int32_t>> expected;
    for (unsigned i = 0; i < 12; ++i) {
        const GemmProblem problem =
            makeRandomProblem(32, 64, 8, cfg, /*seed=*/100 + i);
        expected.push_back(referenceGemmInt(problem.w, problem.a));
        ids.push_back(session.submit(problem, DesignPoint::LoCaLut,
                                     /*computeValues=*/true));
    }
    for (unsigned i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(session.wait(ids[i]).outInt, expected[i]) << i;
    }
    // All 12 requests share one shape/config/design, so they collapse to
    // one cache entry.  planFor() deliberately plans outside the lock,
    // so concurrent workers racing on a cold key may each count a miss —
    // only the totals are deterministic.
    const PlanCache::Stats stats = session.planCacheStats();
    EXPECT_EQ(stats.hits + stats.misses, 12u);
    EXPECT_GE(stats.misses, 1u);
    EXPECT_GT(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(session.pendingRequests(), 0u);
}

/** Every field of two reports is the same double, and every timing and
 * energy component has the same name, value and position. */
void
expectSameReport(const InferenceReport& a, const InferenceReport& b)
{
    EXPECT_EQ(a.timing.total, b.timing.total);
    EXPECT_EQ(a.timing.dpuSeconds, b.timing.dpuSeconds);
    EXPECT_EQ(a.timing.hostSeconds, b.timing.hostSeconds);
    EXPECT_EQ(a.timing.linkSeconds, b.timing.linkSeconds);
    EXPECT_EQ(a.timing.seconds.items(), b.timing.seconds.items());
    EXPECT_EQ(a.energy.total, b.energy.total);
    EXPECT_EQ(a.energy.joules.items(), b.energy.joules.items());
    EXPECT_EQ(a.gemmSeconds, b.gemmSeconds);
    EXPECT_EQ(a.hostOpSeconds, b.hostOpSeconds);
    EXPECT_EQ(a.collectiveSeconds, b.collectiveSeconds);
    EXPECT_EQ(a.lutBroadcastSeconds, b.lutBroadcastSeconds);
}

TEST(InferenceSession, CompiledWorkloadMatchesTransformerRunner)
{
    // run() reads the GEMM share compile() priced; it must be bit for
    // bit what pricing the graph afresh on every call gives.
    const BackendPtr backend = makeBackend("upmem");
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    InferenceSession session(backend);
    const auto workload =
        session.compile(WorkloadSpec::decode(model, 8, 64, 4), cfg,
                        DesignPoint::LoCaLut);
    EXPECT_EQ(workload.nodes.size(), 4u); // qkv, out_proj, ffn_up, ffn_down
    EXPECT_GT(workload.hostOps, 0.0);

    const InferenceReport viaSession = session.run(workload);

    const TransformerRunner runner(backend, cfg, DesignPoint::LoCaLut);
    const InferenceReport viaRunner = runner.decode(model, 8, 64, 4);
    expectSameReport(viaSession, viaRunner);

    // A copy with its own hostOps, as the token engine makes per step,
    // keeps the graph's GEMM share and charges only its own host work.
    auto step = workload;
    step.hostOps = 0.5 * workload.hostOps;
    EXPECT_EQ(step.gemmShare, workload.gemmShare);
    InferenceReport fresh = priceWorkloadGemms(*backend, step.nodes, cfg);
    chargeWorkloadHostOps(*backend, step.hostOps, fresh);
    expectSameReport(session.run(step), fresh);
    expectSameReport(session.run(workload), viaRunner);

    // A 4-rank compile against a fresh pricing of its sharded nodes.
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession sharded(backend, options);
    const auto cut = sharded.compile(WorkloadSpec::decode(model, 8, 64, 4),
                                     cfg, DesignPoint::LoCaLut);
    ASSERT_TRUE(cut.sharded());
    InferenceReport freshCut =
        priceShardedWorkloadGemms(*backend, cut.shardedNodes, cfg);
    chargeWorkloadHostOps(*backend, cut.hostOps, freshCut);
    EXPECT_GT(freshCut.collectiveSeconds, 0.0);
    expectSameReport(sharded.run(cut), freshCut);
    const WorkloadCostProjection projected = sharded.projectCost(cut);
    EXPECT_EQ(projected.gemmSeconds, freshCut.gemmSeconds);
    EXPECT_EQ(projected.hostOpSeconds, freshCut.hostOpSeconds);
    EXPECT_EQ(projected.collectiveSeconds, freshCut.collectiveSeconds);
}

/** Every counter of two residency snapshots is the same. */
void
expectSameStats(const ResidencyStats& a, const ResidencyStats& b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.rebroadcasts, b.rebroadcasts);
    EXPECT_EQ(a.tableSets, b.tableSets);
    EXPECT_EQ(a.broadcastBytes, b.broadcastBytes);
    EXPECT_EQ(a.broadcastSeconds, b.broadcastSeconds);
    EXPECT_EQ(a.kvStreams, b.kvStreams);
    EXPECT_EQ(a.kvSpills, b.kvSpills);
    EXPECT_EQ(a.kvRefills, b.kvRefills);
    EXPECT_EQ(a.kvSheds, b.kvSheds);
    EXPECT_EQ(a.kvResidentBytes, b.kvResidentBytes);
    EXPECT_EQ(a.kvMovedBytes, b.kvMovedBytes);
    EXPECT_EQ(a.kvMovedSeconds, b.kvMovedSeconds);
    EXPECT_EQ(a.rankInvalidations, b.rankInvalidations);
    EXPECT_EQ(a.kvDisplaced, b.kvDisplaced);
}

TEST(InferenceSession, CompiledTableSetsCarryNoSessionState)
{
    // A workload's table sets are resolved at compile from its plans
    // alone, so a workload compiled on a session without residency runs
    // on a fresh session exactly as that session's own compile does:
    // same charges, same counters, same evictions under a tight budget.
    const BackendPtr backend = makeBackend("upmem");
    const WorkloadSpec spec =
        WorkloadSpec::decode(TransformerConfig::opt125m(), 8, 64, 4);
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    for (const bool sharded : {false, true}) {
        SessionOptions plain;
        plain.numRanks = sharded ? 2 : 1;
        InferenceSession elsewhere(backend, plain);
        const auto foreign =
            sharded ? elsewhere.compile(spec, cfg, DesignPoint::LoCaLut)
                    : elsewhere.compileUnsharded(spec, cfg,
                                                 DesignPoint::LoCaLut);
        ASSERT_EQ(foreign.sharded(), sharded);
        std::uint64_t largest = 0;
        for (const ResolvedTableSet& set : foreign.tableSets) {
            largest = std::max(largest, set.bytes);
        }
        ASSERT_GT(largest, 0u);
        // Room for the largest set only: every run evicts.
        for (const std::uint64_t budget : {std::uint64_t{0}, largest}) {
            SessionOptions options;
            options.numRanks = 2;
            options.residencyPolicy = ResidencyPolicy::CostAware;
            options.mramBudgetBytes = budget;
            InferenceSession host(backend, options);
            InferenceSession own(backend, options);
            const auto native =
                sharded ? own.compile(spec, cfg, DesignPoint::LoCaLut)
                        : own.compileUnsharded(spec, cfg,
                                               DesignPoint::LoCaLut);
            const SubmitOptions submit{sharded ? -1 : 1};
            for (int i = 0; i < 3; ++i) {
                const InferenceReport got = host.run(foreign, submit);
                const InferenceReport want = own.run(native, submit);
                expectSameReport(got, want);
                EXPECT_EQ(got.rank, want.rank);
                expectSameStats(host.residencyStats(), own.residencyStats());
            }
            EXPECT_GT(host.residencyStats().misses, 0u);
            if (budget != 0 && !sharded) {
                EXPECT_GT(host.residencyStats().evictions, 0u);
            }
        }
    }
}

TEST(InferenceSession, RejectsWorkloadItNeverCompiled)
{
    InferenceSession session(makeBackend("upmem"));
    const InferenceSession::CompiledWorkload uncompiled;
    EXPECT_THROW(session.run(uncompiled), FatalError);
    EXPECT_THROW(session.projectCost(uncompiled), FatalError);
}

TEST(InferenceSession, DecodeStepsReuseCachedPlans)
{
    InferenceSession session(makeBackend("upmem"));
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    // Compile once; submitting more decode steps of the same shape must
    // not re-plan.  OPT's qkv and out_proj share (h, h, batch), so the
    // first compile already hits once.
    const auto first = session.compile(
        WorkloadSpec::decode(model, 32, 128, 1), cfg, DesignPoint::LoCaLut);
    const auto missesAfterFirst = session.planCacheStats().misses;
    EXPECT_EQ(missesAfterFirst, 3u); // (h,h,b), (f,h,b), (h,f,b)

    const auto second = session.compile(
        WorkloadSpec::decode(model, 32, 128, 7), cfg, DesignPoint::LoCaLut);
    EXPECT_EQ(session.planCacheStats().misses, missesAfterFirst);
    EXPECT_GT(session.planCacheStats().hits, 0u);

    EXPECT_GT(session.run(first).timing.total, 0.0);
    EXPECT_GT(session.run(second).timing.total, 0.0);
}

TEST(InferenceSession, RunsOnEveryRegisteredBackend)
{
    const TransformerConfig model = TransformerConfig::bertBase();
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    for (const char* name : {"upmem", "bankpim", "host-cpu", "host-gpu"}) {
        InferenceSession session{std::string(name)};
        const auto workload = session.compile(
            WorkloadSpec::prefill(model, 4, 32), cfg, DesignPoint::LoCaLut);
        const InferenceReport report = session.run(workload);
        EXPECT_GT(report.timing.total, 0.0) << name;
        EXPECT_GT(report.energy.total, 0.0) << name;
        EXPECT_GT(report.gemmSeconds, 0.0) << name;
        EXPECT_GT(report.hostOpSeconds, 0.0) << name;
    }
}

TEST(InferenceSession, RejectsWorkloadCompiledOnAnotherBackend)
{
    InferenceSession upmem(makeBackend("upmem"));
    InferenceSession host(makeBackend("host-cpu"));
    const auto workload = upmem.compile(
        WorkloadSpec::prefill(TransformerConfig::bertBase(), 2, 16),
        QuantConfig::preset("W1A3"), DesignPoint::LoCaLut);
    EXPECT_THROW(host.run(workload), std::runtime_error);
}

TEST(InferenceSession, RejectsWorkloadCompiledForAnotherDeviceConfig)
{
    // Same backend name, different device: the config fingerprint the
    // backend stored at construction tells the two apart.
    PimSystemConfig halved = PimSystemConfig::upmemServer();
    halved.dpusPerRank /= 2;
    InferenceSession stock(makeBackend("upmem"));
    InferenceSession other(std::make_shared<const UpmemBackend>(halved));
    const auto workload = stock.compile(
        WorkloadSpec::prefill(TransformerConfig::bertBase(), 2, 16),
        QuantConfig::preset("W1A3"), DesignPoint::LoCaLut);
    EXPECT_THROW(other.run(workload), FatalError);
    EXPECT_GT(stock.run(workload).timing.total, 0.0);
}

TEST(InferenceSession, WorkerErrorsSurfaceAtWait)
{
    InferenceSession session(makeBackend("bankpim"));
    const GemmProblem problem = makeShapeOnlyProblem(
        64, 64, 8, QuantConfig::preset("W1A3"));
    // bankpim cannot plan LTC; the failure must arrive at wait(), not
    // tear down the worker.
    const auto id = session.submit(problem, DesignPoint::Ltc);
    EXPECT_THROW(session.wait(id), std::runtime_error);

    // The session is still usable afterwards.
    const auto ok = session.submit(problem, DesignPoint::LoCaLut);
    EXPECT_GT(session.wait(ok).timing.total, 0.0);
}

TEST(InferenceSession, FaultShedsSurfacePromptlyAtWait)
{
    // Regression for the shed-request promptness contract: a request
    // fault-shed mid-execution must resolve its wait() immediately with
    // the typed FaultShedError — never hang the ticket or poison the
    // worker pool for subsequent requests.
    FaultPlan plan;
    plan.transientExecute(1.0); // every attempt on every rank fails
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.faultInjector = &injector;
    options.faultPolicy.maxAttempts = 2;
    InferenceSession session(makeBackend("upmem"), options);

    const GemmProblem problem = makeShapeOnlyProblem(
        64, 64, 8, QuantConfig::preset("W4A4"));
    const auto id = session.submit(problem, DesignPoint::LoCaLut, false,
                                   {}, SubmitOptions{0});
    EXPECT_THROW(session.wait(id), FaultShedError);
    EXPECT_GT(injector.stats().shedFault, 0u);

    // A second wait-able request still completes once the injector goes
    // quiet (rate is per-attempt; a fresh plan clears it).
    FaultPlan quiet;
    FaultInjector calm(quiet, 2);
    SessionOptions healthy;
    healthy.numRanks = 2;
    healthy.faultInjector = &calm;
    InferenceSession recovered(makeBackend("upmem"), healthy);
    const auto ok = recovered.submit(problem, DesignPoint::LoCaLut, false,
                                     {}, SubmitOptions{0});
    EXPECT_GT(recovered.wait(ok).timing.total, 0.0);
}

TEST(InferenceSession, DrainCompletesOutstandingWork)
{
    InferenceSession session(makeBackend("host-cpu"));
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    std::vector<InferenceSession::RequestId> ids;
    for (unsigned i = 0; i < 8; ++i) {
        ids.push_back(session.submit(
            makeShapeOnlyProblem(128, 128, 16, cfg), DesignPoint::LoCaLut));
    }
    session.drain();
    EXPECT_EQ(session.pendingRequests(), 0u);
    for (const auto id : ids) {
        EXPECT_GT(session.wait(id).timing.total, 0.0);
    }
}

/** A well-formed 64x64x8 W4A4 probe. */
GemmProblem
wellFormedProbe()
{
    return makeRandomProblem(64, 64, 8, QuantConfig::preset("W4A4"), 31);
}

/** Variants of @p good that a functional execution must reject. */
std::vector<std::pair<std::string, GemmProblem>>
malformedProbes(const GemmProblem& good)
{
    GemmProblem shortWeights = good;
    shortWeights.w.codes.resize(good.w.codes.size() - good.w.cols);
    GemmProblem hotActivation = good;
    hotActivation.a.codes[3] =
        static_cast<std::uint16_t>(good.a.codec.cardinality());
    GemmProblem hotWeight = good;
    hotWeight.w.codes[5] =
        static_cast<std::uint16_t>(good.w.codec.cardinality());
    return {{"weight codes one row short", shortWeights},
            {"activation code at cardinality", hotActivation},
            {"weight code at cardinality", hotWeight}};
}

/** Shape-only problems with one of M, K, N zero. */
std::vector<GemmProblem>
emptyProbes()
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    return {makeShapeOnlyProblem(0, 64, 8, cfg),
            makeShapeOnlyProblem(64, 0, 8, cfg),
            makeShapeOnlyProblem(64, 64, 0, cfg)};
}

TEST(MalformedInput, EveryBackendRejectsItAsUserError)
{
    const GemmProblem good = wellFormedProbe();
    const std::vector<std::int32_t> ref = referenceGemmInt(good.w, good.a);
    for (const char* name :
         {"upmem", "bankpim", "host-cpu", "host-gpu", "upmem-sim"}) {
        const BackendPtr backend = makeBackend(name);
        const GemmPlan plan = backend->plan(good, DesignPoint::LoCaLut);
        for (const auto& [label, bad] : malformedProbes(good)) {
            EXPECT_THROW(backend->execute(bad, plan, /*computeValues=*/true),
                         FatalError)
                << name << ": " << label;
        }
        EXPECT_EQ(backend->execute(good, plan, /*computeValues=*/true).outInt,
                  ref)
            << name;
        // An empty GEMM is rejected at plan time, before any partition
        // divides by its zero dimension, whole or cut across ranks.
        for (const GemmProblem& empty : emptyProbes()) {
            EXPECT_THROW(backend->plan(empty, DesignPoint::LoCaLut),
                         FatalError)
                << name << ": " << empty.m() << "x" << empty.k() << "x"
                << empty.n();
            EXPECT_THROW(makeShardPlan(*backend, empty, DesignPoint::LoCaLut,
                                       ShardSpec{4, 1}),
                         FatalError)
                << name << ": " << empty.m() << "x" << empty.k() << "x"
                << empty.n() << " on 4 ranks";
        }
    }
}

TEST(MalformedInput, SessionRejectsItAtSubmitOrWait)
{
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);
    const GemmProblem good = wellFormedProbe();
    const auto probes = malformedProbes(good);

    // Short codes and empty shapes never reach a shard slice or a
    // planner: submit() rejects them, sharded (rank -1) or pinned.
    for (const int rank : {-1, 2}) {
        EXPECT_THROW(session.submit(probes[0].second, DesignPoint::LoCaLut,
                                    true, {}, SubmitOptions{rank}),
                     FatalError)
            << rank;
        for (const GemmProblem& empty : emptyProbes()) {
            EXPECT_THROW(session.submit(empty, DesignPoint::LoCaLut, false,
                                        {}, SubmitOptions{rank}),
                         FatalError)
                << empty.m() << "x" << empty.k() << "x" << empty.n()
                << ", rank " << rank;
        }
    }
    // Out-of-range codes are found by the functional pass; the error
    // surfaces at wait().
    for (std::size_t i = 1; i < probes.size(); ++i) {
        for (const int rank : {-1, 2}) {
            const auto id = session.submit(probes[i].second,
                                           DesignPoint::LoCaLut, true, {},
                                           SubmitOptions{rank});
            EXPECT_THROW(session.wait(id), FatalError)
                << probes[i].first << ", rank " << rank;
        }
    }
    // A pinned rank must exist; it no longer wraps onto rank 9 % 4.
    EXPECT_THROW(session.submit(good, DesignPoint::LoCaLut, true, {},
                                SubmitOptions{9}),
                 FatalError);
    EXPECT_THROW(
        session.run(session.compileUnsharded(
                        WorkloadSpec::prefill(TransformerConfig::bertBase(),
                                              1, 16),
                        QuantConfig::preset("W4A4"), DesignPoint::LoCaLut),
                    SubmitOptions{4}),
        FatalError);

    // The session still serves well-formed work on every rank.
    const std::vector<std::int32_t> ref = referenceGemmInt(good.w, good.a);
    for (const int rank : {-1, 3}) {
        EXPECT_EQ(session
                      .wait(session.submit(good, DesignPoint::LoCaLut, true,
                                           {}, SubmitOptions{rank}))
                      .outInt,
                  ref)
            << rank;
    }
}

TEST(MalformedInput, RankOutsideTheGridIsRejected)
{
    // A rank at or past the grid size is a caller bug: every rank-taking
    // entry point fatals instead of wrapping it onto rank % numRanks.
    FaultInjector injector(FaultPlan{}, /*numRanks=*/4);
    injector.killRank(0);
    EXPECT_THROW(injector.schedulable(4), FatalError);
    EXPECT_THROW(injector.health(4), FatalError);
    EXPECT_THROW(injector.executeFails(/*requestId=*/1, 0, /*rank=*/4),
                 FatalError);
    EXPECT_THROW(injector.recordFailure(6, /*quarantineThreshold=*/1),
                 FatalError);
    EXPECT_THROW(injector.killRank(4), FatalError);
    EXPECT_FALSE(injector.schedulable(0));
    EXPECT_EQ(injector.health(2), RankHealth::Healthy);
    EXPECT_EQ(injector.stats().quarantines, 0u);

    const BackendPtr backend = makeBackend("upmem");
    ResidencyManager residency(backend, /*numRanks=*/2,
                               /*budgetBytesPerUnit=*/0);
    const GemmPlan plan = backend->plan(
        makeShapeOnlyProblem(256, 256, 8, QuantConfig::preset("W4A4")),
        DesignPoint::LoCaLut);
    ASSERT_GT(tableSetBytes(plan), 0u);
    EXPECT_THROW(residency.acquire(resolveTableSet(plan, "x"), /*homeRank=*/3),
                 FatalError);
    // A design without host-built tables places nothing, but its home
    // rank is checked all the same.
    const GemmPlan naive = backend->plan(
        makeShapeOnlyProblem(256, 256, 8, QuantConfig::preset("W4A4")),
        DesignPoint::NaivePim);
    ASSERT_EQ(tableSetBytes(naive), 0u);
    EXPECT_THROW(residency.acquire(resolveTableSet(naive, "x"),
                                   /*homeRank=*/2),
                 FatalError);
    EXPECT_TRUE(residency.acquire(resolveTableSet(naive, "x"), 1).hit);
    EXPECT_THROW(residency.acquireKv(/*stream=*/7, /*rank=*/5,
                                     /*layers=*/1,
                                     /*bytesPerTokenPerLayer=*/64,
                                     /*contextTokens=*/16),
                 FatalError);
    EXPECT_THROW(residency.invalidateRank(2), FatalError);
    EXPECT_EQ(residency.residentBytes(1), 0u);
    EXPECT_EQ(residency.stats().misses, 0u);

    // In-range ranks still serve.
    EXPECT_FALSE(residency.acquire(resolveTableSet(plan, "x"), 1).hit);
    EXPECT_FALSE(residency.acquireKv(7, 1, 1, 64, 16).shed);
    EXPECT_GT(residency.residentBytes(1), 0u);
}

TEST(InferenceSession, WaitConsumesTheRequest)
{
    InferenceSession session(makeBackend("host-cpu"));
    const auto id = session.submit(
        makeShapeOnlyProblem(32, 32, 4, QuantConfig::preset("W1A3")),
        DesignPoint::LoCaLut);
    session.wait(id);
    EXPECT_THROW(session.wait(id), std::runtime_error);
}

} // namespace
} // namespace localut
