/**
 * @file
 * InferenceSession tests: asynchronous submit/wait matches the
 * synchronous engine bit-for-bit, compiled workloads match the
 * TransformerRunner, decode steps reuse cached plans, errors raised
 * inside worker threads surface at wait(), and malformed GEMM input (or
 * a rank outside the grid) is rejected as a FatalError at the backend,
 * session, fault-injector and residency entry points.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "common/logging.h"
#include "nn/inference.h"
#include "serving/session.h"

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

TEST(InferenceSession, CompiledWorkloadMatchesTransformerRunner)
{
    const BackendPtr backend = makeBackend("upmem");
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    InferenceSession session(backend);
    const auto workload =
        session.compile(WorkloadSpec::decode(model, 8, 64, 4), cfg,
                        DesignPoint::LoCaLut);
    EXPECT_EQ(workload.nodes.size(), 4u); // qkv, out_proj, ffn_up, ffn_down
    EXPECT_GT(workload.hostOps, 0.0);
    EXPECT_GT(workload.predictedGemmSeconds(), 0.0);

    const auto id = session.submit(workload);
    const InferenceReport viaSession = session.waitReport(id);

    const TransformerRunner runner(backend, cfg, DesignPoint::LoCaLut);
    const InferenceReport viaRunner = runner.decode(model, 8, 64, 4);

    EXPECT_DOUBLE_EQ(viaSession.timing.total, viaRunner.timing.total);
    EXPECT_DOUBLE_EQ(viaSession.energy.total, viaRunner.energy.total);
    EXPECT_DOUBLE_EQ(viaSession.gemmSeconds, viaRunner.gemmSeconds);
    EXPECT_DOUBLE_EQ(viaSession.hostOpSeconds, viaRunner.hostOpSeconds);
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

    const auto idFirst = session.submit(first);
    const auto idSecond = session.submit(second);
    EXPECT_GT(session.waitReport(idFirst).timing.total, 0.0);
    EXPECT_GT(session.waitReport(idSecond).timing.total, 0.0);
}

TEST(InferenceSession, RunsOnEveryRegisteredBackend)
{
    const TransformerConfig model = TransformerConfig::bertBase();
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    for (const char* name : {"upmem", "bankpim", "host-cpu", "host-gpu"}) {
        InferenceSession session{std::string(name)};
        const auto workload = session.compile(
            WorkloadSpec::prefill(model, 4, 32), cfg, DesignPoint::LoCaLut);
        const auto id = session.submit(workload);
        const InferenceReport report = session.waitReport(id);
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
    const auto id = host.submit(workload);
    EXPECT_THROW(host.waitReport(id), std::runtime_error);
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
    }
}

TEST(MalformedInput, SessionRejectsItAtSubmitOrWait)
{
    SessionOptions options;
    options.numRanks = 4;
    InferenceSession session(makeBackend("upmem"), options);
    const GemmProblem good = wellFormedProbe();
    const auto probes = malformedProbes(good);

    // Short codes never reach a shard slice: submit() rejects them,
    // sharded (rank -1) or pinned.
    for (const int rank : {-1, 2}) {
        EXPECT_THROW(session.submit(probes[0].second, DesignPoint::LoCaLut,
                                    true, {}, SubmitOptions{rank}),
                     FatalError)
            << rank;
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
        session.submit(session.compileUnsharded(
                           WorkloadSpec::prefill(TransformerConfig::bertBase(),
                                                 1, 16),
                           QuantConfig::preset("W4A4"),
                           DesignPoint::LoCaLut),
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
                               /*budgetBytesPerUnit=*/0,
                               ResidencyPolicy::CostAware);
    const GemmPlan plan = backend->plan(
        makeShapeOnlyProblem(256, 256, 8, QuantConfig::preset("W4A4")),
        DesignPoint::LoCaLut);
    ASSERT_GT(tableSetBytes(plan), 0u);
    EXPECT_THROW(residency.acquire(plan, "x", 1.0, /*homeRank=*/3),
                 FatalError);
    EXPECT_THROW(residency.acquireKv(/*stream=*/7, /*rank=*/5,
                                     /*layers=*/1,
                                     /*bytesPerTokenPerLayer=*/64,
                                     /*contextTokens=*/16),
                 FatalError);
    EXPECT_THROW(residency.invalidateRank(2), FatalError);
    EXPECT_EQ(residency.residentBytes(1), 0u);
    EXPECT_EQ(residency.stats().misses, 0u);

    // In-range ranks still serve.
    EXPECT_FALSE(residency.acquire(plan, "x", 1.0, 1).hit);
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
