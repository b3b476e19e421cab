// Fault injection, health tracking, and failover under deterministic
// faults: the injector's hash-driven decisions, the capped backoff
// schedule, residency invalidation on rank death, and the end-to-end
// session behaviours (retry, quarantine, re-shard, shed) that ISSUE 9's
// acceptance criteria name.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "common/rng.h"
#include "dram/timing.h"
#include "serving/fault.h"
#include "serving/residency.h"
#include "serving/scheduler.h"
#include "serving/token_engine.h"

namespace localut {
namespace {

/** A fabricated LoCaLUT plan with a forced packing degree, so table
 * sizes are exact and independent of the planner. */
GemmPlan
faultTestPlan()
{
    GemmPlan plan(DesignPoint::LoCaLut, QuantConfig::preset("W4A4"));
    plan.p = 2;
    plan.m = 256;
    plan.k = 256;
    plan.n = 32;
    return plan;
}

TEST(RetryBackoff, CapsExponentialSchedule)
{
    const double base = 100e-6;
    const double cap = 10e-3;
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 0), 100e-6);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 1), 200e-6);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 2), 400e-6);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 6), 6400e-6);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 7), cap);
    // Large attempt counts saturate at the cap instead of overflowing
    // the doubling loop.
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(base, cap, 200), cap);
    EXPECT_DOUBLE_EQ(retryBackoffSeconds(0.0, cap, 5), 0.0);
}

TEST(FaultInjector, DecisionsAreDeterministicAndSeedSensitive)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.transientExecute(0.5);
    FaultInjector a(plan, 8);
    FaultInjector b(plan, 8);
    plan.seed = 43;
    FaultInjector c(plan, 8);

    unsigned diffs = 0;
    unsigned fires = 0;
    for (std::uint64_t req = 0; req < 64; ++req) {
        for (unsigned attempt = 0; attempt < 4; ++attempt) {
            for (unsigned rank = 0; rank < 8; ++rank) {
                const bool fa = a.executeFails(req, attempt, rank);
                const bool fb = b.executeFails(req, attempt, rank);
                EXPECT_EQ(fa, fb);
                fires += fa ? 1 : 0;
                diffs += (fa != c.executeFails(req, attempt, rank)) ? 1 : 0;
            }
        }
    }
    // Rate 0.5 over 2048 trials: far from all-heads or all-tails, and a
    // different seed decides differently often.
    EXPECT_GT(fires, 700u);
    EXPECT_LT(fires, 1350u);
    EXPECT_GT(diffs, 400u);
}

TEST(FaultInjector, RateEdgesAndRankScoping)
{
    FaultPlan never;
    never.transientExecute(0.0);
    FaultInjector quiet(never, 8);
    FaultPlan always;
    always.transientExecute(1.0, /*rank=*/3);
    FaultInjector scoped(always, 8);
    for (std::uint64_t req = 0; req < 32; ++req) {
        EXPECT_FALSE(quiet.executeFails(req, 0, req % 8));
        EXPECT_TRUE(scoped.executeFails(req, 0, 3));
        EXPECT_FALSE(scoped.executeFails(req, 0, 2));
    }
    EXPECT_EQ(quiet.stats().transientFaults, 0u);
    EXPECT_EQ(scoped.stats().transientFaults, 32u);
}

TEST(FaultInjector, ScheduledDeathFiresOnceAtVirtualTime)
{
    FaultPlan plan;
    plan.rankDeath(5, /*atSeconds=*/1.0);
    FaultInjector inj(plan, 8);
    std::atomic<unsigned> losses{0};
    inj.onRankLoss([&](unsigned rank) {
        EXPECT_EQ(rank, 5u);
        ++losses;
    });

    EXPECT_TRUE(inj.schedulable(5));
    inj.advanceTo(0.5);
    EXPECT_TRUE(inj.schedulable(5));
    EXPECT_EQ(inj.aliveCount(), 8u);
    inj.advanceTo(1.5);
    EXPECT_EQ(inj.health(5), RankHealth::Dead);
    EXPECT_FALSE(inj.schedulable(5));
    EXPECT_EQ(losses.load(), 1u);
    // Re-advancing (and a redundant explicit kill) must not re-fire.
    inj.advanceTo(2.0);
    inj.killRank(5);
    EXPECT_EQ(losses.load(), 1u);
    EXPECT_EQ(inj.aliveCount(), 7u);
    EXPECT_DOUBLE_EQ(inj.capacityRatio(), 7.0 / 8.0);
    EXPECT_EQ(inj.stats().ranksDead, 1u);
    // A stale smaller time changes nothing.
    inj.advanceTo(0.25);
    EXPECT_EQ(losses.load(), 1u);
    EXPECT_EQ(inj.health(5), RankHealth::Dead);
}

TEST(FaultInjector, QuarantineAfterThresholdFailures)
{
    FaultInjector inj(FaultPlan{}, 8);
    const std::uint64_t threshold = 4;
    for (std::uint64_t i = 0; i < threshold - 1; ++i) {
        inj.recordFailure(2, threshold);
        EXPECT_EQ(inj.health(2), RankHealth::Healthy);
    }
    inj.recordFailure(2, threshold);
    EXPECT_EQ(inj.health(2), RankHealth::Quarantined);
    EXPECT_FALSE(inj.schedulable(2));
    EXPECT_EQ(inj.stats().quarantines, 1u);
    EXPECT_EQ(inj.stats().ranksQuarantined, 1u);
    // Further failures do not double-count the quarantine.
    inj.recordFailure(2, threshold);
    EXPECT_EQ(inj.stats().quarantines, 1u);
    const std::vector<unsigned> alive = inj.schedulableRanks();
    EXPECT_EQ(alive.size(), 7u);
    EXPECT_TRUE(std::find(alive.begin(), alive.end(), 2u) == alive.end());
}

TEST(FaultInjector, ConcurrentDecisionsMatchSerialReplay)
{
    FaultPlan plan;
    plan.seed = 7;
    plan.transientExecute(0.3);
    FaultInjector inj(plan, 8);

    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 256;
    std::vector<std::vector<bool>> seen(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            seen[t].reserve(kPerThread);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                const std::uint64_t req = t * kPerThread + i;
                seen[t].push_back(inj.executeFails(req, 0, req % 8));
            }
        });
    }
    for (auto& th : threads) {
        th.join();
    }
    // Replay serially on a fresh injector: decisions are pure functions
    // of (seed, request, attempt, rank), independent of interleaving.
    FaultInjector replay(plan, 8);
    std::uint64_t fires = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
            const std::uint64_t req = t * kPerThread + i;
            const bool fail = replay.executeFails(req, 0, req % 8);
            EXPECT_EQ(seen[t][i], fail);
            fires += fail ? 1 : 0;
        }
    }
    EXPECT_EQ(inj.stats().transientFaults, fires);
}

TEST(ResidencyFault, InvalidateRankDropsSetsAndDisplacesKv)
{
    const BackendPtr backend = makeBackend("upmem");
    ResidencyManager manager(backend, /*numRanks=*/4,
                             /*budgetBytesPerUnit=*/64ull << 20);

    const GemmPlan plan = faultTestPlan();
    const ResidencyCharge first =
        manager.acquire(resolveTableSet(plan, "layer0"), /*homeRank=*/1);
    EXPECT_FALSE(first.hit);
    EXPECT_GT(first.seconds, 0.0);
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "layer0"), 1).hit);
    const KvCharge kv = manager.acquireKv(/*stream=*/9, /*rank=*/1,
                                          /*layers=*/2,
                                          /*bytesPerTokenPerLayer=*/256,
                                          /*contextTokens=*/128);
    EXPECT_FALSE(kv.shed);
    EXPECT_GT(kv.appendBytes, 0.0);

    const ResidencyManager::RankLoss loss = manager.invalidateRank(1);
    EXPECT_EQ(loss.lutSetsDropped, 1u);
    EXPECT_GT(loss.lutBytesDropped, 0u);
    ASSERT_EQ(loss.displacedStreams.size(), 1u);
    EXPECT_EQ(loss.displacedStreams[0], 9u);
    EXPECT_EQ(manager.lutBytes(1), 0u);
    EXPECT_EQ(manager.kvBytes(1), 0u);

    // Next touch is a rebroadcast, not a hit.
    const ResidencyCharge again =
        manager.acquire(resolveTableSet(plan, "layer0"), 1);
    EXPECT_FALSE(again.hit);
    const ResidencyStats stats = manager.stats();
    EXPECT_EQ(stats.rankInvalidations, 1u);
    EXPECT_EQ(stats.kvDisplaced, 1u);
    EXPECT_GE(stats.rebroadcasts, 1u);

    // The displaced stream may re-home to a survivor; the charge is the
    // full context refill, and the entry is no longer displaced.
    const KvCharge rehomed = manager.acquireKv(9, /*rank=*/2, 2, 256, 128);
    EXPECT_FALSE(rehomed.shed);
    EXPECT_DOUBLE_EQ(rehomed.appendBytes,
                     static_cast<double>(2ull * 256ull * 128ull));
    EXPECT_GT(manager.kvBytes(2), 0u);
}

// ----------------------------------------------- session-level faults

TEST(SessionFault, ExhaustedRetriesFailOverAndStayBitExact)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(128, 128, 8, cfg, 11);
    const std::vector<std::int32_t> ref =
        referenceGemmInt(problem.w, problem.a);

    SessionOptions clean;
    clean.numRanks = 2;
    InferenceSession healthy(makeBackend("upmem"), clean);
    const auto healthyId = healthy.submit(problem, DesignPoint::LoCaLut,
                                          true, {}, SubmitOptions{0});
    const GemmResult healthyOut = healthy.wait(healthyId);
    EXPECT_EQ(healthyOut.outInt, ref);

    // Rank 0 fails every attempt; the request exhausts maxAttempts
    // there, fails over to rank 1, and still produces the exact values.
    FaultPlan plan;
    plan.transientExecute(1.0, /*rank=*/0);
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), options);
    const auto id = session.submit(problem, DesignPoint::LoCaLut, true,
                                   {}, SubmitOptions{0});
    const GemmResult out = session.wait(id);
    EXPECT_EQ(out.outInt, ref);
    // Retry + backoff cost is charged as modeled time, never hidden.
    EXPECT_GT(out.timing.total, healthyOut.timing.total);

    const FaultStats stats = injector.stats();
    EXPECT_EQ(stats.transientFaults, options.faultPolicy.maxAttempts);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_GT(stats.retries, 0u);
    EXPECT_GT(stats.backoffSeconds, 0.0);
}

TEST(SessionFault, DeadRankWithoutFailoverShedsAtWait)
{
    FaultPlan plan;
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.faultInjector = &injector;
    options.faultPolicy.failover = false;
    InferenceSession session(makeBackend("upmem"), options);
    injector.killRank(0);

    const GemmProblem problem =
        makeRandomProblem(64, 64, 8, QuantConfig::preset("W4A4"), 3);
    // Pinned to the dead rank with failover off: the typed shed error
    // surfaces promptly at wait() instead of blocking or tearing down
    // the worker pool.
    const auto id = session.submit(problem, DesignPoint::LoCaLut, false,
                                   {}, SubmitOptions{0});
    EXPECT_THROW(session.wait(id), FaultShedError);
    EXPECT_EQ(injector.stats().shedFault, 1u);

    // The session is still fully usable afterwards.
    const auto ok = session.submit(problem, DesignPoint::LoCaLut, false,
                                   {}, SubmitOptions{1});
    EXPECT_GT(session.wait(ok).timing.total, 0.0);
}

TEST(SessionFault, FailoverTriesEachRankOnce)
{
    // Every attempt fails on both ranks and quarantine is off: the
    // request exhausts rank 0, fails over once to rank 1, exhausts it
    // too and sheds without revisiting rank 0.
    FaultPlan plan;
    plan.transientExecute(1.0);
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.faultInjector = &injector;
    options.faultPolicy.quarantineThreshold = 0;
    InferenceSession session(makeBackend("upmem"), options);

    const GemmProblem problem =
        makeRandomProblem(64, 64, 8, QuantConfig::preset("W4A4"), 3);
    const auto id = session.submit(problem, DesignPoint::LoCaLut, false,
                                   {}, SubmitOptions{0});
    EXPECT_THROW(session.wait(id), FaultShedError);
    const FaultStats stats = injector.stats();
    EXPECT_EQ(stats.transientFaults, 2u * options.faultPolicy.maxAttempts);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.shedFault, 1u);
    // A shed request charges no retries or backoff.
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.backoffSeconds, 0.0);
}

TEST(SessionFault, RankDeathReshardsGangRequestsBitExact)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(256, 256, 16, cfg, 5);
    const std::vector<std::int32_t> ref =
        referenceGemmInt(problem.w, problem.a);

    FaultPlan plan;
    FaultInjector injector(plan, 4);
    SessionOptions options;
    options.numRanks = 4;
    options.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), options);
    injector.killRank(2);

    // Unpinned on a 4-rank session: normally a 4-way gang; with rank 2
    // dead the plan re-shards across the 3 survivors, bit-exact.
    const auto id =
        session.submit(problem, DesignPoint::LoCaLut, /*computeValues=*/true);
    const GemmResult out = session.wait(id);
    EXPECT_EQ(out.outInt, ref);
    EXPECT_GE(injector.stats().failovers, 1u);
    EXPECT_EQ(injector.stats().shedFault, 0u);
}

TEST(SessionFault, DeterministicAcrossWorkerCounts)
{
    // Same seed, same plan, same submission sequence: fault decisions,
    // charged timings, and outputs are identical no matter how many
    // session workers execute underneath.  Three passes: pinned
    // requests closed loop (submit, wait) and open loop (submit all,
    // then wait), then unpinned gangs with a rank killed between two
    // submits.
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> pool;
    std::vector<std::vector<std::int32_t>> refs;
    for (unsigned p = 0; p < 2; ++p) {
        pool.push_back(makeRandomProblem(96, 96, 8, cfg, 21 + p));
        refs.push_back(referenceGemmInt(pool.back().w, pool.back().a));
    }

    struct Run {
        std::vector<std::vector<std::int32_t>> outputs;
        std::vector<double> timings;
        std::uint64_t transients = 0, retries = 0, failovers = 0;
        std::uint64_t sheds = 0, quarantines = 0;
        double backoff = 0;
    };
    std::vector<Run> runs;
    for (const unsigned workers : {1u, 4u, 8u}) {
        FaultPlan plan;
        plan.seed = 9;
        plan.transientExecute(0.5);
        FaultInjector injector(plan, 4);
        SessionOptions options;
        options.numRanks = 4;
        options.workers = workers;
        options.faultInjector = &injector;
        InferenceSession session(makeBackend("upmem"), options);
        Run run;
        for (unsigned i = 0; i < 8; ++i) {
            const auto id = session.submit(
                pool[i % pool.size()], DesignPoint::LoCaLut, true, {},
                SubmitOptions{static_cast<int>(i % 4)});
            const GemmResult out = session.wait(id);
            EXPECT_EQ(out.outInt, refs[i % pool.size()]);
            run.outputs.push_back(out.outInt);
            run.timings.push_back(out.timing.total);
        }
        // Records a waited request's values and charged time; a shed
        // records an empty output and a negative time.
        const auto collect = [&](InferenceSession::RequestId id,
                                 unsigned i) {
            try {
                const GemmResult out = session.wait(id);
                EXPECT_EQ(out.outInt, refs[i % pool.size()]);
                run.outputs.push_back(out.outInt);
                run.timings.push_back(out.timing.total);
            } catch (const FaultShedError&) {
                run.outputs.emplace_back();
                run.timings.push_back(-1.0);
            }
        };
        std::vector<InferenceSession::RequestId> ids;
        for (unsigned i = 0; i < 8; ++i) {
            ids.push_back(session.submit(
                pool[i % pool.size()], DesignPoint::LoCaLut, true, {},
                SubmitOptions{static_cast<int>(i % 4)}));
        }
        for (unsigned i = 0; i < ids.size(); ++i) {
            collect(ids[i], i);
        }
        ids.clear();
        for (unsigned i = 0; i < 8; ++i) {
            if (i == 4) {
                injector.killRank(2);
            }
            ids.push_back(session.submit(pool[i % pool.size()],
                                         DesignPoint::LoCaLut, true));
        }
        for (unsigned i = 0; i < ids.size(); ++i) {
            collect(ids[i], i);
        }
        const FaultStats stats = injector.stats();
        run.transients = stats.transientFaults;
        run.retries = stats.retries;
        run.failovers = stats.failovers;
        run.sheds = stats.shedFault;
        run.quarantines = stats.quarantines;
        run.backoff = stats.backoffSeconds;
        runs.push_back(std::move(run));
    }
    EXPECT_EQ(runs[0].outputs, runs[1].outputs);
    EXPECT_EQ(runs[0].timings, runs[1].timings);
    EXPECT_EQ(runs[0].transients, runs[1].transients);
    EXPECT_EQ(runs[0].retries, runs[1].retries);
    EXPECT_EQ(runs[0].failovers, runs[1].failovers);
    EXPECT_DOUBLE_EQ(runs[0].backoff, runs[1].backoff);
    EXPECT_GT(runs[0].transients, 0u);
    // Eight workers agree too; so do sheds, quarantines and the exact
    // backoff sum at every worker count.
    const Run& eight = runs[2];
    EXPECT_EQ(runs[0].outputs, eight.outputs);
    EXPECT_EQ(runs[0].timings, eight.timings);
    EXPECT_EQ(runs[0].transients, eight.transients);
    EXPECT_EQ(runs[0].retries, eight.retries);
    EXPECT_EQ(runs[0].failovers, eight.failovers);
    for (const Run& run : runs) {
        EXPECT_EQ(runs[0].sheds, run.sheds);
        EXPECT_EQ(runs[0].quarantines, run.quarantines);
        EXPECT_EQ(runs[0].backoff, run.backoff);
    }
    // Every gang submitted after the kill re-shards around rank 2.
    EXPECT_GE(runs[0].failovers, 4u);
}

TEST(SessionFault, ConcurrentSubmittersCompleteOrShedCleanly)
{
    // TSan-facing stress: four threads hammer one faulted session; every
    // request either completes bit-exact or sheds with the typed error,
    // and nothing deadlocks or tears down the pool.
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> pool;
    std::vector<std::vector<std::int32_t>> refs;
    for (unsigned p = 0; p < 2; ++p) {
        pool.push_back(makeRandomProblem(96, 96, 8, cfg, 31 + p));
        refs.push_back(referenceGemmInt(pool.back().w, pool.back().a));
    }

    FaultPlan plan;
    plan.seed = 13;
    plan.transientExecute(0.4);
    FaultInjector injector(plan, 4);
    SessionOptions options;
    options.numRanks = 4;
    options.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), options);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 8;
    std::atomic<unsigned> completed{0}, shed{0}, mismatches{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                const unsigned which = (t + i) % pool.size();
                const auto id = session.submit(
                    pool[which], DesignPoint::LoCaLut, true, {},
                    SubmitOptions{static_cast<int>((t * kPerThread + i) %
                                                   4)});
                try {
                    if (session.wait(id).outInt == refs[which]) {
                        ++completed;
                    } else {
                        ++mismatches;
                    }
                } catch (const FaultShedError&) {
                    ++shed;
                }
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(completed.load() + shed.load(), kThreads * kPerThread);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(injector.stats().transientFaults, 0u);
}

TEST(SchedulerFault, AcceptanceDeathAndTransientsServeBitExact)
{
    // The acceptance scenario: an 8-rank session under a seeded
    // plan of one scheduled rank death plus any-rank transients; every
    // non-shed request returns bit-exact values, and the quarantine /
    // failover counters land in the Prometheus dump.
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    std::vector<GemmProblem> pool;
    std::vector<std::vector<std::int32_t>> refs;
    for (unsigned p = 0; p < 2; ++p) {
        pool.push_back(makeRandomProblem(128, 128, 8, cfg, 41 + p));
        refs.push_back(referenceGemmInt(pool.back().w, pool.back().a));
    }

    FaultPlan plan;
    plan.seed = 0xacce97;
    plan.transientExecute(0.25);
    plan.rankDeath(5, /*atSeconds=*/5e-3);
    FaultInjector injector(plan, 8);
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 8;
    sessionOptions.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Slo;
    RequestScheduler scheduler(session, options);

    constexpr unsigned kRequests = 24;
    unsigned completed = 0, shedFault = 0;
    for (unsigned i = 0; i < kRequests; ++i) {
        ServingRequest request = ServingRequest::gemm(
            pool[i % pool.size()], DesignPoint::LoCaLut);
        request.arrivalSeconds = i * 1e-3; // crosses the 5 ms death
        const AdmissionDecision decision =
            scheduler.submit(std::move(request));
        const ServingResult result = scheduler.wait(decision.id);
        if (!result.decision.admitted() ||
            result.decision.outcome == AdmissionOutcome::ShedFault) {
            ++shedFault;
            continue;
        }
        ++completed;
        EXPECT_EQ(result.gemm.outInt, refs[i % pool.size()]);
    }
    EXPECT_EQ(completed + shedFault, kRequests);
    EXPECT_GT(completed, 0u);

    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    EXPECT_EQ(snap.faults.ranksDead, 1u);
    EXPECT_DOUBLE_EQ(snap.capacityRatio, 7.0 / 8.0);
    EXPECT_GT(snap.faults.transientFaults, 0u);

    const std::string prom = scheduler.telemetry().prometheusText();
    EXPECT_NE(prom.find("localut_ranks_dead 1"), std::string::npos);
    EXPECT_NE(prom.find("localut_failovers_total"), std::string::npos);
    EXPECT_NE(prom.find("localut_quarantines_total"), std::string::npos);
    EXPECT_NE(
        prom.find("localut_faults_total{kind=\"transient_execute\"}"),
        std::string::npos);
    EXPECT_NE(prom.find("localut_capacity_ratio 0.875"),
              std::string::npos);
}

TEST(SchedulerFault, FailedOverWorkloadIsSequencedWhereItRan)
{
    // Rank 0 fails every attempt, so a workload placed there fails over
    // to rank 1 and pays retries and backoff.  The scheduler sequences
    // it on rank 1 for the seconds it was charged, so the next workload
    // served on rank 1 starts when it completes.
    FaultPlan plan;
    plan.transientExecute(1.0, 0);
    FaultInjector injector(plan, 2);
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    sessionOptions.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session, SchedulerOptions{});
    const auto workload = session.compileUnsharded(
        WorkloadSpec::decodeStep(TransformerConfig::opt125m(), 8, 128),
        QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);

    std::vector<std::uint64_t> ids;
    for (unsigned i = 0; i < 2; ++i) {
        ServingRequest request = ServingRequest::workloadRequest(workload);
        request.arrivalSeconds = 0.0;
        ids.push_back(scheduler.submit(std::move(request)).id);
    }
    const ServingResult first = scheduler.wait(ids[0]);
    const ServingResult second = scheduler.wait(ids[1]);
    ASSERT_EQ(first.decision.outcome, AdmissionOutcome::Admitted);
    ASSERT_EQ(second.decision.outcome, AdmissionOutcome::Admitted);
    EXPECT_EQ(first.decision.rank, 0u);
    EXPECT_EQ(first.report.rank, 1u);
    EXPECT_GT(first.report.timing.seconds.get("fault.retry"), 0.0);
    EXPECT_EQ(first.sample.serviceSeconds, first.report.timing.total);
    EXPECT_EQ(second.report.rank, 1u);
    EXPECT_EQ(second.sample.startSeconds, first.report.timing.total);
}

/** bench_fault_sweep's smoke trace: a pool of four 512x512x8 GEMMs and
 * 48 Poisson arrivals at half the healthy 2x4 capacity. */
struct SweepTrace {
    std::vector<GemmProblem> pool;
    std::vector<std::vector<std::int32_t>> refs;
    std::vector<std::pair<double, unsigned>> arrivals; ///< time, problem
    double deadline = 0;
    double deathAt = 0; ///< rank 2 dies at the seventh arrival
};

SweepTrace
sweepSmokeTrace()
{
    constexpr unsigned kRequests = 48;
    constexpr unsigned kPoolSize = 4;
    SweepTrace trace;
    const QuantConfig quant = QuantConfig::preset("W4A4");
    for (unsigned p = 0; p < kPoolSize; ++p) {
        trace.pool.push_back(makeRandomProblem(512, 512, 8, quant, 90 + p));
        trace.refs.push_back(
            referenceGemmInt(trace.pool.back().w, trace.pool.back().a));
    }
    const BackendPtr probe = makeBackend("upmem");
    const double service =
        probe
            ->execute(trace.pool[0],
                      probe->plan(trace.pool[0], DesignPoint::LoCaLut),
                      /*computeValues=*/false)
            .timing.total;
    const double rate = 0.5 * 8.0 / service;
    trace.deadline = 40.0 * service;
    Rng rng(0xfa0175ull);
    double t = 0;
    for (unsigned i = 0; i < kRequests; ++i) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        trace.arrivals.emplace_back(
            t, static_cast<unsigned>(rng.nextBounded(kPoolSize)));
    }
    trace.deathAt = trace.arrivals[kRequests / 8].first;
    return trace;
}

/** Every ticket's verdict and the fault totals of one sweep replay. */
struct SweepReplay {
    std::vector<std::pair<AdmissionOutcome, unsigned>> tickets;
    std::uint64_t completed = 0, met = 0, shed = 0;
    std::uint64_t retries = 0, failovers = 0, quarantines = 0;
    double backoff = 0;
};

/** Replays @p trace open loop at transient rate 0.6 under the failover
 * stack (@p recover) or the fail-stop baseline, as the sweep does. */
SweepReplay
replaySweep(const SweepTrace& trace, unsigned workers, bool recover,
            std::uint64_t quarantineThreshold)
{
    FaultPlan plan;
    plan.seed = 0xfa017u;
    plan.transientExecute(0.6);
    plan.rankDeath(2, trace.deathAt);
    FaultInjector injector(plan, 8);
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 8;
    sessionOptions.workers = workers;
    sessionOptions.faultInjector = &injector;
    sessionOptions.faultPolicy.quarantineThreshold = quarantineThreshold;
    if (!recover) {
        sessionOptions.faultPolicy.maxAttempts = 1;
        sessionOptions.faultPolicy.failover = false;
    }
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Slo;
    options.maxQueuedPerRank = 16;
    RequestScheduler scheduler(session, options);

    std::vector<AdmissionDecision> decisions;
    for (const auto& [time, problem] : trace.arrivals) {
        ServingRequest request =
            ServingRequest::gemm(trace.pool[problem], DesignPoint::LoCaLut,
                                 DeadlineClass::Interactive, trace.deadline);
        request.arrivalSeconds = time;
        decisions.push_back(scheduler.submit(std::move(request)));
    }
    SweepReplay replay;
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const ServingResult result = scheduler.wait(decisions[i].id);
        replay.tickets.emplace_back(result.decision.outcome,
                                    result.decision.rank);
        if (result.decision.outcome == AdmissionOutcome::Admitted) {
            EXPECT_EQ(result.gemm.outInt,
                      trace.refs[trace.arrivals[i].second]);
        }
    }
    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        replay.completed += snap.lanes[lane].completed;
        replay.met += snap.lanes[lane].deadlineMet;
        replay.shed += snap.shedFault[lane];
    }
    replay.retries = snap.faults.retries;
    replay.failovers = snap.faults.failovers;
    replay.quarantines = snap.faults.quarantines;
    replay.backoff = snap.faults.backoffSeconds;
    return replay;
}

TEST(SchedulerFault, SweepSmokeCountsMatchAcrossWorkerCounts)
{
    // bench_fault_sweep --smoke, replayed open loop (all submits, then
    // all waits): every ticket's verdict and every fault counter match
    // whether 1, 4 or 8 workers execute, in both modes and with
    // quarantine firing.
    const SweepTrace trace = sweepSmokeTrace();
    struct Leg {
        bool recover;
        std::uint64_t quarantineThreshold;
    };
    for (const Leg leg : {Leg{true, 1ull << 40}, Leg{false, 1ull << 40},
                          Leg{true, 3}}) {
        const SweepReplay base =
            replaySweep(trace, 1, leg.recover, leg.quarantineThreshold);
        EXPECT_GT(base.shed + base.retries, 0u);
        if (leg.quarantineThreshold == 3) {
            EXPECT_GT(base.quarantines, 0u);
        }
        for (const unsigned workers : {4u, 8u}) {
            SCOPED_TRACE(testing::Message()
                         << "recover " << leg.recover << ", threshold "
                         << leg.quarantineThreshold << ", workers "
                         << workers);
            const SweepReplay run = replaySweep(trace, workers, leg.recover,
                                                leg.quarantineThreshold);
            EXPECT_EQ(base.tickets, run.tickets);
            EXPECT_EQ(base.completed, run.completed);
            EXPECT_EQ(base.met, run.met);
            EXPECT_EQ(base.shed, run.shed);
            EXPECT_EQ(base.retries, run.retries);
            EXPECT_EQ(base.failovers, run.failovers);
            EXPECT_EQ(base.quarantines, run.quarantines);
            EXPECT_EQ(base.backoff, run.backoff);
        }
    }
}

// ------------------------------------------------ token-engine faults

TokenEngineOptions
faultEngineOptions()
{
    TokenEngineOptions options;
    options.model = TransformerConfig::opt125m();
    options.quant = QuantConfig::preset("W4A4");
    options.design = DesignPoint::LoCaLut;
    return options;
}

TEST(TokenEngineFault, AllRanksDeadShedsStreamsOnArrival)
{
    FaultPlan plan;
    plan.rankDeath(0, 0.0);
    plan.rankDeath(1, 0.0);
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), options);
    TokenEngine engine(session, faultEngineOptions());

    for (unsigned i = 0; i < 3; ++i) {
        TokenRequest request;
        request.promptLen = 8;
        request.decodeSteps = 4;
        request.arrivalSeconds = i * 1e-3;
        engine.submit(request);
    }
    const std::vector<StreamResult> results = engine.run();
    ASSERT_EQ(results.size(), 3u);
    for (const StreamResult& result : results) {
        EXPECT_EQ(result.status, StreamStatus::ShedFault);
        EXPECT_DOUBLE_EQ(result.completionSeconds,
                         result.arrivalSeconds);
        EXPECT_LT(result.firstTokenSeconds, 0.0);
    }
    EXPECT_EQ(injector.stats().shedFault, 3u);
}

TEST(TokenEngineFault, MidTraceRankDeathMigratesStreamsToSurvivor)
{
    // Calibrate the death to the middle of a healthy run's makespan so
    // streams are mid-decode on the dying rank when it fires.
    const auto makeTrace = [](TokenEngine& engine) {
        for (unsigned i = 0; i < 4; ++i) {
            TokenRequest request;
            request.promptLen = 8;
            request.decodeSteps = 6;
            request.arrivalSeconds = 0.0;
            engine.submit(request);
        }
    };
    double makespan = 0;
    {
        SessionOptions options;
        options.numRanks = 2;
        InferenceSession session(makeBackend("upmem"), options);
        TokenEngine engine(session, faultEngineOptions());
        makeTrace(engine);
        for (const StreamResult& result : engine.run()) {
            EXPECT_EQ(result.status, StreamStatus::Completed);
            makespan = std::max(makespan, result.completionSeconds);
        }
    }
    ASSERT_GT(makespan, 0.0);

    // The same death with KV residency tracked: the dead rank's streams
    // are displaced, and the survivor refills their whole context.
    for (const ResidencyPolicy policy :
         {ResidencyPolicy::Disabled, ResidencyPolicy::CostAware}) {
        SCOPED_TRACE(policy == ResidencyPolicy::Disabled ? "no residency"
                                                         : "cost-aware");
        FaultPlan plan;
        plan.rankDeath(0, makespan / 2);
        FaultInjector injector(plan, 2);
        SessionOptions options;
        options.numRanks = 2;
        options.residencyPolicy = policy;
        options.faultInjector = &injector;
        InferenceSession session(makeBackend("upmem"), options);
        TokenEngine engine(session, faultEngineOptions());
        makeTrace(engine);
        unsigned migratedToSurvivor = 0;
        for (const StreamResult& result : engine.run()) {
            EXPECT_EQ(result.status, StreamStatus::Completed);
            EXPECT_EQ(result.tokensEmitted(), 6u);
            if (result.completionSeconds > makespan / 2) {
                EXPECT_EQ(result.rank, 1u);
            }
            migratedToSurvivor += result.rank == 1 ? 1 : 0;
        }
        // Rank 0's streams were re-homed, not shed.
        EXPECT_GE(injector.stats().failovers, 1u);
        EXPECT_EQ(injector.stats().shedFault, 0u);
        EXPECT_GE(migratedToSurvivor, 2u);
        EXPECT_EQ(injector.health(0), RankHealth::Dead);
        if (policy == ResidencyPolicy::CostAware) {
            // Each displaced stream counts one refill on the survivor,
            // moving the same bytes a fresh admission would.
            const ResidencyStats stats = session.residencyStats();
            EXPECT_EQ(stats.kvDisplaced, 2u);
            EXPECT_EQ(stats.kvRefills, stats.kvDisplaced);
            EXPECT_NEAR(stats.kvMovedSeconds, 4.200832e-04, 1e-12);
        }
    }
}

TEST(TokenEngineFault, StepsChargeTheRankThatRanThem)
{
    // Every attempt on rank 0 fails, so the stream's prefill fails over
    // to rank 1.  The stream, its KV, its clock and every later step
    // follow it there: one failover, not one per step, and the table
    // sets the steps acquired sit on the rank the engine reports.
    FaultPlan plan;
    plan.transientExecute(1.0, /*rank=*/0);
    FaultInjector injector(plan, 2);
    SessionOptions options;
    options.numRanks = 2;
    options.residencyPolicy = ResidencyPolicy::CostAware;
    options.faultInjector = &injector;
    InferenceSession session(makeBackend("upmem"), options);
    Telemetry telemetry;
    TokenEngine engine(session, faultEngineOptions(), &telemetry);

    TokenRequest request;
    request.promptLen = 16;
    request.decodeSteps = 4;
    engine.submit(request);
    const std::vector<StreamResult> results = engine.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, StreamStatus::Completed);
    EXPECT_EQ(results[0].rank, 1u);
    const std::vector<StepTrace> traces = engine.stepTraces();
    ASSERT_EQ(traces.size(), 5u); // one prefill + four decode steps
    for (const StepTrace& trace : traces) {
        EXPECT_EQ(trace.rank, 1u);
    }
    EXPECT_EQ(injector.stats().failovers, 1u);
    EXPECT_EQ(session.residency()->lutBytes(0), 0u);
    EXPECT_GT(session.residency()->lutBytes(1), 0u);
    EXPECT_EQ(telemetry.snapshot().faults.failovers, 1u);
}

} // namespace
} // namespace localut
