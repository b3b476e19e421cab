/**
 * @file
 * RequestScheduler tests: admission-control edge cases (idle wakeup,
 * impossible deadlines, saturation), lane priority + EDF ordering in
 * virtual time, cold-start-aware placement against the residency
 * manager, workloads sequenced by the broadcast they were charged,
 * bit-exactness of scheduled execution vs direct submit(), and a
 * concurrent submit/collect stress (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "serving/scheduler.h"
#include "serving/session.h"

namespace localut {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

GemmProblem
smallProblem(std::uint64_t seed = 1)
{
    return makeRandomProblem(128, 128, 8, QuantConfig::preset("W4A4"),
                             seed);
}

/** Modeled service seconds of @p problem on @p session's backend. */
double
serviceSeconds(InferenceSession& session, const GemmProblem& problem)
{
    const GemmPlan plan = session.plan(problem, DesignPoint::LoCaLut);
    return session.backend()
        .execute(problem, plan, /*computeValues=*/false)
        .timing.total;
}

TEST(Scheduler, IdleRankServesArrivalImmediately)
{
    // Empty-queue wakeup: after the clock has advanced past every prior
    // completion, a new arrival starts the moment it arrives.
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session);

    scheduler.advanceTo(5.0);
    EXPECT_DOUBLE_EQ(scheduler.clockSeconds(), 5.0);
    EXPECT_EQ(scheduler.queuedRequests(), 0u);

    const GemmProblem problem = smallProblem();
    const AdmissionDecision decision = scheduler.submit(
        ServingRequest::gemm(problem, DesignPoint::LoCaLut,
                             DeadlineClass::Interactive, /*deadline=*/1.0));
    ASSERT_TRUE(decision.admitted());
    EXPECT_DOUBLE_EQ(decision.arrivalSeconds, 5.0);
    EXPECT_DOUBLE_EQ(decision.projectedStartSeconds, 5.0);

    const ServingResult result = scheduler.wait(decision.id);
    EXPECT_DOUBLE_EQ(result.sample.startSeconds, 5.0);
    EXPECT_DOUBLE_EQ(result.sample.queueDelaySeconds(), 0.0);
    EXPECT_NEAR(result.sample.latencySeconds(),
                result.sample.serviceSeconds,
                result.sample.serviceSeconds * 1e-6);
    EXPECT_TRUE(result.sample.deadlineMet());
    EXPECT_EQ(result.gemm.outInt,
              referenceGemmInt(problem.w, problem.a));
}

TEST(Scheduler, ShedsDeadlineInThePast)
{
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);

    // Non-positive budget: shed before any projection work.
    const AdmissionDecision zero = scheduler.submit(ServingRequest::gemm(
        smallProblem(), DesignPoint::LoCaLut, DeadlineClass::Interactive,
        /*deadline=*/0.0));
    EXPECT_EQ(zero.outcome, AdmissionOutcome::ShedDeadline);

    // A positive budget below the service time on an idle rank: no
    // placement can meet it.
    const GemmProblem problem = smallProblem();
    const double service = serviceSeconds(session, problem);
    const AdmissionDecision tight = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        /*deadline=*/service * 0.5));
    EXPECT_EQ(tight.outcome, AdmissionOutcome::ShedDeadline);

    // Shed tickets resolve immediately with no result payload.
    const ServingResult result = scheduler.wait(tight.id);
    EXPECT_FALSE(result.decision.admitted());
    EXPECT_TRUE(result.gemm.outInt.empty());

    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    const auto lane =
        static_cast<std::size_t>(DeadlineClass::Interactive);
    EXPECT_EQ(snap.shedDeadline[lane], 2u);
    EXPECT_EQ(snap.admitted[lane], 0u);
    scheduler.wait(zero.id);
}

TEST(Scheduler, RejectsWhenEveryRankIsSaturated)
{
    SchedulerOptions options;
    options.maxQueuedPerRank = 2;
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session, options);

    // All-batch, no deadlines: the first request starts immediately in
    // virtual time (leaving the queue), the next two queue up to the
    // bound, and the fourth finds the single rank saturated.
    std::vector<AdmissionDecision> decisions;
    for (int i = 0; i < 4; ++i) {
        decisions.push_back(scheduler.submit(ServingRequest::gemm(
            smallProblem(static_cast<std::uint64_t>(i)),
            DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
            /*computeValues=*/false)));
    }
    EXPECT_TRUE(decisions[0].admitted());
    EXPECT_TRUE(decisions[1].admitted());
    EXPECT_TRUE(decisions[2].admitted());
    EXPECT_EQ(decisions[3].outcome, AdmissionOutcome::RejectedSaturated);
    EXPECT_EQ(scheduler.queuedRequests(), 2u);

    for (const AdmissionDecision& d : decisions) {
        scheduler.wait(d.id);
    }
}

TEST(Scheduler, EarliestDeadlineFirstWithinLane)
{
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);

    const GemmProblem problem = smallProblem();
    const double service = serviceSeconds(session, problem);

    // Occupy the single rank, then queue two batch requests whose
    // submission order inverts their deadlines.
    const AdmissionDecision head = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision late = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch,
        /*deadline=*/10.0, /*computeValues=*/false));
    const AdmissionDecision urgent = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch,
        /*deadline=*/5.0, /*computeValues=*/false));

    const ServingResult first = scheduler.wait(head.id);
    const ServingResult r1 = scheduler.wait(late.id);
    const ServingResult r2 = scheduler.wait(urgent.id);
    // The urgent (earlier-deadline) request runs right after the head,
    // ahead of the earlier-submitted late one.
    EXPECT_DOUBLE_EQ(first.sample.startSeconds, 0.0);
    EXPECT_NEAR(r2.sample.startSeconds, service, service * 1e-9);
    EXPECT_GT(r1.sample.startSeconds, r2.sample.startSeconds);
}

TEST(Scheduler, InteractiveLaneOvertakesBatch)
{
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);

    const GemmProblem problem = smallProblem();
    const AdmissionDecision head = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision batch = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch,
        /*deadline=*/5.0, /*computeValues=*/false));
    const AdmissionDecision inter = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        /*deadline=*/20.0, /*computeValues=*/false));

    scheduler.wait(head.id);
    const ServingResult rBatch = scheduler.wait(batch.id);
    const ServingResult rInter = scheduler.wait(inter.id);
    // Despite the later deadline, the interactive lane goes first.
    EXPECT_LT(rInter.sample.startSeconds, rBatch.sample.startSeconds);
}

TEST(Scheduler, DecodeLaneOutranksEveryOtherLane)
{
    // Token-engine lane separation: while a rank is busy, a queued
    // decode step overtakes interactive and prefill work regardless of
    // arrival order, and prefill yields to interactive — the priority
    // order is decode < interactive < prefill < batch (lower starts
    // first), decoupled from the enum indices.
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const auto prefillGraph = session.compileUnsharded(
        WorkloadSpec::prefill(model, 1, 8), cfg, DesignPoint::LoCaLut);
    const auto stepGraph = session.compileUnsharded(
        WorkloadSpec::decodeStep(model, 1, 8), cfg, DesignPoint::LoCaLut);

    const AdmissionDecision head = scheduler.submit(ServingRequest::gemm(
        smallProblem(), DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision pre = scheduler.submit(
        ServingRequest::workloadRequest(prefillGraph, DeadlineClass::Prefill,
                                        kInf));
    const AdmissionDecision inter = scheduler.submit(ServingRequest::gemm(
        smallProblem(), DesignPoint::LoCaLut, DeadlineClass::Interactive,
        kInf, /*computeValues=*/false));
    const AdmissionDecision step = scheduler.submit(
        ServingRequest::workloadRequest(stepGraph, DeadlineClass::Decode,
                                        kInf));
    EXPECT_EQ(pre.lane, DeadlineClass::Prefill);
    EXPECT_EQ(step.lane, DeadlineClass::Decode);

    scheduler.wait(head.id);
    const ServingResult rPre = scheduler.wait(pre.id);
    const ServingResult rInter = scheduler.wait(inter.id);
    const ServingResult rStep = scheduler.wait(step.id);
    EXPECT_LT(rStep.sample.startSeconds, rInter.sample.startSeconds);
    EXPECT_LT(rInter.sample.startSeconds, rPre.sample.startSeconds);
}

TEST(Scheduler, FifoPolicyKeepsArrivalOrder)
{
    SchedulerOptions options;
    options.policy = SchedulerPolicy::Fifo;
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session, options);

    const GemmProblem problem = smallProblem();
    const AdmissionDecision head = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision batch = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision inter = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        /*deadline=*/20.0, /*computeValues=*/false));

    scheduler.wait(head.id);
    const ServingResult rBatch = scheduler.wait(batch.id);
    const ServingResult rInter = scheduler.wait(inter.id);
    // FIFO ignores lanes: arrival order wins.
    EXPECT_LT(rBatch.sample.startSeconds, rInter.sample.startSeconds);
}

TEST(Scheduler, ColdStartAwarePlacementPrefersWarmRanks)
{
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session);

    const GemmProblem s = makeRandomProblem(
        768, 768, 8, QuantConfig::preset("W4A4"), 7);
    const GemmProblem t = makeRandomProblem(
        512, 512, 8, QuantConfig::preset("W4A4"), 8);

    // First touch of S lands on rank 0 (idle tie) and pays a projected
    // broadcast there.
    const AdmissionDecision d1 = scheduler.submit(ServingRequest::gemm(
        s, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    ASSERT_TRUE(d1.admitted());
    EXPECT_EQ(d1.rank, 0u);
    const ServingResult r1 = scheduler.wait(d1.id);
    EXPECT_GT(r1.sample.lutBroadcastSeconds, 0.0);
    // The projection prices the cold start exactly as the execution
    // charges it: both are the residency manager's broadcastSeconds().
    const GemmPlan plan = session.plan(s, DesignPoint::LoCaLut);
    EXPECT_DOUBLE_EQ(r1.sample.lutBroadcastSeconds,
                     r1.gemm.timing.seconds.get("link.lut_broadcast"));
    EXPECT_DOUBLE_EQ(r1.sample.lutBroadcastSeconds,
                     session.residency()->broadcastSeconds(
                         tableSetBytes(plan)));

    // With both ranks idle again, S re-runs warm on rank 0, while the
    // unseen shape T prefers the idle-but-cold rank 1 over queueing
    // behind S on rank 0.
    scheduler.advanceTo(r1.sample.completionSeconds + 1.0);
    const AdmissionDecision d2 = scheduler.submit(ServingRequest::gemm(
        s, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    const AdmissionDecision d3 = scheduler.submit(ServingRequest::gemm(
        t, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    EXPECT_EQ(d2.rank, 0u);
    EXPECT_EQ(d3.rank, 1u);
    const ServingResult r2 = scheduler.wait(d2.id);
    EXPECT_DOUBLE_EQ(r2.sample.lutBroadcastSeconds, 0.0);
    const ServingResult r3 = scheduler.wait(d3.id);
    EXPECT_GT(r3.sample.lutBroadcastSeconds, 0.0);

    // Steady state: both shapes warm on their home ranks.
    scheduler.advanceTo(r3.sample.completionSeconds + 1.0);
    const AdmissionDecision d4 = scheduler.submit(ServingRequest::gemm(
        t, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
        /*computeValues=*/false));
    EXPECT_EQ(d4.rank, 1u);
    const ServingResult r4 = scheduler.wait(d4.id);
    EXPECT_DOUBLE_EQ(r4.sample.lutBroadcastSeconds, 0.0);
}

TEST(Scheduler, EvictedTableSetsAreReprojectedCold)
{
    // Budget fits exactly one of the two table sets: serving T after S
    // evicts S's tables, so a later S request must be projected (and
    // charged) cold again — the planned-warm marker from the first
    // admission must not outlive the eviction.
    const GemmProblem s = makeRandomProblem(
        768, 768, 8, QuantConfig::preset("W4A4"), 21);
    const GemmProblem t = makeRandomProblem(
        512, 512, 8, QuantConfig::preset("W4A4"), 22);
    const BackendPtr backend = makeBackend("upmem");
    const std::uint64_t sBytes =
        tableSetBytes(backend->plan(s, DesignPoint::LoCaLut));
    const std::uint64_t tBytes =
        tableSetBytes(backend->plan(t, DesignPoint::LoCaLut));
    ASSERT_GT(sBytes, 0u);
    ASSERT_GT(tBytes, 0u);

    SessionOptions sessionOptions;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    sessionOptions.mramBudgetBytes = std::max(sBytes, tBytes);
    InferenceSession session(backend, sessionOptions);
    RequestScheduler scheduler(session);

    auto serve = [&](const GemmProblem& problem) {
        const AdmissionDecision d = scheduler.submit(ServingRequest::gemm(
            problem, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
            /*computeValues=*/false));
        const ServingResult r = scheduler.wait(d.id);
        scheduler.advanceTo(r.sample.completionSeconds + 1.0);
        return r;
    };

    EXPECT_GT(serve(s).sample.lutBroadcastSeconds, 0.0); // first touch
    EXPECT_GT(serve(t).sample.lutBroadcastSeconds, 0.0); // evicts S
    EXPECT_GE(session.residencyStats().evictions, 1u);
    // S is cold again: the projection must say so and the real
    // execution re-broadcast must match it.
    const ServingResult again = serve(s);
    EXPECT_GT(again.sample.lutBroadcastSeconds, 0.0);
    EXPECT_GE(session.residencyStats().rebroadcasts, 1u);
}

TEST(Scheduler, ColdStartProjectionMatchesChargeBeforeAnyWait)
{
    // Two admissions of one GEMM before any wait(): each projected
    // broadcast must equal the broadcast its execution is charged,
    // whatever the worker count.  When the budget holds the table set
    // only the first request pays; one byte short, the set never
    // becomes resident and both pay.
    const GemmProblem s = makeRandomProblem(
        768, 768, 8, QuantConfig::preset("W4A4"), 21);
    const BackendPtr backend = makeBackend("upmem");
    const std::uint64_t bytes =
        tableSetBytes(backend->plan(s, DesignPoint::LoCaLut));
    ASSERT_GT(bytes, 1u);

    for (const unsigned workers : {1u, 4u, 8u}) {
        for (const bool fits : {true, false}) {
            SessionOptions sessionOptions;
            sessionOptions.workers = workers;
            sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
            sessionOptions.mramBudgetBytes = fits ? bytes : bytes - 1;
            InferenceSession session(backend, sessionOptions);
            RequestScheduler scheduler(session);

            std::vector<AdmissionDecision> decisions;
            for (int i = 0; i < 2; ++i) {
                decisions.push_back(scheduler.submit(ServingRequest::gemm(
                    s, DesignPoint::LoCaLut, DeadlineClass::Batch, kInf,
                    /*computeValues=*/false)));
                ASSERT_TRUE(decisions.back().admitted());
            }
            for (std::size_t i = 0; i < decisions.size(); ++i) {
                const ServingResult r = scheduler.wait(decisions[i].id);
                const double charged =
                    r.gemm.timing.seconds.get("link.lut_broadcast");
                EXPECT_DOUBLE_EQ(r.sample.lutBroadcastSeconds, charged)
                    << "workers " << workers << ", fits " << fits
                    << ", request " << i;
                if (i == 0 || !fits) {
                    EXPECT_GT(charged, 0.0)
                        << "workers " << workers << ", request " << i;
                } else {
                    EXPECT_DOUBLE_EQ(charged, 0.0)
                        << "workers " << workers << ", request " << i;
                }
            }
        }
    }
}

TEST(Scheduler, WorkloadColdStartProjectionMatchesChargeOnEveryRank)
{
    // Four decode steps arrive together on four idle ranks and each
    // lands cold on its own rank: the broadcast projected there (the
    // residency manager's answer for that rank) is the one its run is
    // charged.
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 4;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session);
    const auto workload = session.compileUnsharded(
        WorkloadSpec::decodeStep(TransformerConfig::opt125m(), 8, 64),
        QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);
    const double steady = session.projectCost(workload).totalSeconds();

    std::vector<AdmissionDecision> decisions;
    std::vector<bool> used(4, false);
    for (int i = 0; i < 4; ++i) {
        ServingRequest request = ServingRequest::workloadRequest(
            workload, DeadlineClass::Batch);
        request.arrivalSeconds = 0.0;
        decisions.push_back(scheduler.submit(std::move(request)));
        const AdmissionDecision& d = decisions.back();
        ASSERT_TRUE(d.admitted());
        ASSERT_LT(d.rank, 4u);
        EXPECT_FALSE(used[d.rank]) << "request " << i;
        used[d.rank] = true;
    }
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        const ServingResult r = scheduler.wait(decisions[i].id);
        const double charged = r.report.lutBroadcastSeconds;
        EXPECT_GT(charged, 0.0) << "request " << i;
        EXPECT_EQ(r.report.rank, decisions[i].rank) << "request " << i;
        EXPECT_NEAR(decisions[i].projectedServiceSeconds - steady, charged,
                    1e-12 * charged)
            << "request " << i;
    }
}

TEST(Scheduler, SelfEvictingWorkloadIsSequencedByItsCharge)
{
    // A workload runs at admission and is sequenced by the broadcast it
    // was charged.  With a budget that holds only the qkv table set, an
    // OPT-125M decode step evicts part of itself on every run and pays
    // more than its per-node projection; a 4-rank gang is projected
    // with no broadcast at all yet pays its cold start.
    const WorkloadSpec spec =
        WorkloadSpec::decodeStep(TransformerConfig::opt125m(), 8, 64);
    const QuantConfig quant = QuantConfig::preset("W4A4");
    struct Case {
        unsigned ranks;
        std::uint64_t mramBudgetBytes; ///< 0 = backend default
    };
    for (const Case c : {Case{1, 19584}, Case{4, 0}}) {
        SessionOptions sessionOptions;
        sessionOptions.numRanks = c.ranks;
        sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
        sessionOptions.mramBudgetBytes = c.mramBudgetBytes;
        InferenceSession session(makeBackend("upmem"), sessionOptions);
        RequestScheduler scheduler(session);
        const auto workload =
            c.ranks == 1
                ? session.compileUnsharded(spec, quant, DesignPoint::LoCaLut)
                : session.compile(spec, quant, DesignPoint::LoCaLut);
        ASSERT_EQ(workload.sharded(), c.ranks > 1);
        const double steady = session.projectCost(workload).totalSeconds();
        for (int i = 0; i < 3; ++i) {
            const AdmissionDecision d = scheduler.submit(
                ServingRequest::workloadRequest(workload,
                                                DeadlineClass::Batch));
            ASSERT_TRUE(d.admitted());
            const ServingResult r = scheduler.wait(d.id);
            const double charged = r.report.lutBroadcastSeconds;
            EXPECT_DOUBLE_EQ(r.sample.lutBroadcastSeconds, charged)
                << "ranks " << c.ranks << ", request " << i;
            EXPECT_DOUBLE_EQ(r.sample.serviceSeconds, steady + charged)
                << "ranks " << c.ranks << ", request " << i;
            if (i == 0 || c.ranks == 1) {
                EXPECT_GT(charged, 0.0)
                    << "ranks " << c.ranks << ", request " << i;
            }
        }
    }
}

TEST(Scheduler, ScheduledExecutionIsBitExactVsDirectSubmit)
{
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session);

    InferenceSession direct(makeBackend("upmem"));

    const char* presets[] = {"W1A3", "W4A4"};
    std::vector<AdmissionDecision> decisions;
    std::vector<GemmProblem> problems;
    for (int i = 0; i < 6; ++i) {
        problems.push_back(makeRandomProblem(
            96 + 32 * (i % 3), 128, 8, QuantConfig::preset(presets[i % 2]),
            100 + static_cast<std::uint64_t>(i)));
        decisions.push_back(scheduler.submit(ServingRequest::gemm(
            problems.back(), DesignPoint::LoCaLut,
            i % 2 ? DeadlineClass::Batch : DeadlineClass::Interactive,
            kInf)));
    }
    for (std::size_t i = 0; i < decisions.size(); ++i) {
        ASSERT_TRUE(decisions[i].admitted());
        const ServingResult scheduled = scheduler.wait(decisions[i].id);
        const GemmResult reference = direct.wait(direct.submit(
            problems[i], DesignPoint::LoCaLut, /*computeValues=*/true));
        EXPECT_EQ(scheduled.gemm.outInt, reference.outInt)
            << "request " << i << " diverged from direct submit";
    }
}

TEST(Scheduler, WorkloadRequestsDataParallelAndGang)
{
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    RequestScheduler scheduler(session);

    const WorkloadSpec spec =
        WorkloadSpec::decode(TransformerConfig::opt125m(), 8, 64, 1);
    const QuantConfig quant = QuantConfig::preset("W4A4");

    // Unsharded compilation serves whole requests data-parallel: two
    // idle ranks take one request each.
    const auto replica = session.compileUnsharded(
        spec, quant, DesignPoint::LoCaLut);
    EXPECT_FALSE(replica.sharded());
    const double steady = session.projectCost(replica).totalSeconds();
    const AdmissionDecision w0 = scheduler.submit(
        ServingRequest::workloadRequest(replica, DeadlineClass::Batch));
    const AdmissionDecision w1 = scheduler.submit(
        ServingRequest::workloadRequest(replica, DeadlineClass::Batch));
    ASSERT_TRUE(w0.admitted());
    ASSERT_TRUE(w1.admitted());
    EXPECT_NE(w0.rank, w1.rank);
    const ServingResult rw0 = scheduler.wait(w0.id);
    EXPECT_NEAR(rw0.sample.serviceSeconds, steady, steady * 1e-9);
    EXPECT_NEAR(rw0.report.timing.total, steady, steady * 1e-9);
    scheduler.wait(w1.id);

    // A sharded compilation gangs across every rank.
    const auto sharded =
        session.compile(spec, quant, DesignPoint::LoCaLut);
    ASSERT_TRUE(sharded.sharded());
    const AdmissionDecision g = scheduler.submit(
        ServingRequest::workloadRequest(sharded, DeadlineClass::Batch));
    ASSERT_TRUE(g.admitted());
    EXPECT_EQ(g.rank, RequestScheduler::kAllRanks);
    const ServingResult rg = scheduler.wait(g.id);
    EXPECT_GT(rg.sample.collectiveSeconds, 0.0);
    EXPECT_NEAR(rg.report.collectiveSeconds, rg.sample.collectiveSeconds,
                rg.sample.collectiveSeconds * 1e-9);
}

TEST(Scheduler, AdmissionProtectsAlreadyAdmittedDeadlines)
{
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);

    const GemmProblem problem = smallProblem();
    const double service = serviceSeconds(session, problem);

    // Two interactive requests fit back-to-back within 2.5 services.
    const AdmissionDecision a = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        2.5 * service, /*computeValues=*/false));
    const AdmissionDecision b = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        2.5 * service, /*computeValues=*/false));
    ASSERT_TRUE(a.admitted());
    ASSERT_TRUE(b.admitted());

    // A third with a *tighter* deadline would jump the EDF queue and
    // push b past its budget: it must be shed, and b must still meet
    // its deadline.
    const AdmissionDecision c = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive,
        1.8 * service, /*computeValues=*/false));
    EXPECT_EQ(c.outcome, AdmissionOutcome::ShedDeadline);

    scheduler.wait(a.id);
    const ServingResult rb = scheduler.wait(b.id);
    EXPECT_TRUE(rb.sample.deadlineMet());
    scheduler.wait(c.id);
}

TEST(Scheduler, ConcurrentSubmitCollectStress)
{
    // Concurrent submitters and waiters over a multi-rank session with
    // residency enabled: every admitted value request must stay
    // bit-exact, and the telemetry counters must balance.  Run under
    // TSan in CI (the sanitize job builds this suite).
    SessionOptions sessionOptions;
    sessionOptions.numRanks = 2;
    sessionOptions.workers = 2;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), sessionOptions);
    SchedulerOptions options;
    options.maxQueuedPerRank = 1024; // stress ordering, not admission
    RequestScheduler scheduler(session, options);

    constexpr unsigned kThreads = 4;
    constexpr unsigned kPerThread = 12;
    std::vector<std::thread> threads;
    std::vector<unsigned> mismatches(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned i = 0; i < kPerThread; ++i) {
                const GemmProblem problem = makeRandomProblem(
                    64 + 16 * (i % 3), 96, 4,
                    QuantConfig::preset(i % 2 ? "W4A4" : "W1A3"),
                    1000 + t * 100 + i);
                const AdmissionDecision d =
                    scheduler.submit(ServingRequest::gemm(
                        problem, DesignPoint::LoCaLut,
                        i % 3 ? DeadlineClass::Batch
                              : DeadlineClass::Interactive,
                        kInf));
                const ServingResult r = scheduler.wait(d.id);
                if (r.gemm.outInt !=
                    referenceGemmInt(problem.w, problem.a)) {
                    ++mismatches[t];
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    for (const unsigned m : mismatches) {
        EXPECT_EQ(m, 0u);
    }
    scheduler.drain();
    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    EXPECT_EQ(snap.totalSubmitted(), kThreads * kPerThread);
    EXPECT_EQ(snap.totalAdmitted(), kThreads * kPerThread);
    std::uint64_t completed = 0;
    for (const LaneStats& lane : snap.lanes) {
        completed += lane.completed;
    }
    EXPECT_EQ(completed, kThreads * kPerThread);
}

} // namespace
} // namespace localut
