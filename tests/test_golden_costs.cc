/**
 * @file
 * Golden cost-model regression tests: the modeled time and energy of a
 * small matrix of design points — the fig09-class GEMM shapes, a
 * bank-level and host comparison point, sharded executions, and the
 * fig10-class end-to-end workloads — are frozen against checked-in
 * values, so a refactor that silently shifts the paper's numbers fails
 * here instead of surfacing as a quiet drift in the bench output.
 *
 * The golden values were produced by this very model (commit that
 * introduced this file); they are not paper numbers.  If a change
 * intentionally alters the cost model, re-generate the table and say so
 * in the commit message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "backend/backend.h"
#include "dram/timing.h"
#include "nn/inference.h"
#include "serving/scheduler.h"
#include "serving/session.h"
#include "serving/sharding.h"

namespace localut {
namespace {

/** Tight relative tolerance: catches any real model change while
 * allowing float summation differences across optimizers. */
constexpr double kRelTol = 1e-6;

struct GoldenGemm {
    const char* backend;
    const char* preset;
    DesignPoint design;
    std::size_t m, k, n;
    unsigned ranks; ///< 1 = unsharded; > 1 = column-parallel sharded
    double seconds;
    double joules;
};

const GoldenGemm kGoldenGemms[] = {
    {"upmem", "W1A3", DesignPoint::NaivePim, 768, 768, 128, 1,
     9.607323428571e-04, 7.435332017006e-02},
    {"upmem", "W1A3", DesignPoint::NaivePim, 3072, 768, 32, 1,
     9.484443428571e-04, 7.300685028206e-02},
    {"upmem", "W1A3", DesignPoint::Ltc, 768, 768, 128, 1,
     4.779894857143e-04, 3.480702531291e-02},
    {"upmem", "W1A3", DesignPoint::Ltc, 3072, 768, 32, 1,
     4.657014857143e-04, 3.346055542491e-02},
    {"upmem", "W1A3", DesignPoint::OpLut, 768, 768, 128, 1,
     4.366192761905e-04, 3.054907524632e-02},
    {"upmem", "W1A3", DesignPoint::OpLut, 3072, 768, 32, 1,
     4.161392761905e-04, 2.830495876632e-02},
    {"upmem", "W1A3", DesignPoint::LoCaLut, 768, 768, 128, 1,
     3.642930541832e-04, 2.623380510861e-02},
    {"upmem", "W1A3", DesignPoint::LoCaLut, 3072, 768, 32, 1,
     3.156330349744e-04, 2.090183484378e-02},
    {"upmem", "W4A4", DesignPoint::NaivePim, 768, 768, 128, 1,
     9.771913142857e-04, 7.530045393189e-02},
    {"upmem", "W4A4", DesignPoint::NaivePim, 3072, 768, 32, 1,
     9.649033142857e-04, 7.395398404389e-02},
    {"upmem", "W4A4", DesignPoint::Ltc, 768, 768, 128, 1,
     1.442379885714e-03, 1.134087017033e-01},
    {"upmem", "W4A4", DesignPoint::Ltc, 3072, 768, 32, 1,
     1.430091885714e-03, 1.120622318153e-01},
    {"upmem", "W4A4", DesignPoint::OpLut, 768, 768, 128, 1,
     1.041856914286e-03, 7.909391354149e-02},
    {"upmem", "W4A4", DesignPoint::OpLut, 3072, 768, 32, 1,
     1.017280914286e-03, 7.640097376549e-02},
    {"upmem", "W4A4", DesignPoint::LoCaLut, 768, 768, 128, 1,
     9.669232128059e-04, 7.320967127842e-02},
    {"upmem", "W4A4", DesignPoint::LoCaLut, 3072, 768, 32, 1,
     9.233932032015e-04, 6.843982694601e-02},
    {"bankpim", "W1A3", DesignPoint::NaivePim, 768, 768, 128, 1,
     2.230637500000e-05, 1.394492864000e-03},
    {"bankpim", "W1A3", DesignPoint::LoCaLut, 768, 768, 128, 1,
     1.139575000000e-05, 6.643720228571e-04},
    {"host-cpu", "W4A4", DesignPoint::LoCaLut, 768, 768, 128, 1,
     1.348169142857e-03, 1.145943771429e-01},
    {"host-gpu", "W4A4", DesignPoint::LoCaLut, 768, 768, 128, 1,
     1.524791716120e-04, 3.811979290301e-02},
    // Sharded (column-parallel) decode-shape GEMMs: time drops with
    // ranks, energy grows (more devices + the collective hop).
    {"upmem", "W4A4", DesignPoint::LoCaLut, 768, 768, 32, 2,
     2.464009142857e-04, 2.698280356297e-02},
    {"upmem", "W4A4", DesignPoint::LoCaLut, 768, 768, 32, 4,
     1.895266285714e-04, 3.574844063909e-02},
};

TEST(GoldenCosts, GemmDesignPointsMatchFrozenValues)
{
    for (const GoldenGemm& g : kGoldenGemms) {
        SCOPED_TRACE(std::string(g.backend) + " " + g.preset + " " +
                     designPointName(g.design) + " m=" +
                     std::to_string(g.m) + " n=" + std::to_string(g.n) +
                     " ranks=" + std::to_string(g.ranks));
        const BackendPtr backend = makeBackend(g.backend);
        const GemmProblem problem = makeShapeOnlyProblem(
            g.m, g.k, g.n, QuantConfig::preset(g.preset));
        double seconds, joules;
        if (g.ranks > 1) {
            ShardSpec spec;
            spec.numRanks = g.ranks;
            const ShardPlan plan =
                makeShardPlan(*backend, problem, g.design, spec);
            const GemmResult r = executeSharded(*backend, problem, plan,
                                                /*computeValues=*/false);
            seconds = r.timing.total;
            joules = r.energy.total;
        } else {
            const GemmResult r =
                backend->execute(problem, backend->plan(problem, g.design),
                                 /*computeValues=*/false);
            seconds = r.timing.total;
            joules = r.energy.total;
        }
        EXPECT_NEAR(seconds, g.seconds, g.seconds * kRelTol);
        EXPECT_NEAR(joules, g.joules, g.joules * kRelTol);
    }
}

/**
 * The collective charge, pinned against the flat closed form evaluated
 * inline: launch latency plus the slower of the per-rank bank drain and
 * the host link serializing the aggregate, with drain energy on every
 * byte plus link energy per byte.  serving/sharding.cc chargeCollective
 * (through dram/timing's collectiveHopCost) must reproduce these
 * numbers bit-for-bit — EXPECT_DOUBLE_EQ, no tolerance.
 */
TEST(GoldenCosts, SingleNodeCollectiveMatchesFlatClosedForm)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 32, cfg);
    const CollectiveLinkProfile prof = backend->collectiveProfile();

    for (const ShardStrategy strategy :
         {ShardStrategy::ColumnParallel, ShardStrategy::RowParallel}) {
        for (const unsigned ranks : {2u, 4u}) {
            SCOPED_TRACE(std::string(shardStrategyName(strategy)) +
                         " ranks=" + std::to_string(ranks));
            ShardSpec spec;
            spec.numRanks = ranks;
            spec.strategy = strategy;
            const ShardPlan plan = makeShardPlan(
                *backend, problem, DesignPoint::LoCaLut, spec);

            // The flat model: per-shard drained bytes are the output
            // slice (ColumnParallel) or a full MxN partial (RowParallel).
            const double outElems = 768.0 * 32.0;
            double perRank = 0, total = 0;
            for (const GemmShard& shard : plan.shards) {
                const double bytes =
                    strategy == ShardStrategy::RowParallel
                        ? outElems * 4.0
                        : static_cast<double>(shard.extent()) * 32.0 * 4.0;
                perRank = std::max(perRank, bytes);
                total += bytes;
            }
            const CollectiveCost drainPace = collectiveDrainCost(
                prof.dram, prof.dramEnergy, prof.banksPerRank, perRank);
            const CollectiveCost drainAll = collectiveDrainCost(
                prof.dram, prof.dramEnergy, prof.banksPerRank, total);
            const double seconds =
                prof.link.launchLatencyUs * 1e-6 +
                std::max(drainPace.seconds,
                         total / (prof.link.pimToHostGBs * 1e9));
            const double joules =
                drainAll.joules + prof.pjPerLinkByte * total * 1e-12;

            EXPECT_DOUBLE_EQ(plan.collectiveBytes, total);
            EXPECT_DOUBLE_EQ(plan.collectiveSeconds, seconds);
            EXPECT_DOUBLE_EQ(plan.collectiveJoules, joules);
            if (strategy == ShardStrategy::RowParallel) {
                // Flat reduce: shards-1 partial-sum adds over the output.
                EXPECT_DOUBLE_EQ(
                    plan.hostReduceOps,
                    static_cast<double>(plan.shards.size() - 1) * outElems);
            }
        }
    }
}

struct GoldenWorkload {
    DesignPoint design;
    double prefillSeconds, prefillJoules; ///< BERT-base, batch 32, seq 128
    double decodeSeconds, decodeJoules;   ///< OPT-125M, batch 32, 8 steps
};

/** The fig10-class end-to-end numbers (upmem server, W4A4). */
const GoldenWorkload kGoldenWorkloads[] = {
    {DesignPoint::NaivePim, 4.427408201143e+00, 3.584439612492e+02,
     3.251803721143e-01, 2.388990306790e+01},
    {DesignPoint::LoCaLut, 2.857068156343e+00, 2.418699077307e+02,
     3.618707879645e-01, 2.532742443946e+01},
};

TEST(GoldenCosts, Fig10WorkloadsMatchFrozenValues)
{
    const PimSystemConfig sys = PimSystemConfig::upmemServer();
    for (const GoldenWorkload& g : kGoldenWorkloads) {
        SCOPED_TRACE(designPointName(g.design));
        const TransformerRunner runner(sys, QuantConfig::preset("W4A4"),
                                       g.design);
        const InferenceReport pre =
            runner.prefill(TransformerConfig::bertBase(), 32, 128);
        EXPECT_NEAR(pre.timing.total, g.prefillSeconds,
                    g.prefillSeconds * kRelTol);
        EXPECT_NEAR(pre.energy.total, g.prefillJoules,
                    g.prefillJoules * kRelTol);
        const InferenceReport dec =
            runner.decode(TransformerConfig::opt125m(), 32, 128, 8);
        EXPECT_NEAR(dec.timing.total, g.decodeSeconds,
                    g.decodeSeconds * kRelTol);
        EXPECT_NEAR(dec.energy.total, g.decodeJoules,
                    g.decodeJoules * kRelTol);
    }
}

TEST(GoldenCosts, ColdVsWarmFig10DecodeMatchesFrozenValues)
{
    // The fig10-class OPT-125M 32-step decode (upmem server, W4A4)
    // served through a residency-enabled session: the first run pays
    // the per-layer table broadcast (cold start), the second finds
    // every table set MRAM-resident (steady state).  Frozen by the
    // commit introducing the residency manager; the warm run must also
    // equal the residency-disabled model exactly.
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), on);
    const auto workload = session.compile(
        WorkloadSpec::decode(model, 32, 128, 32), cfg,
        DesignPoint::LoCaLut);
    const InferenceReport coldRun = session.run(workload);
    const InferenceReport warmRun = session.run(workload);

    constexpr double kColdSeconds = 1.453023049458e+00;
    constexpr double kColdBroadcastSeconds = 8.402560000000e-05;
    constexpr double kColdJoules = 1.017736444251e+02;
    constexpr double kWarmSeconds = 1.452939023858e+00;
    constexpr double kWarmJoules = 1.017735123483e+02;

    EXPECT_NEAR(coldRun.timing.total, kColdSeconds,
                kColdSeconds * kRelTol);
    EXPECT_NEAR(coldRun.lutBroadcastSeconds, kColdBroadcastSeconds,
                kColdBroadcastSeconds * kRelTol);
    EXPECT_NEAR(coldRun.energy.total, kColdJoules, kColdJoules * kRelTol);
    EXPECT_NEAR(warmRun.timing.total, kWarmSeconds,
                kWarmSeconds * kRelTol);
    EXPECT_NEAR(warmRun.energy.total, kWarmJoules, kWarmJoules * kRelTol);
    EXPECT_DOUBLE_EQ(warmRun.lutBroadcastSeconds, 0.0);
    EXPECT_LT(warmRun.timing.total, coldRun.timing.total);

    // Warm == the pre-residency model, bit for bit.
    InferenceSession plain(makeBackend("upmem"));
    const InferenceReport base = plain.run(plain.compile(
        WorkloadSpec::decode(model, 32, 128, 32), cfg,
        DesignPoint::LoCaLut));
    EXPECT_DOUBLE_EQ(warmRun.timing.total, base.timing.total);
    EXPECT_DOUBLE_EQ(warmRun.energy.total, base.energy.total);
}

TEST(GoldenCosts, ServingTelemetryQuantilesMatchFrozenBounds)
{
    // A deterministic single-submitter fig10-class trace: 24 OPT-125M
    // W4A4 decode-step requests arrive open-loop at 1.25x the service
    // rate (inter-arrival 0.8x service), so the queue builds steadily
    // and the latency distribution spreads — p50 strictly below p95.
    // The frozen values are LatencyHistogram *bucket bounds*, which
    // only move when a sample crosses a log-bucket edge; like every
    // golden here, regenerate them (and say so) if the cost model
    // intentionally changes.
    InferenceSession session(makeBackend("upmem"));
    RequestScheduler scheduler(session);
    const auto step = session.compile(
        WorkloadSpec::decode(TransformerConfig::opt125m(), 32, 128, 1),
        QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);
    const double service = session.projectCost(step).totalSeconds();

    std::vector<AdmissionDecision> decisions;
    for (int i = 0; i < 24; ++i) {
        ServingRequest request = ServingRequest::workloadRequest(
            step, DeadlineClass::Interactive,
            /*deadline=*/40.0 * service);
        request.arrivalSeconds = 0.8 * service * i;
        decisions.push_back(scheduler.submit(std::move(request)));
    }
    for (const AdmissionDecision& decision : decisions) {
        ASSERT_TRUE(decision.admitted());
        scheduler.wait(decision.id);
    }

    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    const LaneStats& lane =
        snap.lanes[static_cast<std::size_t>(DeadlineClass::Interactive)];
    EXPECT_EQ(lane.completed, 24u);
    EXPECT_EQ(lane.deadlineMissed, 0u);
    EXPECT_LT(lane.latency.p50(), lane.latency.p95());

    constexpr double kP50Bound = 1.584893192461e-01;
    constexpr double kP95Bound = 2.511886431510e-01;
    constexpr double kMeanSeconds = 1.491075976353e-01;
    EXPECT_NEAR(lane.latency.p50(), kP50Bound, kP50Bound * kRelTol);
    EXPECT_NEAR(lane.latency.p95(), kP95Bound, kP95Bound * kRelTol);
    EXPECT_NEAR(lane.latency.meanSeconds(), kMeanSeconds,
                kMeanSeconds * kRelTol);
}

} // namespace
} // namespace localut
