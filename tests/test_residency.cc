/**
 * @file
 * LUT residency manager tests: the fill -> evict -> re-broadcast cycle
 * against a tight MRAM budget, cold-vs-warm serving through the
 * InferenceSession (a repeated decode pays table broadcast once per
 * layer, not once per step), per-rank budget consumption under sharding,
 * and the differential invariant — residency changes costs, never
 * functional values, on every backend and rank count.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/backend.h"
#include "lut/capacity.h"
#include "nn/inference.h"
#include "serving/residency.h"
#include "serving/session.h"

namespace localut {
namespace {

/** A fabricated LoCaLUT plan with a forced packing degree, so table
 * sizes are exact and independent of the planner. */
GemmPlan
fabricatedPlan(const QuantConfig& cfg, unsigned p, std::size_t m = 768,
               std::size_t k = 768, std::size_t n = 32)
{
    GemmPlan plan(DesignPoint::LoCaLut, cfg);
    plan.p = p;
    plan.m = m;
    plan.k = k;
    plan.n = n;
    return plan;
}

TEST(TableSetBytes, FollowsTheCapacityModelPerDesign)
{
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const LutShape shape(cfg, 3);
    EXPECT_EQ(tableSetBytes(fabricatedPlan(cfg, 3)), localutBytes(shape));

    GemmPlan op(DesignPoint::OpLut, cfg);
    op.p = 3;
    EXPECT_EQ(tableSetBytes(op), opPackedLutBytes(shape));

    GemmPlan lc(DesignPoint::OpLc, cfg);
    lc.p = 3;
    EXPECT_EQ(tableSetBytes(lc), canonicalLutBytes(shape));

    // No host-built tables: nothing to place or broadcast.
    GemmPlan naive(DesignPoint::NaivePim, cfg);
    EXPECT_EQ(tableSetBytes(naive), 0u);
    GemmPlan ltc(DesignPoint::Ltc, cfg);
    EXPECT_EQ(tableSetBytes(ltc), 0u);
}

TEST(ResidencyManager, FillEvictRebroadcast)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const std::uint64_t setBytes = tableSetBytes(fabricatedPlan(cfg, 2));
    ASSERT_GT(setBytes, 0u);

    // Budget holds exactly two sets.
    ResidencyManager manager(backend, /*numRanks=*/1,
                             /*budgetBytesPerUnit=*/2 * setBytes);

    const GemmPlan plan = fabricatedPlan(cfg, 2);
    // Fill: A and B broadcast on first touch and then stay resident.
    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "a")).hit);
    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "b")).hit);
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "a")).hit);
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "b")).hit);
    EXPECT_EQ(manager.residentBytes(0), 2 * setBytes);

    // C does not fit; the lowest (rebroadcast cost x observed reuse)
    // resident set goes.  A and B share a rebroadcast cost, and A has
    // more observed uses, so B is the victim.
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "a")).hit);
    const ResidencyCharge cCharge =
        manager.acquire(resolveTableSet(plan, "c"));
    EXPECT_FALSE(cCharge.hit);
    EXPECT_GT(cCharge.seconds, 0.0);
    EXPECT_EQ(manager.residentBytes(0), 2 * setBytes);
    EXPECT_EQ(manager.stats().evictions, 1u);

    // B (the victim) re-broadcasts at the same charge; A survived.
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "a")).hit);
    const ResidencyCharge bAgain =
        manager.acquire(resolveTableSet(plan, "b"));
    EXPECT_FALSE(bAgain.hit);
    EXPECT_DOUBLE_EQ(bAgain.seconds, cCharge.seconds);
    EXPECT_EQ(manager.stats().rebroadcasts, 1u);

    const ResidencyStats stats = manager.stats();
    EXPECT_EQ(stats.misses, 4u); // a, b, c, b-again
    EXPECT_EQ(stats.hits, 4u);
    EXPECT_EQ(stats.tableSets, 2u);
    EXPECT_DOUBLE_EQ(stats.broadcastBytes,
                     4.0 * static_cast<double>(setBytes));
}

TEST(ResidencyManager, OversizedSetStreamsWithoutEvictingTheWorld)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const std::uint64_t setBytes = tableSetBytes(fabricatedPlan(cfg, 2));
    ResidencyManager manager(backend, 1, 2 * setBytes);

    const ResolvedTableSet small =
        resolveTableSet(fabricatedPlan(cfg, 2), "small");
    EXPECT_FALSE(manager.acquire(small).hit);
    // 100 layer instances of the same tables exceed the whole budget:
    // the set can never be resident, so every acquire pays the
    // broadcast — and the small resident set is left alone.
    for (int i = 0; i < 2; ++i) {
        const ResidencyCharge charge = manager.acquire(resolveTableSet(
            fabricatedPlan(cfg, 2), "huge", /*instances=*/100));
        EXPECT_FALSE(charge.hit);
        EXPECT_DOUBLE_EQ(charge.bytes,
                         100.0 * static_cast<double>(setBytes));
    }
    EXPECT_EQ(manager.stats().evictions, 0u);
    EXPECT_TRUE(manager.acquire(small).hit);
}

TEST(ResidencyManager, BudgetDefaultsToTheBackendMemoryProfile)
{
    const BackendPtr backend = makeBackend("upmem");
    ResidencyManager manager(backend, 1, 0);
    EXPECT_EQ(manager.budgetBytesPerUnit(),
              backend->memoryProfile().lutBytesPerUnit);
    EXPECT_GT(manager.budgetBytesPerUnit(), 0u);
}

TEST(ResidencyManager, ShardedTableSetsConsumePerRankBudgets)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(256, 256, 16, cfg);
    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(plan.shards.size(), 4u);

    ResidencyManager manager(backend, 4, 0);
    const ResolvedTableSet set = resolveTableSet(plan, "", 1.0, 4);
    const ResidencyCharge charge = manager.acquire(set);
    EXPECT_FALSE(charge.hit);
    double total = 0;
    for (unsigned r = 0; r < 4; ++r) {
        EXPECT_EQ(manager.residentBytes(r),
                  tableSetBytes(plan.shards[r].plan));
        total += static_cast<double>(manager.residentBytes(r));
    }
    EXPECT_DOUBLE_EQ(charge.bytes, total);
    EXPECT_TRUE(manager.acquire(set).hit);

    // A different shard cut of the same GEMM keys separately.
    ShardSpec two;
    two.numRanks = 2;
    const ShardPlan otherPlan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, two);
    EXPECT_FALSE(
        manager.acquire(resolveTableSet(otherPlan, "", 1.0, 4)).hit);
}

TEST(ResidencyManager, TableFreeAndSaturatedSetsPlaceNothing)
{
    // The resolver owns the rule for sets that place nothing: a design
    // without host-built tables, and a size past 64 bits (no such plan
    // is executable).  Acquiring one charges and counts nothing, and
    // the scheduler's query projects no broadcast for it.
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    GemmPlan saturated = fabricatedPlan(cfg, 8);
    saturated.design = DesignPoint::OpLut;
    ASSERT_TRUE(lutBytesSaturated(tableSetBytes(saturated)));
    GemmPlan naive = fabricatedPlan(cfg, 2);
    naive.design = DesignPoint::NaivePim;
    ShardSpec spec;
    spec.numRanks = 2;
    const ShardPlan naiveCut =
        makeShardPlan(*backend, makeShapeOnlyProblem(256, 256, 16, cfg),
                      DesignPoint::NaivePim, spec);

    ResidencyManager manager(backend, 2, 0);
    for (const ResolvedTableSet& set :
         {resolveTableSet(saturated), resolveTableSet(naive),
          resolveTableSet(naiveCut, "", 1.0, 2)}) {
        EXPECT_TRUE(set.empty());
        EXPECT_TRUE(manager.acquire(set, 1).hit);
        EXPECT_EQ(manager.coldBroadcastSeconds(set, 1), 0.0);
    }
    EXPECT_EQ(manager.stats().hits + manager.stats().misses, 0u);
    EXPECT_EQ(manager.residentBytes(1), 0u);
}

TEST(ResidencyManager, InstanceCountIsPartOfTheIdentity)
{
    // Two owner groups that agree on everything but the layer count are
    // different table sets: more layers = more bytes, more broadcast.
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    ResidencyManager manager(backend, 1, 0);
    const GemmPlan plan = fabricatedPlan(cfg, 2);
    const double setBytes =
        static_cast<double>(tableSetBytes(plan));

    const ResidencyCharge twelve =
        manager.acquire(resolveTableSet(plan, "qkv", 12));
    EXPECT_FALSE(twelve.hit);
    EXPECT_DOUBLE_EQ(twelve.bytes, 12.0 * setBytes);
    // A 24-layer sibling must NOT hit the 12-layer set for free.
    const ResidencyCharge twentyFour =
        manager.acquire(resolveTableSet(plan, "qkv", 24));
    EXPECT_FALSE(twentyFour.hit);
    EXPECT_DOUBLE_EQ(twentyFour.bytes, 24.0 * setBytes);
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "qkv", 12)).hit);
    EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "qkv", 24)).hit);
}

TEST(ResidencyManager, WrappedShardRanksAreBudgetCheckedAsAnAggregate)
{
    // A shard plan carrying more shards than the manager has ranks maps
    // several entries onto one rank; the budget check must see their
    // SUM, not admit each entry individually and overflow the ledger.
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(256, 256, 16, cfg);
    ShardSpec spec;
    spec.numRanks = 4;
    const ShardPlan plan =
        makeShardPlan(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(plan.shards.size(), 4u);
    const std::uint64_t sliceBytes = tableSetBytes(plan.shards[0].plan);

    // Budget fits two slices; all four wrap onto rank 0.
    const ResolvedTableSet set = resolveTableSet(plan, "", 1.0, 1);
    ASSERT_EQ(set.shardBytes.size(), 1u);
    ResidencyManager manager(backend, 1, 2 * sliceBytes);
    EXPECT_FALSE(manager.acquire(set).hit);
    EXPECT_FALSE(manager.acquire(set).hit); // never admitted: oversized
    EXPECT_LE(manager.residentBytes(0), manager.budgetBytesPerUnit());
    EXPECT_EQ(manager.stats().tableSets, 0u);

    // With room for all four aggregated slices it is admitted whole.
    ResidencyManager roomy(backend, 1, 4 * sliceBytes);
    EXPECT_FALSE(roomy.acquire(set).hit);
    EXPECT_TRUE(roomy.acquire(set).hit);
    EXPECT_EQ(roomy.residentBytes(0), 4 * sliceBytes);
}

TEST(ResidencyManager, ClearDropsResidencyButKeepsRebroadcastHistory)
{
    const BackendPtr backend = makeBackend("upmem");
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    ResidencyManager manager(backend, 1, 0);
    const GemmPlan plan = fabricatedPlan(cfg, 2);

    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "a")).hit);
    manager.clear();
    EXPECT_EQ(manager.residentBytes(0), 0u);
    EXPECT_EQ(manager.stats().tableSets, 0u);
    // The post-reset miss is a re-broadcast of a known set.
    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "a")).hit);
    EXPECT_EQ(manager.stats().rebroadcasts, 1u);
}

TEST(ResidencySession, RepeatedDecodePaysBroadcastOncePerLayer)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    SessionOptions off;
    InferenceSession cold(makeBackend("upmem"), off);
    const auto baseline = cold.run(cold.compile(
        WorkloadSpec::decode(model, 32, 128, 8), cfg,
        DesignPoint::LoCaLut));
    EXPECT_DOUBLE_EQ(baseline.lutBroadcastSeconds, 0.0);
    EXPECT_FALSE(baseline.coldStart());

    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), on);
    const auto workload = session.compile(
        WorkloadSpec::decode(model, 32, 128, 8), cfg,
        DesignPoint::LoCaLut);

    const InferenceReport first = session.run(workload);
    const InferenceReport second = session.run(workload);

    // Cold start pays one broadcast per (layer, projection) table set —
    // the decode loop itself does NOT multiply it by the step count.
    EXPECT_TRUE(first.coldStart());
    EXPECT_GT(first.lutBroadcastSeconds, 0.0);
    double expectedBytes = 0;
    for (const auto& node : workload.nodes) {
        expectedBytes += static_cast<double>(tableSetBytes(node.plan)) *
                         (node.gemm.count / 8.0 /*steps*/);
    }
    const ResidencyStats stats = session.residencyStats();
    EXPECT_EQ(stats.misses, workload.nodes.size());
    EXPECT_DOUBLE_EQ(stats.broadcastBytes, expectedBytes);

    // Steady state: tables are resident, nothing is transferred, and
    // the modeled time is exactly the residency-disabled time.
    EXPECT_FALSE(second.coldStart());
    EXPECT_DOUBLE_EQ(second.lutBroadcastSeconds, 0.0);
    EXPECT_LT(second.timing.total, first.timing.total);
    EXPECT_DOUBLE_EQ(second.timing.total, baseline.timing.total);
    EXPECT_DOUBLE_EQ(first.steadySeconds(), second.timing.total);
}

TEST(ResidencySession, Fig10PerStepDecodeColdStepStrictlyAboveSteady)
{
    // The acceptance shape: a fig10-class OPT 32-step decode, served one
    // step at a time.  Step 1 broadcasts every layer's tables; steps
    // 2..32 find them resident, so the steady-state per-step time is
    // strictly below the cold-start step time.
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend("upmem"), on);
    const auto step = session.compile(
        WorkloadSpec::decode(model, 32, 128, 1), cfg,
        DesignPoint::LoCaLut);

    std::vector<double> stepSeconds;
    for (unsigned s = 0; s < 32; ++s) {
        stepSeconds.push_back(session.run(step).timing.total);
    }
    for (unsigned s = 1; s < 32; ++s) {
        EXPECT_LT(stepSeconds[s], stepSeconds[0]) << "step " << s;
        EXPECT_DOUBLE_EQ(stepSeconds[s], stepSeconds[1]) << "step " << s;
    }
    // Exactly one broadcast per table set across the whole loop.
    const ResidencyStats stats = session.residencyStats();
    EXPECT_EQ(stats.misses, step.nodes.size());
    EXPECT_EQ(stats.hits, 31u * step.nodes.size());
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResidencySession, TinyBudgetThrashesButStaysExact)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    // Budget fits roughly one table set: alternating shapes contend.
    on.mramBudgetBytes = tableSetBytes(fabricatedPlan(cfg, 2)) + 1;
    InferenceSession session(makeBackend("upmem"), on);
    InferenceSession plain(makeBackend("upmem"));

    const GemmProblem a = makeRandomProblem(96, 96, 8, cfg, 7);
    const GemmProblem b = makeRandomProblem(192, 96, 8, cfg, 8);
    for (int round = 0; round < 3; ++round) {
        for (const GemmProblem& problem : {a, b}) {
            const GemmResult withRes = session.wait(session.submit(
                problem, DesignPoint::LoCaLut, /*computeValues=*/true));
            const GemmResult without = plain.wait(plain.submit(
                problem, DesignPoint::LoCaLut, /*computeValues=*/true));
            EXPECT_EQ(withRes.outInt, without.outInt);
            EXPECT_GE(withRes.timing.total, without.timing.total);
        }
    }
    // Whether the two sets thrash depends on their relative table
    // sizes; what must hold is that residency never exceeded the budget
    // and the counters stayed coherent.
    const ResidencyStats stats = session.residencyStats();
    EXPECT_EQ(stats.hits + stats.misses, 6u);
    EXPECT_LE(session.residency()->residentBytes(0),
              session.residency()->budgetBytesPerUnit());
}

TEST(ResidencySession, ReportColdStartPlusSteadyAccountsForTotal)
{
    // The InferenceReport accounting identity behind DESIGN.md Section
    // 3/4: the cold-start share (lutBroadcastSeconds, what coldStart()
    // flags) plus steadySeconds() is the end-to-end total, and the
    // classified shares (gemm + host + collective + broadcast) account
    // for the same total within float-summation tolerance.
    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    on.numRanks = 2;
    InferenceSession session(makeBackend("upmem"), on);
    const auto workload = session.compile(
        WorkloadSpec::decode(TransformerConfig::opt125m(), 32, 128, 4),
        QuantConfig::preset("W4A4"), DesignPoint::LoCaLut);

    const InferenceReport cold = session.run(workload);
    ASSERT_TRUE(cold.coldStart());
    EXPECT_GT(cold.collectiveSeconds, 0.0);
    EXPECT_NEAR(cold.lutBroadcastSeconds + cold.steadySeconds(),
                cold.timing.total, cold.timing.total * 1e-12);
    EXPECT_NEAR(cold.gemmSeconds + cold.hostOpSeconds +
                    cold.collectiveSeconds + cold.lutBroadcastSeconds,
                cold.timing.total, cold.timing.total * 1e-9);

    const InferenceReport warm = session.run(workload);
    EXPECT_FALSE(warm.coldStart());
    EXPECT_DOUBLE_EQ(warm.steadySeconds(), warm.timing.total);
    EXPECT_DOUBLE_EQ(warm.steadySeconds(), cold.steadySeconds());
}

TEST(ResidencySession, SubmitAcquiresTablesBeforeWait)
{
    // The residency manager is current as soon as submit() returns: the
    // table sets are acquired on the submitting thread, not when a
    // worker gets round to executing the request.
    SessionOptions on;
    on.residencyPolicy = ResidencyPolicy::CostAware;
    on.workers = 4;
    InferenceSession session(makeBackend("upmem"), on);
    const GemmProblem problem = makeRandomProblem(
        768, 768, 8, QuantConfig::preset("W4A4"), 21);
    const GemmPlan plan = session.plan(problem, DesignPoint::LoCaLut);
    const TableSetKey key = resolveTableSet(plan).keyOn(0);
    ASSERT_FALSE(session.residency()->isResident(key));

    const auto id = session.submit(problem, DesignPoint::LoCaLut);
    EXPECT_TRUE(session.residency()->isResident(key));
    EXPECT_EQ(session.residencyStats().misses, 1u);
    EXPECT_GT(session.wait(id).timing.seconds.get("link.lut_broadcast"),
              0.0);
}

TEST(ResidencyManager, PerRankHomePlacementAndConstQueries)
{
    // Data-parallel replicas: the same plan acquired on two home ranks
    // occupies two distinct table sets, each against its own rank's
    // ledger; isResident() and coldBroadcastSeconds() answer without
    // charging or counting a use.
    const BackendPtr backend = makeBackend("upmem");
    const GemmProblem problem = makeShapeOnlyProblem(
        768, 768, 8, QuantConfig::preset("W4A4"));
    const GemmPlan plan = backend->plan(problem, DesignPoint::LoCaLut);
    ASSERT_GT(tableSetBytes(plan), 0u);

    ResidencyManager manager(backend, /*numRanks=*/2,
                             /*budgetBytesPerUnit=*/0);
    const ResolvedTableSet set = resolveTableSet(plan);
    const TableSetKey rank0 = set.keyOn(0);
    const TableSetKey rank1 = set.keyOn(1);
    EXPECT_FALSE(manager.isResident(rank0));
    const double cold = manager.broadcastSeconds(tableSetBytes(plan));
    EXPECT_DOUBLE_EQ(manager.coldBroadcastSeconds(set, 0), cold);

    const ResidencyCharge first = manager.acquire(set, 0);
    EXPECT_FALSE(first.hit);
    EXPECT_DOUBLE_EQ(first.seconds, cold);
    EXPECT_TRUE(manager.isResident(rank0));
    EXPECT_FALSE(manager.isResident(rank1));
    EXPECT_EQ(manager.coldBroadcastSeconds(set, 0), 0.0);
    EXPECT_DOUBLE_EQ(manager.coldBroadcastSeconds(set, 1), cold);
    EXPECT_EQ(manager.residentBytes(0), tableSetBytes(plan));
    EXPECT_EQ(manager.residentBytes(1), 0u);

    // Same plan, other rank: a distinct set, a second broadcast.
    const ResidencyCharge second = manager.acquire(set, 1);
    EXPECT_FALSE(second.hit);
    EXPECT_DOUBLE_EQ(second.seconds, cold);
    EXPECT_TRUE(manager.isResident(rank1));
    EXPECT_EQ(manager.residentBytes(1), tableSetBytes(plan));

    // Warm on both home ranks now.
    EXPECT_TRUE(manager.acquire(set, 0).hit);
    EXPECT_TRUE(manager.acquire(set, 1).hit);
    EXPECT_EQ(manager.coldBroadcastSeconds(set, 1), 0.0);
    EXPECT_EQ(manager.stats().hits, 2u);
    EXPECT_EQ(manager.stats().misses, 2u);
}

TEST(ResidencyDifferential, CostsChangeValuesNeverDo)
{
    // The differential invariant across backends and rank counts:
    // enabling residency must not change a single output bit, and a
    // warm request costs exactly the disabled-model time.
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeRandomProblem(96, 128, 16, cfg, 11);

    for (const char* backendName : {"upmem", "bankpim", "host-cpu"}) {
        for (unsigned ranks : {1u, 2u, 4u}) {
            SCOPED_TRACE(std::string(backendName) + " ranks=" +
                         std::to_string(ranks));
            SessionOptions off;
            off.numRanks = ranks;
            SessionOptions on = off;
            on.residencyPolicy = ResidencyPolicy::CostAware;

            InferenceSession plain(makeBackend(backendName), off);
            InferenceSession managed(makeBackend(backendName), on);

            const GemmResult base = plain.wait(plain.submit(
                problem, DesignPoint::LoCaLut, /*computeValues=*/true));
            const GemmResult coldRun = managed.wait(managed.submit(
                problem, DesignPoint::LoCaLut, /*computeValues=*/true));
            const GemmResult warmRun = managed.wait(managed.submit(
                problem, DesignPoint::LoCaLut, /*computeValues=*/true));

            EXPECT_EQ(coldRun.outInt, base.outInt);
            EXPECT_EQ(warmRun.outInt, base.outInt);
            // Cold adds the broadcast on top of the disabled model...
            EXPECT_GT(coldRun.timing.total, base.timing.total);
            EXPECT_GT(coldRun.cost.phase(Phase::LutBroadcast).linkBytes,
                      0.0);
            // ...and warm is the disabled model exactly.
            EXPECT_DOUBLE_EQ(warmRun.timing.total, base.timing.total);
            EXPECT_DOUBLE_EQ(warmRun.energy.total, base.energy.total);
        }
    }
}

TEST(ResidencyDifferential, WorkloadsMatchDisabledOnEveryBackend)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    for (const char* backendName : {"upmem", "bankpim", "host-cpu"}) {
        for (unsigned ranks : {1u, 4u}) {
            SCOPED_TRACE(std::string(backendName) + " ranks=" +
                         std::to_string(ranks));
            SessionOptions off;
            off.numRanks = ranks;
            SessionOptions on = off;
            on.residencyPolicy = ResidencyPolicy::CostAware;

            InferenceSession plain(makeBackend(backendName), off);
            InferenceSession managed(makeBackend(backendName), on);
            const auto spec = WorkloadSpec::decode(model, 8, 32, 2);
            const auto base =
                plain.run(plain.compile(spec, cfg, DesignPoint::LoCaLut));
            const auto workload =
                managed.compile(spec, cfg, DesignPoint::LoCaLut);
            const auto coldRep = managed.run(workload);
            const auto warmRep = managed.run(workload);

            EXPECT_GT(coldRep.lutBroadcastSeconds, 0.0);
            EXPECT_DOUBLE_EQ(coldRep.steadySeconds(), base.timing.total);
            EXPECT_DOUBLE_EQ(warmRep.timing.total, base.timing.total);
            EXPECT_DOUBLE_EQ(warmRep.lutBroadcastSeconds, 0.0);
        }
    }
}

// --------------------------------------------------------------- KV class

/** KV tests run on host-cpu: unitsPerRank == 1, so the per-unit KV
 * footprint equals the raw byte count and the arithmetic is exact. */
BackendPtr
kvBackend()
{
    return makeBackend("host-cpu");
}

TEST(ResidencyKv, GrowAppendHitAndRelease)
{
    const BackendPtr backend = kvBackend();
    ResidencyManager manager(backend, 1, /*budget=*/1 << 20);

    // First touch moves the whole prompt context.
    const KvCharge prompt = manager.acquireKv(
        /*stream=*/1, /*rank=*/0, /*layers=*/2,
        /*bytesPerTokenPerLayer=*/100, /*contextTokens=*/8);
    EXPECT_FALSE(prompt.shed);
    EXPECT_FALSE(prompt.refill);
    EXPECT_FALSE(prompt.hit());
    EXPECT_DOUBLE_EQ(prompt.appendBytes, 2.0 * 100 * 8);
    EXPECT_DOUBLE_EQ(prompt.appendSeconds,
                     manager.broadcastSeconds(2 * 100 * 8));
    EXPECT_TRUE(manager.kvResident({1, 0}));
    EXPECT_TRUE(manager.kvResident({1, 1}));
    EXPECT_FALSE(manager.kvResident({1, 2})); // beyond layer count
    EXPECT_FALSE(manager.kvResident({2, 0})); // unknown stream
    EXPECT_EQ(manager.kvBytes(0), 2u * 100 * 8);
    EXPECT_EQ(manager.lutBytes(0), 0u);
    EXPECT_EQ(manager.residentBytes(0), 2u * 100 * 8);

    // One decode step appends exactly one token across the layers.
    const KvCharge step = manager.acquireKv(1, 0, 2, 100, 9);
    EXPECT_DOUBLE_EQ(step.appendBytes, 2.0 * 100);
    EXPECT_EQ(manager.kvBytes(0), 2u * 100 * 9);

    // Re-touching the same context moves nothing.
    EXPECT_TRUE(manager.acquireKv(1, 0, 2, 100, 9).hit());

    const ResidencyStats stats = manager.stats();
    EXPECT_EQ(stats.kvStreams, 1u);
    EXPECT_EQ(stats.kvResidentBytes, 2u * 100 * 9);
    EXPECT_DOUBLE_EQ(stats.kvMovedBytes, 2.0 * 100 * 9);
    EXPECT_EQ(stats.kvSpills, 0u);
    EXPECT_EQ(stats.kvSheds, 0u);

    manager.releaseKv(1);
    EXPECT_FALSE(manager.kvResident({1, 0}));
    EXPECT_EQ(manager.kvBytes(0), 0u);
    EXPECT_EQ(manager.stats().kvStreams, 0u);
    EXPECT_EQ(manager.stats().kvResidentBytes, 0u);
}

TEST(ResidencyKv, CrossClassEvictionPicksTheCheaperClass)
{
    // One LUT set (bytes S, one use) and one KV stream (raw 2S) share a
    // 4S budget; an incoming 2S KV stream needs room.  CostAware scores:
    // LUT = broadcastSeconds(S) * 1 use, KV = 2 * broadcastSeconds(2S)
    // (spill + refill round trip), so the LUT set is strictly cheaper
    // to sacrifice and must be the victim.
    const BackendPtr backend = kvBackend();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmPlan plan = fabricatedPlan(cfg, 2);
    const std::uint64_t S = tableSetBytes(plan);
    ASSERT_GT(S, 0u);
    ResidencyManager manager(backend, 1, 4 * S);

    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "a")).hit);
    EXPECT_FALSE(manager.acquireKv(1, 0, 1, S, 2).shed);
    EXPECT_EQ(manager.residentBytes(0), 3 * S);

    const KvCharge incoming = manager.acquireKv(2, 0, 1, S, 2);
    EXPECT_FALSE(incoming.shed);
    EXPECT_DOUBLE_EQ(incoming.spillBytes, 0.0); // the LUT class paid
    EXPECT_FALSE(manager.isResident(resolveTableSet(plan, "a").keyOn(0)));
    EXPECT_TRUE(manager.kvResident({1, 0}));
    EXPECT_TRUE(manager.kvResident({2, 0}));
    EXPECT_EQ(manager.stats().evictions, 1u);
    EXPECT_EQ(manager.stats().kvSpills, 0u);
    EXPECT_EQ(manager.lutBytes(0), 0u);
    EXPECT_EQ(manager.kvBytes(0), 4 * S);
    EXPECT_LE(manager.residentBytes(0), manager.budgetBytesPerUnit());
}

TEST(ResidencyKv, HotLutSetDeflectsEvictionOntoKvAndSpilledStreamRefills)
{
    // Same geometry, but the LUT set is acquired 5 times: its score
    // 5 * broadcastSeconds(S) exceeds the KV round trip
    // 2 * broadcastSeconds(2S) <= 4 * broadcastSeconds(S) for every
    // latency/bandwidth profile, so the cold KV stream is spilled — and
    // its next acquire pays a whole-context refill.
    const BackendPtr backend = kvBackend();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmPlan plan = fabricatedPlan(cfg, 2);
    const std::uint64_t S = tableSetBytes(plan);
    ResidencyManager manager(backend, 1, 4 * S);

    EXPECT_FALSE(manager.acquire(resolveTableSet(plan, "a")).hit);
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(manager.acquire(resolveTableSet(plan, "a")).hit);
    }
    EXPECT_FALSE(manager.acquireKv(1, 0, 1, S, 2).shed);

    // Stream 2 arrives: stream 1 (not the acquirer, colder than "a") is
    // spilled, and the writeback is charged to stream 2's access.
    const KvCharge second = manager.acquireKv(2, 0, 1, S, 2);
    EXPECT_FALSE(second.shed);
    EXPECT_DOUBLE_EQ(second.spillBytes, 2.0 * static_cast<double>(S));
    EXPECT_DOUBLE_EQ(second.spillSeconds,
                     manager.broadcastSeconds(2 * S));
    EXPECT_TRUE(manager.isResident(resolveTableSet(plan, "a").keyOn(0)));
    EXPECT_FALSE(manager.kvResident({1, 0}));
    EXPECT_EQ(manager.stats().kvSpills, 1u);
    EXPECT_EQ(manager.stats().evictions, 0u);

    // Stream 1 returns: stream 2 is now the cold one and swaps out,
    // while stream 1 refills its whole spilled context (plus one new
    // token) host -> PIM.
    const KvCharge refill = manager.acquireKv(1, 0, 1, S, 3);
    EXPECT_FALSE(refill.shed);
    EXPECT_TRUE(refill.refill);
    EXPECT_DOUBLE_EQ(refill.appendBytes, 3.0 * static_cast<double>(S));
    EXPECT_DOUBLE_EQ(refill.spillBytes, 2.0 * static_cast<double>(S));
    EXPECT_EQ(manager.stats().kvRefills, 1u);
    EXPECT_EQ(manager.stats().kvSpills, 2u);
    EXPECT_EQ(manager.kvBytes(0), 3 * S);
    EXPECT_EQ(manager.lutBytes(0), S);
    EXPECT_LE(manager.residentBytes(0), manager.budgetBytesPerUnit());
}

TEST(ResidencyKv, OversizedStreamIsShedAndReleased)
{
    const BackendPtr backend = kvBackend();
    ResidencyManager manager(backend, 1, /*budget=*/1000);

    // Never fits: shed on first touch, nothing left behind.
    const KvCharge huge = manager.acquireKv(1, 0, 2, 100, 6); // 1200 raw
    EXPECT_TRUE(huge.shed);
    EXPECT_FALSE(manager.kvResident({1, 0}));
    EXPECT_EQ(manager.stats().kvSheds, 1u);
    EXPECT_EQ(manager.kvBytes(0), 0u);

    // Fits at first, outgrows the rank later: shed mid-stream, and the
    // previously resident bytes are returned to the ledger.
    EXPECT_FALSE(manager.acquireKv(2, 0, 2, 100, 4).shed); // 800 raw
    EXPECT_EQ(manager.stats().kvStreams, 1u);
    const KvCharge outgrown = manager.acquireKv(2, 0, 2, 100, 6);
    EXPECT_TRUE(outgrown.shed);
    EXPECT_EQ(manager.stats().kvSheds, 2u);
    EXPECT_EQ(manager.stats().kvStreams, 0u);
    EXPECT_EQ(manager.stats().kvResidentBytes, 0u);
    EXPECT_EQ(manager.kvBytes(0), 0u);
}

TEST(ResidencyKv, LutAcquirerPaysForTheKvItSpills)
{
    // The symmetric arbitration direction: an incoming LUT set evicts a
    // cold KV stream, and the spill writeback lands on the *LUT*
    // acquirer's charge (kvSpillBytes/Seconds), flowing into its
    // Phase::LinkOut when applied to a report.
    const BackendPtr backend = kvBackend();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmPlan plan = fabricatedPlan(cfg, 2);
    const std::uint64_t S = tableSetBytes(plan);
    ResidencyManager manager(backend, 1, 2 * S);

    EXPECT_FALSE(manager.acquireKv(1, 0, 1, S, 2).shed); // fills 2S
    const ResidencyCharge lut = manager.acquire(resolveTableSet(plan, "a"));
    EXPECT_FALSE(lut.hit);
    EXPECT_DOUBLE_EQ(lut.kvSpillBytes, 2.0 * static_cast<double>(S));
    EXPECT_DOUBLE_EQ(lut.kvSpillSeconds, manager.broadcastSeconds(2 * S));
    EXPECT_GT(lut.kvSpillJoules, 0.0);
    EXPECT_FALSE(manager.kvResident({1, 0}));
    EXPECT_EQ(manager.stats().kvSpills, 1u);
    EXPECT_EQ(manager.lutBytes(0), S);
    EXPECT_EQ(manager.kvBytes(0), 0u);

    TimingReport timing;
    EnergyReport energy;
    lut.apply(timing, energy);
    EXPECT_DOUBLE_EQ(timing.seconds.get(phaseName(Phase::LinkOut)),
                     lut.kvSpillSeconds);
    EXPECT_DOUBLE_EQ(timing.seconds.get(phaseName(Phase::LutBroadcast)),
                     lut.seconds);
}

} // namespace
} // namespace localut
