/**
 * @file
 * Cost-evaluator and utility-layer tests: phase classification, event
 * accounting, timing/energy properties (monotonicity, issue-rate and DMA
 * effects), report aggregation, and the common helpers (stats, table,
 * dense solver, RNG determinism).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/linalg.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "quant/quantizer.h"
#include "upmem/cost_model.h"

namespace localut {
namespace {

TEST(Phases, ClassificationIsPartition)
{
    for (unsigned i = 0; i < static_cast<unsigned>(Phase::kNumPhases); ++i) {
        const Phase p = static_cast<Phase>(i);
        EXPECT_FALSE(isHostPhase(p) && isLinkPhase(p)) << phaseName(p);
        EXPECT_NE(phaseName(p), nullptr);
    }
    EXPECT_TRUE(isHostPhase(Phase::HostQuantize));
    EXPECT_TRUE(isLinkPhase(Phase::LinkOut));
    EXPECT_FALSE(isHostPhase(Phase::CanonicalAccess));
    EXPECT_FALSE(isLinkPhase(Phase::CanonicalAccess));
}

TEST(KernelCost, AccumulatesAndMerges)
{
    KernelCost a;
    a.addInstr(Phase::IndexCalc, 100);
    a.addDma(Phase::LutLoadDma, 4096, 2);
    a.addHostOps(Phase::HostQuantize, 50);
    a.addLinkBytes(Phase::LinkActIn, 1024);

    KernelCost b;
    b.addInstr(Phase::IndexCalc, 20);
    b.addInstr(Phase::Accumulate, 30);
    a.merge(b);

    EXPECT_DOUBLE_EQ(a.phase(Phase::IndexCalc).instructions, 120);
    EXPECT_DOUBLE_EQ(a.totalInstructions(), 150);
    EXPECT_DOUBLE_EQ(a.totalDmaBytes(), 4096);
    EXPECT_DOUBLE_EQ(a.totalDmaTransfers(), 2);
    EXPECT_DOUBLE_EQ(a.totalLinkBytes(), 1024);
}

TEST(KernelCost, NegativeChargesPanic)
{
    KernelCost cost;
    EXPECT_ANY_THROW(cost.addInstr(Phase::Other, -1));
    EXPECT_ANY_THROW(cost.addDma(Phase::Other, -1, 0));
    EXPECT_ANY_THROW(cost.addHostOps(Phase::Other, -5));
    EXPECT_ANY_THROW(cost.addLinkBytes(Phase::Other, -2));
}

TEST(CostEvaluator, InstructionTimeScalesWithIssueRate)
{
    PimSystemConfig few = PimSystemConfig::upmemServer();
    few.dpu.tasklets = 4; // under-populated pipeline: issueRate 4/11
    const PimSystemConfig full = PimSystemConfig::upmemServer();

    KernelCost cost;
    cost.addInstr(Phase::MacCompute, 1e6);
    const double tFew = CostEvaluator(few).timing(cost, 1).total;
    const double tFull = CostEvaluator(full).timing(cost, 1).total;
    EXPECT_NEAR(tFew / tFull, 11.0 / 4.0, 1e-9);
}

// Pins the doc-vs-code derivation of DpuParams::dmaBytesPerCycle: the
// paper profiles L_D = 1.36 ns per streamed (canonical + reordering)
// entry pair of ~3 bytes ("0.5 B/cycle ... considering a three-stage
// pipelined access", Section VI-I), which at 350 MHz (2.857 ns/cycle)
// is an effective aggregate rate of 3 / 1.36 * 2.857 = 6.30 B/cycle.
// The adopted constant of 6.0 rounds that profiled figure; if either
// the constant or the clock drifts away from the derivation, this
// fails and params.h's comment must be reconciled with the code.
TEST(DpuParams, DmaRateMatchesPaperEntryPairDerivation)
{
    const DpuParams dpu;
    const double nsPerCycle = 1e3 / dpu.clockMhz;       // 2.857 at 350 MHz
    const double entryPairBytes = 3.0;                  // canonical+reorder
    const double nsPerEntryPair = 1.36;                 // paper's L_D
    const double derived = entryPairBytes / nsPerEntryPair * nsPerCycle;
    EXPECT_NEAR(derived, 6.30, 0.01);
    EXPECT_NEAR(dpu.dmaBytesPerCycle / derived, 1.0, 0.05);
}

TEST(CostEvaluator, DmaSetupChargedPerTransfer)
{
    const PimSystemConfig sys = PimSystemConfig::upmemServer();
    const CostEvaluator eval(sys);
    // Same bytes, more transfers -> strictly slower.
    EXPECT_LT(eval.dmaSeconds(65536, 1), eval.dmaSeconds(65536, 64));
    // Setup cost matches the parameter.
    const double delta = eval.dmaSeconds(0, 1);
    EXPECT_NEAR(delta,
                sys.dpu.cyclesToSeconds(sys.dpu.dmaSetupCycles), 1e-15);
}

TEST(CostEvaluator, TimingMonotonicInEveryEventKind)
{
    const CostEvaluator eval(PimSystemConfig::upmemServer());
    KernelCost base;
    base.addInstr(Phase::MacCompute, 1000);
    base.addDma(Phase::OperandDma, 1000, 1);
    base.addHostOps(Phase::HostQuantize, 1000);
    base.addLinkBytes(Phase::LinkActIn, 1000);
    const double t0 = eval.timing(base, 16).total;

    for (int kind = 0; kind < 4; ++kind) {
        KernelCost more = base;
        switch (kind) {
          case 0: more.addInstr(Phase::MacCompute, 5000); break;
          case 1: more.addDma(Phase::OperandDma, 5000, 2); break;
          case 2: more.addHostOps(Phase::HostQuantize, 5000); break;
          case 3: more.addLinkBytes(Phase::LinkActIn, 5000); break;
        }
        EXPECT_GT(eval.timing(more, 16).total, t0) << "kind " << kind;
        EXPECT_GT(eval.energy(more, 16, eval.timing(more, 16)).total,
                  eval.energy(base, 16, eval.timing(base, 16)).total)
            << "kind " << kind;
    }
}

TEST(CostEvaluator, EnergyScalesWithDpuCount)
{
    const CostEvaluator eval(PimSystemConfig::upmemServer());
    KernelCost cost;
    cost.addInstr(Phase::MacCompute, 1e6);
    const double e1 = eval.energy(cost, 1, eval.timing(cost, 1)).total;
    const double e64 = eval.energy(cost, 64, eval.timing(cost, 64)).total;
    // Per-DPU dynamic + static energy scales ~linearly with DPUs.
    EXPECT_NEAR(e64 / e1, 64.0, 1.0);
}

TEST(CostEvaluator, BreakdownSumsToTotal)
{
    const CostEvaluator eval(PimSystemConfig::upmemServer());
    KernelCost cost;
    cost.addInstr(Phase::IndexCalc, 1e5);
    cost.addInstr(Phase::CanonicalAccess, 2e4);
    cost.addDma(Phase::LutLoadDma, 1e5, 100);
    cost.addHostOps(Phase::HostPackSort, 3e4);
    cost.addLinkBytes(Phase::LinkOut, 4e4);
    const TimingReport t = eval.timing(cost, 8);
    EXPECT_NEAR(t.seconds.total(), t.total, 1e-15);
    EXPECT_NEAR(t.total, t.dpuSeconds + t.hostSeconds + t.linkSeconds,
                1e-15);
    const EnergyReport e = eval.energy(cost, 8, t);
    EXPECT_NEAR(e.joules.total(), e.total, 1e-15);
}

TEST(Reports, AccumulateScales)
{
    const CostEvaluator eval(PimSystemConfig::upmemServer());
    KernelCost cost;
    cost.addInstr(Phase::MacCompute, 1e5);
    cost.addLinkBytes(Phase::LinkOut, 1e5);
    const TimingReport part = eval.timing(cost, 4);

    TimingReport sum;
    accumulate(sum, part, 3.0);
    accumulate(sum, part, 1.0);
    EXPECT_NEAR(sum.total, 4.0 * part.total, 1e-12);
    EXPECT_NEAR(sum.seconds.total(), 4.0 * part.seconds.total(), 1e-12);
    EXPECT_NEAR(sum.dpuSeconds, 4.0 * part.dpuSeconds, 1e-12);
}

TEST(Stats, GeomeanAndBreakdown)
{
    const std::vector<double> v = {2.0, 8.0};
    EXPECT_DOUBLE_EQ(geomean(v), 4.0);
    EXPECT_DOUBLE_EQ(mean(v), 5.0);

    Breakdown b;
    b.add("x", 1.0);
    b.add("y", 3.0);
    b.add("x", 1.0);
    EXPECT_DOUBLE_EQ(b.get("x"), 2.0);
    EXPECT_DOUBLE_EQ(b.total(), 5.0);
    EXPECT_DOUBLE_EQ(b.fraction("y"), 0.6);
    b.scale(2.0);
    EXPECT_DOUBLE_EQ(b.total(), 10.0);
    // Insertion order preserved.
    EXPECT_EQ(b.items()[0].first, "x");
}

TEST(Table, RendersAlignedAndCsv)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string out = t.render();
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_EQ(t.renderCsv(), "a,bb\n1,2\n333,4\n");
    EXPECT_ANY_THROW(t.addRow({"only one"}));
}

TEST(Linalg, SolveSpdRoundTrip)
{
    // A = M^T M + I is SPD; check (A) X = B recovers X.
    Rng rng(3);
    const std::size_t n = 12, r = 3;
    std::vector<float> mtx(n * n);
    for (auto& v : mtx) {
        v = static_cast<float>(rng.nextGaussian());
    }
    std::vector<float> a(n * n, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0;
            for (std::size_t k = 0; k < n; ++k) {
                s += static_cast<double>(mtx[k * n + i]) * mtx[k * n + j];
            }
            a[i * n + j] = static_cast<float>(s) + (i == j ? 1.0f : 0.0f);
        }
    }
    std::vector<float> x(n * r);
    for (auto& v : x) {
        v = static_cast<float>(rng.nextGaussian());
    }
    const std::vector<float> b = matmul(a, x, n, n, r);
    const std::vector<float> solved = solveSpd(a, b, n, r, 0.0f);
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_NEAR(solved[i], x[i], 1e-3);
    }
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.nextU64(), b.nextU64());
    }
    EXPECT_NE(Rng(42).nextU64(), c.nextU64());
    // Gaussian moments sanity.
    Rng g(7);
    double sum = 0, sumSq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = g.nextGaussian();
        sum += v;
        sumSq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sumSq / n, 1.0, 0.05);
}

TEST(QuantizerClipped, ClipsOutliers)
{
    // One huge outlier: plain quantization wastes the range on it,
    // clipped quantization keeps resolution for the bulk.
    Rng rng(9);
    std::vector<float> data(1024);
    for (auto& v : data) {
        v = static_cast<float>(rng.nextGaussian());
    }
    data[0] = 100.0f;
    const ValueCodec codec = ValueCodec::twosComplement(4);
    const auto plain = Quantizer::quantize(data, 32, 32, codec);
    const auto clipped = Quantizer::quantizeClipped(
        data, 32, 32, codec, Quantizer::recommendedClipStds(4));
    EXPECT_LT(clipped.scale, plain.scale);

    auto mseOf = [&](const QuantizedMatrix& qm) {
        const auto back = Quantizer::dequantize(qm);
        double mse = 0;
        for (std::size_t i = 1; i < data.size(); ++i) { // skip the outlier
            mse += (back[i] - data[i]) * (back[i] - data[i]);
        }
        return mse;
    };
    EXPECT_LT(mseOf(clipped), mseOf(plain));
}

} // namespace
} // namespace localut
