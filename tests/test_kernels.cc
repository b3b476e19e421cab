/**
 * @file
 * The central integration property: every design point — naive MAC, LTC
 * bit-serial, OP, OP+LC, OP+LC+RC, and LoCaLUT with slice streaming — must
 * produce the bit-identical integer GEMM output, because LUT execution is
 * exact on quantized inputs.  Also checks cost-model sanity (nonzero
 * phases, speedup ordering).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/functional.h"
#include "kernels/gemm.h"

namespace localut {
namespace {

struct KernelParam {
    const char* preset;
    std::size_t m, k, n;
    std::uint64_t seed;
};

std::ostream&
operator<<(std::ostream& os, const KernelParam& p)
{
    return os << p.preset << "_" << p.m << "x" << p.k << "x" << p.n;
}

class AllDesignsAgree : public ::testing::TestWithParam<KernelParam>
{};

TEST_P(AllDesignsAgree, BitIdenticalOutputs)
{
    const auto& param = GetParam();
    const QuantConfig cfg = QuantConfig::preset(param.preset);
    const GemmProblem problem =
        makeRandomProblem(param.m, param.k, param.n, cfg, param.seed);
    const GemmEngine engine(PimSystemConfig::upmemServer());

    const auto reference = referenceGemmInt(problem.w, problem.a);
    for (DesignPoint dp :
         {DesignPoint::NaivePim, DesignPoint::Ltc, DesignPoint::OpLut,
          DesignPoint::OpLutDram, DesignPoint::OpLc, DesignPoint::OpLcRc,
          DesignPoint::LoCaLut}) {
        const GemmResult r = engine.run(problem, dp);
        ASSERT_EQ(r.outInt.size(), reference.size())
            << designPointName(dp);
        EXPECT_EQ(r.outInt, reference) << designPointName(dp);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllDesignsAgree,
    ::testing::Values(KernelParam{"W1A3", 16, 24, 8, 1},
                      KernelParam{"W1A3", 33, 47, 9, 2},  // non-divisible K
                      KernelParam{"W1A4", 12, 32, 16, 3},
                      KernelParam{"W2A2", 24, 40, 8, 4},
                      KernelParam{"W2A2", 7, 13, 5, 5},
                      KernelParam{"W4A4", 16, 24, 8, 6},
                      KernelParam{"W4A4", 9, 10, 3, 7},
                      KernelParam{"W1A2", 20, 30, 10, 8},
                      KernelParam{"W2A4", 11, 17, 6, 9},
                      KernelParam{"W1A8", 8, 12, 4, 10},
                      KernelParam{"W1A3", 1, 1, 1, 11},   // degenerate
                      KernelParam{"W1A3", 5, 3, 2, 12},   // K < default p
                      KernelParam{"W2A2", 64, 64, 1, 13}, // GEMV
                      KernelParam{"W4A4", 1, 40, 24, 14}, // single row
                      KernelParam{"W1A4", 48, 96, 2, 15}));

TEST(FunctionalModes, SliceStreamKInsensitive)
{
    // The k slice window changes scheduling, never values.
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeRandomProblem(9, 26, 7, cfg, 11);
    const auto ref = referenceGemmInt(problem.w, problem.a);
    for (unsigned k : {1u, 2u, 3u, 4u, 8u}) {
        EXPECT_EQ(functional::canonicalInt(
                      problem, 4, functional::ReorderMode::SliceStream, k),
                  ref)
            << "k=" << k;
    }
}

TEST(FunctionalModes, AllPackingDegreesAgree)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(10, 23, 6, cfg, 12);
    const auto ref = referenceGemmInt(problem.w, problem.a);
    for (unsigned p = 1; p <= 6; ++p) {
        EXPECT_EQ(functional::opInt(problem, p), ref) << "p=" << p;
        EXPECT_EQ(functional::canonicalInt(
                      problem, p, functional::ReorderMode::ReorderLut),
                  ref)
            << "p=" << p;
        EXPECT_EQ(functional::canonicalInt(
                      problem, p, functional::ReorderMode::Explicit),
                  ref)
            << "p=" << p;
    }
}

TEST(FloatKernels, CanonicalMatchesReferenceClosely)
{
    // FP4 activations, signed-binary weights (Fig. 21 configuration).
    const QuantConfig cfg = QuantConfig::fpPreset(1, 4);
    const GemmProblem problem = makeRandomProblem(8, 16, 4, cfg, 13);
    const auto ref = referenceGemmFloat(problem.w, problem.a);
    for (auto mode : {functional::ReorderMode::Explicit,
                      functional::ReorderMode::ReorderLut,
                      functional::ReorderMode::SliceStream}) {
        const auto out = functional::canonicalFloat(problem, 3, mode, 2);
        ASSERT_EQ(out.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i) {
            // fp16 entry rounding bounds the per-group error.
            EXPECT_NEAR(out[i], ref[i], 0.1f + 0.01f * std::fabs(ref[i]));
        }
    }
}

TEST(FloatKernels, VirtualOpLutMatchesMaterialized)
{
    // The Fig. 21b accuracy proxy computes its OP-LUT rows with
    // opFloatVirtual, so it must equal the materialized operation-packed
    // table bit for bit.  Tables above 2^20 entries (4 MiB of floats)
    // are skipped to keep the test fast: 14 of the 24 (config, p) pairs
    // run, every config at p = 1 and W1 x FP4 up to p = 4.  N = 64 gives
    // enough FP8 activation groups that some entries need the fp16
    // rounding of the stored table.
    const auto bits = [](const std::vector<float>& values) {
        std::vector<std::uint32_t> out;
        out.reserve(values.size());
        for (const float v : values) {
            out.push_back(std::bit_cast<std::uint32_t>(v));
        }
        return out;
    };
    for (unsigned bw : {1u, 2u, 4u}) {
        for (unsigned ba : {4u, 8u}) {
            const QuantConfig cfg = QuantConfig::fpPreset(bw, ba);
            for (unsigned p = 1; p <= 4; ++p) {
                if ((cfg.bw() + cfg.ba()) * p > 20) {
                    continue;
                }
                for (std::uint64_t seed : {1u, 7u, 13u}) {
                    const GemmProblem problem =
                        makeRandomProblem(16, 23, 64, cfg, seed);
                    EXPECT_EQ(bits(functional::opFloatVirtual(problem, p)),
                              bits(functional::opFloat(problem, p)))
                        << cfg.name() << " p=" << p << " seed=" << seed;
                }
            }
        }
    }
}

TEST(GemmEngine, PlanRespectsWramBudget)
{
    const PimSystemConfig sys = PimSystemConfig::upmemServer();
    const GemmEngine engine(sys);
    for (const char* preset : {"W1A3", "W1A4", "W2A2", "W4A4"}) {
        const QuantConfig cfg = QuantConfig::preset(preset);
        const GemmProblem problem = makeRandomProblem(64, 96, 16, cfg, 14);
        for (DesignPoint dp :
             {DesignPoint::OpLut, DesignPoint::OpLc, DesignPoint::OpLcRc,
              DesignPoint::LoCaLut}) {
            const GemmPlan plan = engine.plan(problem, dp);
            EXPECT_LE(plan.lutWramBytes, sys.dpu.wramLutBudget())
                << preset << " " << designPointName(dp);
            EXPECT_LE(plan.lutMramBytes, sys.dpu.mramLutBudget())
                << preset << " " << designPointName(dp);
            EXPECT_GE(plan.p, 1u);
        }
    }
}

TEST(GemmEngine, TimingIsPositiveAndDecomposed)
{
    const GemmEngine engine(PimSystemConfig::upmemServer());
    const GemmProblem problem =
        makeRandomProblem(64, 96, 16, QuantConfig::preset("W1A3"), 15);
    const GemmResult r =
        engine.run(problem, DesignPoint::LoCaLut, /*computeValues=*/false);
    EXPECT_GT(r.timing.total, 0.0);
    EXPECT_GT(r.timing.dpuSeconds, 0.0);
    EXPECT_GT(r.timing.linkSeconds, 0.0);
    EXPECT_GT(r.timing.hostSeconds, 0.0);
    EXPECT_NEAR(r.timing.seconds.total(), r.timing.total, 1e-12);
    EXPECT_GT(r.energy.total, 0.0);
}

TEST(GemmEngine, PaperShapeSpeedupOrdering)
{
    // On the paper's GEMM shapes, LoCaLUT must beat the naive PIM baseline
    // and the LTC baseline (Fig. 9's qualitative claim).
    const GemmEngine engine(PimSystemConfig::upmemServer());
    for (const char* preset : {"W1A3", "W1A4", "W2A2", "W4A4"}) {
        const QuantConfig cfg = QuantConfig::preset(preset);
        const GemmProblem problem =
            makeRandomProblem(768, 768, 128, cfg, 16);
        const double tNaive =
            engine.run(problem, DesignPoint::NaivePim, false).timing.total;
        const double tLtc =
            engine.run(problem, DesignPoint::Ltc, false).timing.total;
        const double tLocalut =
            engine.run(problem, DesignPoint::LoCaLut, false).timing.total;
        EXPECT_LT(tLocalut, tNaive) << preset;
        EXPECT_LT(tLocalut, tLtc) << preset;
    }
}

TEST(GemmEngine, ForcedGridOverride)
{
    const GemmEngine engine(PimSystemConfig::upmemServer());
    const GemmProblem problem =
        makeRandomProblem(64, 64, 32, QuantConfig::preset("W2A2"), 17);
    PlanOverrides ov;
    ov.gM = 4;
    ov.gN = 8;
    const GemmPlan plan = engine.plan(problem, DesignPoint::OpLcRc, ov);
    EXPECT_EQ(plan.gM, 4u);
    EXPECT_EQ(plan.gN, 8u);
    EXPECT_EQ(plan.tileM, 16u);
    EXPECT_EQ(plan.tileN, 4u);
    EXPECT_EQ(plan.dpusUsed(), 32u);
}

TEST(GemmEngine, ForcedKSlicesOverride)
{
    const GemmEngine engine(PimSystemConfig::upmemServer());
    const GemmProblem problem =
        makeRandomProblem(64, 64, 32, QuantConfig::preset("W1A3"), 18);
    for (unsigned k : {1u, 2u, 4u, 8u}) {
        PlanOverrides ov;
        ov.kSlices = k;
        const GemmPlan plan = engine.plan(problem, DesignPoint::LoCaLut, ov);
        EXPECT_EQ(plan.kSlices, k);
        EXPECT_TRUE(plan.streaming);
    }
}

} // namespace
} // namespace localut
