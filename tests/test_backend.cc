/**
 * @file
 * Backend abstraction tests: the factory/registry, capability reporting,
 * and the cross-backend parity invariant — the functional output of a
 * LoCaLUT plan executed on the UPMEM backend must be bit-exact against
 * the host (reference-kernel) backend for integer configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "backend/bankpim_backend.h"
#include "backend/host_backend.h"
#include "backend/upmem_backend.h"
#include "kernels/gemm.h"
#include "nn/inference.h"

namespace localut {
namespace {

TEST(BackendRegistry, ListsBuiltinBackends)
{
    const auto names = backendNames();
    for (const char* expected :
         {"upmem", "bankpim", "host-cpu", "host-gpu", "upmem-sim"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing built-in backend " << expected;
    }
}

TEST(BackendRegistry, MakesNamedBackends)
{
    for (const std::string& name : backendNames()) {
        const BackendPtr backend = makeBackend(name);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
        EXPECT_FALSE(backend->capabilities().designPoints.empty());
    }
}

TEST(BackendRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeBackend("no-such-backend"), std::runtime_error);
}

TEST(BackendRegistry, CustomRegistrationIsVisible)
{
    registerBackend("upmem-tiny", [] {
        PimSystemConfig cfg = PimSystemConfig::upmemServer();
        cfg.ranks = 2;
        return std::make_shared<const UpmemBackend>(cfg);
    });
    const auto names = backendNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "upmem-tiny"),
              names.end());
    const BackendPtr backend = makeBackend("upmem-tiny");
    EXPECT_EQ(backend->capabilities().parallelUnits, 2u * 64u);
}

TEST(BackendCapabilities, ReflectDeviceModels)
{
    const BackendPtr upmem = makeBackend("upmem");
    EXPECT_TRUE(upmem->capabilities().functionalValues);
    EXPECT_TRUE(upmem->capabilities().honorsOverrides);
    EXPECT_TRUE(upmem->capabilities().supports(DesignPoint::LoCaLut));
    EXPECT_TRUE(upmem->capabilities().supports(DesignPoint::Ltc));

    const BackendPtr bankpim = makeBackend("bankpim");
    EXPECT_TRUE(bankpim->capabilities().supports(DesignPoint::NaivePim));
    EXPECT_TRUE(bankpim->capabilities().supports(DesignPoint::LoCaLut));
    EXPECT_FALSE(bankpim->capabilities().supports(DesignPoint::Ltc));
}

TEST(BackendParity, UpmemVsHostBitExactOnLocalut)
{
    const BackendPtr upmem = makeBackend("upmem");
    const BackendPtr host = makeBackend("host-cpu");
    for (const char* preset : {"W1A3", "W4A4"}) {
        const QuantConfig cfg = QuantConfig::preset(preset);
        const GemmProblem problem = makeRandomProblem(48, 96, 24, cfg, 3);
        const auto reference = referenceGemmInt(problem.w, problem.a);

        const GemmPlan upmemPlan =
            upmem->plan(problem, DesignPoint::LoCaLut);
        const GemmResult upmemResult = upmem->execute(problem, upmemPlan);
        const GemmResult hostResult =
            host->execute(problem, DesignPoint::LoCaLut);

        EXPECT_EQ(upmemResult.outInt, reference) << preset;
        EXPECT_EQ(hostResult.outInt, reference) << preset;
        EXPECT_EQ(upmemResult.outInt, hostResult.outInt) << preset;
    }
}

TEST(BackendParity, EveryDesignPointAgreesAcrossBackends)
{
    const QuantConfig cfg = QuantConfig::preset("W2A2");
    const GemmProblem problem = makeRandomProblem(32, 64, 16, cfg, 11);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    for (const char* name : {"upmem", "bankpim", "host-cpu"}) {
        const BackendPtr backend = makeBackend(name);
        for (DesignPoint dp : backend->capabilities().designPoints) {
            const GemmResult result = backend->execute(problem, dp);
            EXPECT_EQ(result.outInt, reference)
                << name << " / " << designPointName(dp);
        }
    }
}

TEST(BankPimBackend, TimingMatchesDirectModel)
{
    const BankPimConfig config;
    const BankPimBackend backend(config);
    const BankLevelPim direct(config);
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem problem = makeShapeOnlyProblem(768, 768, 128, cfg);

    const GemmResult viaBackend =
        backend.execute(problem, backend.plan(problem, DesignPoint::LoCaLut),
                        /*computeValues=*/false);
    const BankPimResult viaModel = direct.lutGemm(768, 768, 128, cfg);
    EXPECT_DOUBLE_EQ(viaBackend.timing.total, viaModel.seconds);
    EXPECT_DOUBLE_EQ(viaBackend.energy.total, viaModel.energyJ);
    EXPECT_GT(viaBackend.timing.total, 0.0);
}

TEST(BankPimBackend, RejectsUnsupportedDesignPoints)
{
    const BankPimBackend backend;
    const GemmProblem problem = makeShapeOnlyProblem(
        64, 64, 16, QuantConfig::preset("W1A3"));
    EXPECT_THROW(backend.plan(problem, DesignPoint::Ltc),
                 std::runtime_error);
}

TEST(HostBackend, TimingMatchesRoofline)
{
    const auto backend = HostBackend::gpu();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeShapeOnlyProblem(3072, 192, 128, cfg);

    const GemmResult result =
        backend->execute(problem, backend->plan(problem,
                                                DesignPoint::LoCaLut),
                         /*computeValues=*/false);
    const RooflineResult roofline = rooflineGemm(
        RooflineDevice::rtx2080Ti(), 3072, 192, 128, cfg.bw(), cfg.ba());
    EXPECT_DOUBLE_EQ(result.timing.total, roofline.seconds);
    EXPECT_DOUBLE_EQ(result.energy.total, roofline.energyJ);
    EXPECT_GT(result.timing.linkSeconds, 0.0); // GPU pays PCIe
}

TEST(Backend, PlanAndChargeCostsAreConsistentOnUpmem)
{
    const BackendPtr backend = makeBackend("upmem");
    const GemmProblem problem = makeShapeOnlyProblem(
        768, 768, 128, QuantConfig::preset("W1A3"));
    const GemmPlan plan = backend->plan(problem, DesignPoint::LoCaLut);
    const KernelCost cost = backend->chargeCosts(plan);
    const GemmResult result =
        backend->execute(problem, plan, /*computeValues=*/false);
    EXPECT_DOUBLE_EQ(result.cost.totalInstructions(),
                     cost.totalInstructions());
    EXPECT_DOUBLE_EQ(result.cost.totalLinkBytes(), cost.totalLinkBytes());
}

TEST(BackendFingerprint, BuiltinValuesArePinned)
{
    // Compiled workloads and PlanCache keys carry these; hashing once
    // at construction must give what hashing on every call gave.
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"upmem", 0x07ada2d9e23d8f16ull},
        {"bankpim", 0x0173b5db9a3daa40ull},
        {"host-cpu", 0xd02253184719d3c5ull},
        {"host-gpu", 0x2b82fee5ab2ffdbfull},
        {"upmem-sim", 0x98f1b6a56b41e9baull},
    };
    for (const auto& [name, value] : pinned) {
        EXPECT_EQ(makeBackend(name)->configFingerprint(), value) << name;
    }
}

// ------------------------------------------------------ host-op charges

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** The host-op charge through a one-phase KernelCost, with timing
 * evaluated once for the report and again for the static energy. */
void
kernelCostHostCharge(double ops, TimingReport& timing,
                     EnergyReport& energy)
{
    KernelCost cost;
    cost.addHostOps(Phase::HostOther, ops);
    const CostEvaluator eval(PimSystemConfig::upmemServer());
    accumulate(timing, eval.timing(cost, 1));
    accumulate(energy, eval.energy(cost, 1, eval.timing(cost, 1)));
}

void
expectSameItems(const Breakdown& got, const Breakdown& want)
{
    ASSERT_EQ(got.items().size(), want.items().size());
    for (std::size_t i = 0; i < got.items().size(); ++i) {
        EXPECT_EQ(got.items()[i].first, want.items()[i].first) << i;
        EXPECT_EQ(bits(got.items()[i].second), bits(want.items()[i].second))
            << got.items()[i].first;
    }
}

TEST(HostOpCharge, UpmemBackendsMatchTheKernelCostPathBitForBit)
{
    // A GEMM's reports plus an earlier host charge, as a workload's
    // GEMM share is before chargeWorkloadHostOps() adds its host ops.
    const BackendPtr upmem = makeBackend("upmem");
    const GemmResult gemm = upmem->execute(
        makeShapeOnlyProblem(768, 768, 8, QuantConfig::preset("W4A4")),
        DesignPoint::LoCaLut, /*computeValues=*/false);
    TimingReport filledTiming = gemm.timing;
    EnergyReport filledEnergy = gemm.energy;
    kernelCostHostCharge(7.0, filledTiming, filledEnergy);

    for (const char* name : {"upmem", "upmem-sim"}) {
        const BackendPtr backend = makeBackend(name);
        for (const double ops : {0.0, 1.0, 4096.5, 3.2e9}) {
            for (const bool filled : {false, true}) {
                TimingReport timing, wantTiming;
                EnergyReport energy, wantEnergy;
                if (filled) {
                    timing = wantTiming = filledTiming;
                    energy = wantEnergy = filledEnergy;
                }
                backend->chargeHostOps(ops, timing, energy);
                kernelCostHostCharge(ops, wantTiming, wantEnergy);
                SCOPED_TRACE(std::string(name) + " ops " +
                             std::to_string(ops) +
                             (filled ? " filled" : " empty"));
                EXPECT_EQ(bits(timing.dpuSeconds),
                          bits(wantTiming.dpuSeconds));
                EXPECT_EQ(bits(timing.hostSeconds),
                          bits(wantTiming.hostSeconds));
                EXPECT_EQ(bits(timing.linkSeconds),
                          bits(wantTiming.linkSeconds));
                EXPECT_EQ(bits(timing.total), bits(wantTiming.total));
                expectSameItems(timing.seconds, wantTiming.seconds);
                EXPECT_EQ(bits(energy.total), bits(wantEnergy.total));
                expectSameItems(energy.joules, wantEnergy.joules);
                if (ops == 0 && !filled) {
                    // No host work: no host.other item, and the static
                    // term is charged as an explicit zero.
                    EXPECT_TRUE(timing.seconds.items().empty());
                    ASSERT_EQ(energy.joules.items().size(), 1u);
                    EXPECT_EQ(energy.joules.items()[0].first, "static");
                    EXPECT_EQ(bits(energy.joules.items()[0].second),
                              bits(0.0));
                }
            }
        }
    }
}

} // namespace
} // namespace localut
