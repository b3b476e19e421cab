#include "backend/bankpim_backend.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/logging.h"
#include "kernels/exec_engine.h"

namespace localut {

BankPimBackend::BankPimBackend(const BankPimConfig& config) : model_(config)
{
    caps_.name = "bankpim";
    caps_.description = "bank-level PIM command model (HBM2 banks)";
    caps_.functionalValues = true;
    caps_.honorsOverrides = false; // packing is fixed by the LUT units
    caps_.parallelUnits = config.totalBanks();
    caps_.designPoints = {DesignPoint::NaivePim, DesignPoint::LoCaLut};
    const BankPimConfig& cfg = model_.config();
    fingerprint_ = FingerprintBuilder()
                       .add(std::uint64_t{cfg.channels})
                       .add(std::uint64_t{cfg.banksPerChannel})
                       .add(std::uint64_t{cfg.simdLanes})
                       .add(std::uint64_t{cfg.lutUnits})
                       .add(std::uint64_t{cfg.lutUnitBytes})
                       .add(cfg.lutUtilization)
                       .add(cfg.bankLutFraction)
                       .add(std::uint64_t{cfg.bankBytes})
                       .add(cfg.dram.tCkNs)
                       .add(std::uint64_t{cfg.dram.rowBytes})
                       .add(std::uint64_t{cfg.dram.burstBytes})
                       .value();
}

const BackendCapabilities&
BankPimBackend::capabilities() const
{
    return caps_;
}

GemmPlan
BankPimBackend::plan(const GemmProblem& problem, DesignPoint design,
                     const PlanOverrides& overrides) const
{
    (void)overrides;
    requireOperandShapes(problem);
    LOCALUT_REQUIRE(caps_.supports(design),
                    "bank-level PIM models only the SIMD baseline "
                    "(NaivePim) and the LUT redesign (LoCaLut), not ",
                    designPointName(design));
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();

    // Mirror the model's internal bank-grid partition (maximize usage).
    const unsigned banks = model_.config().totalBanks();
    plan.gN = static_cast<unsigned>(std::min<std::size_t>(plan.n, banks));
    plan.gM = static_cast<unsigned>(std::min<std::size_t>(
        plan.m, std::max<unsigned>(1, banks / plan.gN)));
    plan.tileM = static_cast<unsigned>(
        ceilDiv(plan.m, std::size_t{plan.gM}));
    plan.tileN = static_cast<unsigned>(
        ceilDiv(plan.n, std::size_t{plan.gN}));

    if (design == DesignPoint::LoCaLut) {
        plan.p = model_.choosePackingDegree(plan.config);
        LOCALUT_REQUIRE(plan.p >= 1,
                        "no packing degree fits the LUT units for ",
                        plan.config.name());
        plan.streaming = true; // slices stream from the bank array
    }
    plan.groups =
        static_cast<unsigned>(ceilDiv(plan.k, std::size_t{plan.p}));
    plan.predictedSeconds = modelRun(plan).seconds;
    return plan;
}

CollectiveLinkProfile
BankPimBackend::collectiveProfile() const
{
    const BankPimConfig& cfg = model_.config();
    CollectiveLinkProfile profile;
    profile.dram = cfg.dram;
    profile.dramEnergy = cfg.dramEnergy;
    profile.banksPerRank = cfg.banksPerChannel;
    return profile;
}

MemoryProfile
BankPimBackend::memoryProfile() const
{
    const BankPimConfig& cfg = model_.config();
    MemoryProfile profile;
    profile.lutBytesPerUnit = static_cast<std::uint64_t>(
        cfg.bankLutFraction * static_cast<double>(cfg.bankBytes));
    profile.unitsPerRank = cfg.banksPerChannel;
    // Tables broadcast over the same bulk host link the collective uses
    // (the bank-level study keeps the UPMEM-class host interface).
    const HostLinkParams link;
    profile.broadcastGBs = link.hostToPimGBs;
    profile.broadcastLatencyUs = link.launchLatencyUs;
    return profile;
}

BankPimResult
BankPimBackend::modelRun(const GemmPlan& plan) const
{
    if (plan.design == DesignPoint::NaivePim) {
        return model_.simdGemm(plan.m, plan.k, plan.n);
    }
    return model_.lutGemm(plan.m, plan.k, plan.n, plan.config);
}

KernelCost
BankPimBackend::chargeCosts(const GemmPlan& plan) const
{
    const BankPimResult r = modelRun(plan);
    // Command-level accounting: one "instruction" per column command on
    // the critical bank, with the streamed bytes as DMA traffic.  This
    // keeps breakdown tables meaningful even though the timing itself is
    // measured on the DRAM state machine, not derived from these counts.
    KernelCost cost;
    const Phase phase = plan.design == DesignPoint::NaivePim
                            ? Phase::MacCompute
                            : Phase::CanonicalAccess;
    cost.addInstr(phase, r.commands);
    cost.addDma(Phase::OperandDma,
                r.commands * model_.config().dram.burstBytes, r.commands);
    return cost;
}

GemmResult
BankPimBackend::execute(const GemmProblem& problem, const GemmPlan& plan,
                        const ExecOptions& options) const
{
    const BankPimResult r = modelRun(plan);

    GemmResult result;
    result.cost = chargeCosts(plan);
    result.timing.dpuSeconds = r.seconds;
    result.timing.total = r.seconds;
    result.timing.seconds.add(plan.design == DesignPoint::NaivePim
                                  ? "bank.simd_commands"
                                  : "bank.lut_commands",
                              r.seconds);
    result.energy.total = r.energyJ;
    result.energy.joules.add("bank.dynamic+background", r.energyJ);

    if (!options.computeValues) {
        return result;
    }
    // The bank model's LoCaLut plan carries streaming = true and the
    // model's packing degree, so the engine picks the slice-streaming
    // kernel exactly as the legacy functional executor did.
    LOCALUT_ASSERT(plan.design == DesignPoint::NaivePim || plan.p == r.p,
                   "bank-level plan packing degree diverged from model");
    const bool isInt = plan.config.weightCodec.isInteger() &&
                       plan.config.actCodec.isInteger();
    if (isInt) {
        executeGemmInt(problem, plan, options, result.outInt);
    } else {
        executeGemmFloat(problem, plan, options, result.outFloat);
    }
    return result;
}

} // namespace localut
