#include "backend/upmem_backend.h"

#include "kernels/exec_engine.h"

namespace localut {

UpmemBackend::UpmemBackend(const PimSystemConfig& config) : engine_(config)
{
    caps_.name = "upmem";
    caps_.description = "UPMEM-class server model (functional + timed)";
    caps_.functionalValues = true;
    caps_.honorsOverrides = true;
    caps_.parallelUnits = config.totalDpus();
    caps_.designPoints = {
        DesignPoint::NaivePim, DesignPoint::Ltc,  DesignPoint::OpLutDram,
        DesignPoint::OpLut,    DesignPoint::OpLc, DesignPoint::OpLcRc,
        DesignPoint::LoCaLut,
    };
    const PimSystemConfig& sys = engine_.system();
    fingerprint_ = FingerprintBuilder()
                       .add(std::uint64_t{sys.ranks})
                       .add(std::uint64_t{sys.dpusPerRank})
                       .add(sys.dpu.clockMhz)
                       .add(std::uint64_t{sys.dpu.tasklets})
                       .add(std::uint64_t{sys.dpu.fullIssueTasklets})
                       .add(sys.dpu.dmaBytesPerCycle)
                       .add(sys.dpu.dmaSetupCycles)
                       .add(std::uint64_t{sys.dpu.wramBytes})
                       .add(std::uint64_t{sys.dpu.mramBytes})
                       .add(sys.dpu.wramLutFraction)
                       .add(sys.dpu.mramLutFraction)
                       .add(sys.link.hostToPimGBs)
                       .add(sys.link.pimToHostGBs)
                       .add(sys.link.launchLatencyUs)
                       .add(sys.host.effectiveGops)
                       .value();
}

const BackendCapabilities&
UpmemBackend::capabilities() const
{
    return caps_;
}

GemmPlan
UpmemBackend::plan(const GemmProblem& problem, DesignPoint design,
                   const PlanOverrides& overrides) const
{
    return engine_.plan(problem, design, overrides);
}

KernelCost
UpmemBackend::chargeCosts(const GemmPlan& plan) const
{
    return engine_.chargeCosts(plan);
}

GemmResult
UpmemBackend::execute(const GemmProblem& problem, const GemmPlan& plan,
                      const ExecOptions& options) const
{
    return engine_.run(problem, plan, options);
}

CollectiveLinkProfile
UpmemBackend::collectiveProfile() const
{
    const PimSystemConfig& sys = engine_.system();
    CollectiveLinkProfile profile;
    profile.link = sys.link;
    profile.dram = DramTimingParams::upmemDdr4();
    profile.dramEnergy = DramEnergyParams::ddr4();
    profile.banksPerRank = sys.dpusPerRank;
    profile.pjPerLinkByte = sys.energy.pjPerLinkByte;
    return profile;
}

MemoryProfile
UpmemBackend::memoryProfile() const
{
    const PimSystemConfig& sys = engine_.system();
    MemoryProfile profile;
    profile.lutBytesPerUnit = sys.dpu.mramLutBudget();
    profile.unitsPerRank = sys.dpusPerRank;
    profile.broadcastGBs = sys.link.hostToPimGBs;
    profile.broadcastLatencyUs = sys.link.launchLatencyUs;
    profile.pjPerBroadcastByte = sys.energy.pjPerLinkByte;
    return profile;
}

void
UpmemBackend::chargeHostOps(double ops, TimingReport& timing,
                            EnergyReport& energy) const
{
    KernelCost cost;
    cost.addHostOps(Phase::HostOther, ops);
    const CostEvaluator eval(engine_.system());
    const TimingReport phase = eval.timing(cost, 1);
    accumulate(timing, phase);
    accumulate(energy, eval.energy(cost, 1, phase));
}

} // namespace localut
