#include "backend/host_backend.h"

#include <utility>

#include "common/bitops.h"
#include "common/logging.h"
#include "kernels/exec_engine.h"

namespace localut {

HostBackend::HostBackend(std::string name, const RooflineDevice& device,
                         const HostComputeParams& hostOps)
    : device_(device), hostOps_(hostOps)
{
    caps_.name = std::move(name);
    caps_.description = device_.name + " roofline + reference kernels";
    caps_.functionalValues = true;
    caps_.honorsOverrides = false; // no LUT placement to override
    caps_.referenceFunctionalOnly = true; // reference MAC, no LUT operands
    caps_.parallelUnits = 1;
    caps_.designPoints = {
        DesignPoint::NaivePim, DesignPoint::Ltc,  DesignPoint::OpLutDram,
        DesignPoint::OpLut,    DesignPoint::OpLc, DesignPoint::OpLcRc,
        DesignPoint::LoCaLut,
    };
    fingerprint_ = FingerprintBuilder()
                       .add(device_.name)
                       .add(device_.peakOpsPerSec)
                       .add(device_.memBytesPerSec)
                       .add(device_.efficiency)
                       .add(device_.unpackOpsPerMac)
                       .add(device_.pcieBytesPerSec)
                       .add(std::uint64_t{device_.skinnyKThreshold})
                       .add(device_.skinnyKFactor)
                       .add(hostOps_.effectiveGops)
                       .value();
}

std::shared_ptr<HostBackend>
HostBackend::cpu()
{
    return std::make_shared<HostBackend>("host-cpu",
                                         RooflineDevice::xeonGold5215());
}

std::shared_ptr<HostBackend>
HostBackend::gpu()
{
    return std::make_shared<HostBackend>("host-gpu",
                                         RooflineDevice::rtx2080Ti());
}

const BackendCapabilities&
HostBackend::capabilities() const
{
    return caps_;
}

GemmPlan
HostBackend::plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides) const
{
    (void)overrides; // a roofline device has no packing/placement choices
    requireOperandShapes(problem);
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();
    plan.tileM = static_cast<unsigned>(plan.m);
    plan.tileN = static_cast<unsigned>(plan.n);
    plan.predictedSeconds =
        rooflineGemm(device_, plan.m, plan.k, plan.n,
                     plan.config.bw(), plan.config.ba())
            .seconds;
    return plan;
}

KernelCost
HostBackend::chargeCosts(const GemmPlan& plan) const
{
    const double macs =
        static_cast<double>(plan.m) * plan.k * plan.n;
    const double opsPerMac =
        1.0 + (plan.config.bw() < 8 || plan.config.ba() < 8
                   ? device_.unpackOpsPerMac
                   : 0.0);
    KernelCost cost;
    cost.addHostOps(Phase::HostOther, macs * opsPerMac);
    if (device_.pcieBytesPerSec > 0) {
        cost.addLinkBytes(
            Phase::LinkActIn,
            static_cast<double>(bytesForBits(
                static_cast<std::uint64_t>(plan.k) * plan.n *
                plan.config.ba())));
        cost.addLinkBytes(Phase::LinkOut,
                          static_cast<double>(plan.m) * plan.n * 4.0);
    }
    return cost;
}

GemmResult
HostBackend::execute(const GemmProblem& problem, const GemmPlan& plan,
                     const ExecOptions& options) const
{
    const RooflineResult r =
        rooflineGemm(device_, plan.m, plan.k, plan.n, plan.config.bw(),
                     plan.config.ba());

    GemmResult result;
    result.cost = chargeCosts(plan);
    result.timing.hostSeconds = std::max(r.computeSeconds, r.memorySeconds);
    result.timing.linkSeconds = r.transferSeconds;
    result.timing.total = r.seconds;
    result.timing.seconds.add("host.compute", r.computeSeconds);
    result.timing.seconds.add("host.memory", r.memorySeconds);
    if (r.transferSeconds > 0) {
        result.timing.seconds.add("link.pcie", r.transferSeconds);
    }
    result.energy.total = r.energyJ;
    result.energy.joules.add("host." + device_.name, r.energyJ);

    if (!options.computeValues) {
        return result;
    }
    // Host devices always execute the reference MAC whatever the design
    // point: a NaivePim plan of the same shape on the engine (decode
    // codebooks prepared per call, tiled execution), bit-exact vs
    // referenceGemmInt().  A caller's prepared operand was built for
    // the requested design point and does not fit that plan.
    GemmPlan naive(DesignPoint::NaivePim, problem.config());
    naive.m = problem.m();
    naive.k = problem.k();
    naive.n = problem.n();
    ExecOptions naiveOptions = options;
    naiveOptions.prepared = nullptr;
    if (plan.config.weightCodec.isInteger() &&
        plan.config.actCodec.isInteger()) {
        executeGemmInt(problem, naive, naiveOptions, result.outInt);
    } else {
        executeGemmFloat(problem, naive, naiveOptions, result.outFloat);
    }
    return result;
}

void
HostBackend::chargeHostOps(double ops, TimingReport& timing,
                           EnergyReport& energy) const
{
    chargeHostOpsWith(hostOps_, ops, timing, energy);
}

CollectiveLinkProfile
HostBackend::collectiveProfile() const
{
    CollectiveLinkProfile profile;
    // Shards gather over the device's own link (PCIe) when it has one;
    // host-resident devices gather at memory bandwidth with a cheap
    // launch.  The DRAM drain bound of the default profile is far above
    // either, so the link is what paces these devices' collectives.
    const bool hasPcie = device_.pcieBytesPerSec > 0;
    const double bytesPerSec =
        hasPcie ? device_.pcieBytesPerSec : device_.memBytesPerSec;
    profile.link.hostToPimGBs = bytesPerSec / 1e9;
    profile.link.pimToHostGBs = bytesPerSec / 1e9;
    profile.link.launchLatencyUs = hasPcie ? 10.0 : 1.0;
    profile.pjPerLinkByte = 20.0; // DDR/PCIe-class per-byte energy
    return profile;
}

MemoryProfile
HostBackend::memoryProfile() const
{
    // Tables live in the device's own memory: host DRAM for the CPU,
    // GDDR behind PCIe for the GPU.  Budgets are generous (table working
    // sets are tiny next to either), and the "broadcast" is a memcpy
    // (CPU) or a PCIe upload (GPU) priced like the collective link.
    const bool hasPcie = device_.pcieBytesPerSec > 0;
    MemoryProfile profile;
    profile.lutBytesPerUnit = hasPcie ? (std::uint64_t{11} << 30)
                                      : (std::uint64_t{16} << 30);
    profile.unitsPerRank = 1;
    profile.broadcastGBs =
        (hasPcie ? device_.pcieBytesPerSec : device_.memBytesPerSec) / 1e9;
    profile.broadcastLatencyUs = hasPcie ? 10.0 : 1.0;
    profile.pjPerBroadcastByte = 20.0;
    return profile;
}

} // namespace localut
