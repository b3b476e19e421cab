#include "upmemsim/sim_backend.h"

#include "upmemsim/trace.h"

namespace localut {

UpmemSimBackend::UpmemSimBackend(const PimSystemConfig& config,
                                 const upmemsim::SimParams* simOverride)
    : UpmemBackend(config)
{
    if (simOverride) {
        sim_ = *simOverride;
    }
    sim_.dpu = config.dpu; // the simulated core IS the modeled core
    simCaps_ = UpmemBackend::capabilities();
    simCaps_.name = "upmem-sim";
    simCaps_.description =
        "UPMEM server model with cycle-level simulated DPU timing";
    // Salt the UPMEM fingerprint: same system config, different timing
    // semantics — PlanCache entries must never alias across the two.
    simFingerprint_ = FingerprintBuilder()
                          .add(std::string("upmem-sim"))
                          .add(UpmemBackend::configFingerprint())
                          .add(std::uint64_t{sim_.dmaPipelineDepth})
                          .add(std::uint64_t{sim_.dmaAlignBytes})
                          .add(std::uint64_t{sim_.dmaMaxTransferBytes})
                          .value();
}

const BackendCapabilities&
UpmemSimBackend::capabilities() const
{
    return simCaps_;
}

std::uint64_t
UpmemSimBackend::planKey(const GemmPlan& plan) const
{
    return FingerprintBuilder()
        .add(std::uint64_t{static_cast<unsigned>(plan.design)})
        .add(plan.config.name())
        .add(std::uint64_t{plan.p})
        .add(std::uint64_t{plan.kSlices})
        .add(std::uint64_t{plan.streaming ? 1u : 0u})
        .add(std::uint64_t{plan.gM})
        .add(std::uint64_t{plan.gN})
        .add(std::uint64_t{plan.tileM})
        .add(std::uint64_t{plan.tileN})
        .add(std::uint64_t{plan.m})
        .add(std::uint64_t{plan.k})
        .add(std::uint64_t{plan.n})
        .add(std::uint64_t{plan.groups})
        .value();
}

upmemsim::SimResult
UpmemSimBackend::simulated(const GemmPlan& plan) const
{
    const std::uint64_t key = planKey(plan);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            return it->second;
        }
    }
    // Simulate outside the lock: traces can be large and concurrent
    // callers with distinct plans should not serialize.  A racing
    // duplicate computes the identical result (simulate() is pure).
    const upmemsim::KernelTrace trace =
        upmemsim::buildTrace(plan, sim_.dpu);
    const upmemsim::SimResult result = upmemsim::simulate(trace, sim_);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    cache_.emplace(key, result);
    return result;
}

TimingReport
UpmemSimBackend::simulatedTiming(const GemmPlan& plan,
                                 const KernelCost& cost) const
{
    const CostEvaluator eval(system());
    const TimingReport analytical = eval.timing(cost, plan.dpusUsed());
    const upmemsim::SimResult sim = simulated(plan);

    TimingReport report;
    report.hostSeconds = analytical.hostSeconds;
    report.linkSeconds = analytical.linkSeconds;
    for (unsigned i = 0; i < static_cast<unsigned>(Phase::kNumPhases);
         ++i) {
        const Phase p = static_cast<Phase>(i);
        double seconds;
        if (isHostPhase(p) || isLinkPhase(p)) {
            seconds = analytical.seconds.get(phaseName(p));
        } else {
            seconds = system().dpu.cyclesToSeconds(sim.phaseCycles[i]);
            report.dpuSeconds += seconds;
        }
        if (seconds > 0.0) {
            report.seconds.add(phaseName(p), seconds);
        }
    }
    report.total =
        report.hostSeconds + report.linkSeconds + report.dpuSeconds;
    return report;
}

GemmResult
UpmemSimBackend::execute(const GemmProblem& problem, const GemmPlan& plan,
                         const ExecOptions& options) const
{
    GemmResult result = UpmemBackend::execute(problem, plan, options);
    result.timing = simulatedTiming(plan, result.cost);
    return result;
}

} // namespace localut
