#ifndef LOCALUT_UPMEMSIM_SIM_BACKEND_H_
#define LOCALUT_UPMEMSIM_SIM_BACKEND_H_

/**
 * @file
 * The "upmem-sim" backend: UpmemBackend's plan/charge/execute surface
 * with the per-phase analytical DPU cycle counts replaced by simulated
 * cycle counts from the trace-driven micro-simulator (upmemsim/dpu_sim.h).
 * Planning, event charging, energy, and the functional pass are shared
 * with "upmem" — numeric outputs are bit-exact across the two backends
 * (the parity invariant, fuzzed in tests/test_parity_fuzz.cc); only the
 * DPU-phase timing differs, by exactly the pipeline/DMA-engine effects
 * the analytical closed form abstracts away.
 */

#include <mutex>
#include <unordered_map>

#include "backend/upmem_backend.h"
#include "upmemsim/dpu_sim.h"

namespace localut {

/** UpmemBackend with simulated (not analytical) DPU-phase timing. */
class UpmemSimBackend : public UpmemBackend
{
  public:
    explicit UpmemSimBackend(
        const PimSystemConfig& config = PimSystemConfig::upmemServer(),
        const upmemsim::SimParams* simOverride = nullptr);

    const BackendCapabilities& capabilities() const override;

    using Backend::execute;
    GemmResult execute(const GemmProblem& problem, const GemmPlan& plan,
                       const ExecOptions& options) const override;

    std::uint64_t configFingerprint() const override
    {
        return simFingerprint_;
    }

    /**
     * Simulates the representative-DPU kernel of @p plan (memoized per
     * plan; safe to call concurrently).
     */
    upmemsim::SimResult simulated(const GemmPlan& plan) const;

    /**
     * The TimingReport execute() attaches: host/link phases priced by
     * the analytical evaluator (they run off-DPU), DPU phases priced
     * from the simulated per-phase cycle attribution.
     */
    TimingReport simulatedTiming(const GemmPlan& plan,
                                 const KernelCost& cost) const;

  private:
    std::uint64_t planKey(const GemmPlan& plan) const;

    upmemsim::SimParams sim_;
    BackendCapabilities simCaps_;
    std::uint64_t simFingerprint_ = 0; ///< hashed once, at construction
    mutable std::mutex cacheMutex_;
    mutable std::unordered_map<std::uint64_t, upmemsim::SimResult> cache_;
};

} // namespace localut

#endif // LOCALUT_UPMEMSIM_SIM_BACKEND_H_
