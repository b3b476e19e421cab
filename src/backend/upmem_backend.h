#ifndef LOCALUT_BACKEND_UPMEM_BACKEND_H_
#define LOCALUT_BACKEND_UPMEM_BACKEND_H_

/**
 * @file
 * Backend adapter over the UPMEM-class server model: GemmEngine does the
 * planning (paper Eq. 2-6 + full-event-model refinement) and the
 * functional+timed execution.  This is the paper's primary platform and
 * the only backend that models every design point of Fig. 9/10.
 */

#include "backend/backend.h"
#include "upmem/params.h"

namespace localut {

/** The UPMEM server model behind the Backend interface. */
class UpmemBackend : public Backend
{
  public:
    explicit UpmemBackend(
        const PimSystemConfig& config = PimSystemConfig::upmemServer());

    const BackendCapabilities& capabilities() const override;

    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides = {}) const override;

    KernelCost chargeCosts(const GemmPlan& plan) const override;

    using Backend::execute;
    GemmResult execute(const GemmProblem& problem, const GemmPlan& plan,
                       const ExecOptions& options) const override;

    void chargeHostOps(double ops, TimingReport& timing,
                       EnergyReport& energy) const override;

    CollectiveLinkProfile collectiveProfile() const override;

    MemoryProfile memoryProfile() const override;

    std::uint64_t configFingerprint() const override { return fingerprint_; }

    /** The wrapped engine (for callers migrating from the old API). */
    const GemmEngine& engine() const { return engine_; }

    const PimSystemConfig& system() const { return engine_.system(); }

  private:
    GemmEngine engine_;
    BackendCapabilities caps_;
    std::uint64_t fingerprint_ = 0; ///< hashed once, at construction
};

} // namespace localut

#endif // LOCALUT_BACKEND_UPMEM_BACKEND_H_
