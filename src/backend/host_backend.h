#ifndef LOCALUT_BACKEND_HOST_BACKEND_H_
#define LOCALUT_BACKEND_HOST_BACKEND_H_

/**
 * @file
 * Backend adapter over the conventional comparison devices (paper
 * Fig. 17): a roofline model (src/hostsim) provides timing/energy, and the
 * reference kernels provide the functional output.  Low-bit GEMMs execute
 * through the unpack/dequantize path, so the modeled time is flat across
 * design points — the design point only selects which LUT structure the
 * PIM backends would use, while the numeric result is identical by the
 * bit-exactness invariant.  That makes this backend the parity oracle for
 * the PIM backends' functional outputs.
 */

#include "backend/backend.h"
#include "hostsim/roofline.h"
#include "upmem/params.h"

namespace localut {

/** A roofline comparison device behind the Backend interface. */
class HostBackend : public Backend
{
  public:
    /** @p name is the registry name ("host-cpu" / "host-gpu" / custom). */
    HostBackend(std::string name, const RooflineDevice& device,
                const HostComputeParams& hostOps = {});

    /** Xeon Gold 5215 ("host-cpu"). */
    static std::shared_ptr<HostBackend> cpu();

    /** RTX 2080 Ti ("host-gpu"). */
    static std::shared_ptr<HostBackend> gpu();

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

    const RooflineDevice& device() const { return device_; }

  private:
    RooflineDevice device_;
    HostComputeParams hostOps_;
    BackendCapabilities caps_;
    std::uint64_t fingerprint_ = 0; ///< hashed once, at construction
};

} // namespace localut

#endif // LOCALUT_BACKEND_HOST_BACKEND_H_
