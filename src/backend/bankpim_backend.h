#ifndef LOCALUT_BACKEND_BANKPIM_BACKEND_H_
#define LOCALUT_BACKEND_BANKPIM_BACKEND_H_

/**
 * @file
 * Backend adapter over the bank-level PIM command model (paper Section
 * VI-K, Fig. 20/21).  Two design points exist at bank level: the
 * HBM-PIM-style SIMD baseline (mapped from DesignPoint::NaivePim) and the
 * LoCaLUT in-bank LUT redesign (DesignPoint::LoCaLut).  Timing comes from
 * DRAM command streams through the HBM2 bank state machine; the functional
 * output reuses the canonical-LUT executors, which mirror the in-bank
 * dataflow (slice streaming from the bank array).
 */

#include "backend/backend.h"
#include "banklevel/bank_pim.h"

namespace localut {

/** The bank-level PIM model behind the Backend interface. */
class BankPimBackend : public Backend
{
  public:
    explicit BankPimBackend(const BankPimConfig& config = {});

    const BackendCapabilities& capabilities() const override;

    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides = {}) const override;

    KernelCost chargeCosts(const GemmPlan& plan) const override;

    using Backend::execute;
    GemmResult execute(const GemmProblem& problem, const GemmPlan& plan,
                       const ExecOptions& options) const override;

    CollectiveLinkProfile collectiveProfile() const override;

    MemoryProfile memoryProfile() const override;

    std::uint64_t configFingerprint() const override { return fingerprint_; }

    const BankLevelPim& model() const { return model_; }

  private:
    /** Runs the command model for @p plan (SIMD or LUT). */
    BankPimResult modelRun(const GemmPlan& plan) const;

    BankLevelPim model_;
    BackendCapabilities caps_;
    std::uint64_t fingerprint_ = 0; ///< hashed once, at construction
};

} // namespace localut

#endif // LOCALUT_BACKEND_BANKPIM_BACKEND_H_
