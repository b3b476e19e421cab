#ifndef LOCALUT_KERNELS_GEMM_H_
#define LOCALUT_KERNELS_GEMM_H_

/**
 * @file
 * The GEMM engine: plans and executes O(MxN) = W(MxK) * A(KxN) on the PIM
 * system model under any design point.  Kernels are functional + timed:
 * run() optionally computes the real numeric output with the real LUT data
 * structures while the cost accounting (shared between the planner's
 * estimates and the execution) charges instructions, DMA, host ops, and
 * link bytes.
 */

#include <cstdint>
#include <vector>

#include "kernels/design_point.h"
#include "lut/planner.h"
#include "quant/quantizer.h"
#include "upmem/cost_model.h"
#include "upmem/params.h"

namespace localut {

struct ExecOptions; // kernels/exec_engine.h

/** A quantized GEMM instance. */
struct GemmProblem {
    QuantizedMatrix w; ///< M x K
    QuantizedMatrix a; ///< K x N

    std::size_t m() const { return w.rows; }
    std::size_t k() const { return w.cols; }
    std::size_t n() const { return a.cols; }

    QuantConfig
    config() const
    {
        return {w.codec, a.codec};
    }
};

/**
 * Fatals unless @p problem is well-formed: W's columns equal A's rows,
 * M, K and N are all at least 1, and each operand's codes are either
 * absent (a shape-only problem) or exactly rows x cols of them.  O(1);
 * code values are range-checked where they are consumed (prepareGemm()
 * for weights, the functional entry points for activations).
 */
void requireOperandShapes(const GemmProblem& problem);

/** Planner overrides for sensitivity studies (0 / unset = automatic). */
struct PlanOverrides {
    unsigned p = 0;                ///< force packing degree
    unsigned kSlices = 0;          ///< force slice window (Fig. 13)
    int streaming = -1;            ///< -1 auto, 0 buffer-resident, 1 stream
    unsigned gM = 0, gN = 0;       ///< force the partition grid

    bool operator==(const PlanOverrides&) const = default;
};

/** A fully-resolved execution plan for one GEMM. */
struct GemmPlan {
    GemmPlan(DesignPoint d, const QuantConfig& c) : design(d), config(c) {}

    DesignPoint design;
    QuantConfig config;

    unsigned p = 1;         ///< packing degree (LUT designs)
    unsigned kSlices = 1;   ///< resident slice pairs (streaming)
    bool streaming = false; ///< LUTs in MRAM with slice streaming

    unsigned gM = 1, gN = 1;     ///< partition grid (K is never split)
    unsigned tileM = 0, tileN = 0; ///< per-DPU tile (ceil)
    std::size_t m = 0, k = 0, n = 0;
    unsigned groups = 0;         ///< ceil(K / p) activation groups

    double predictedSeconds = 0; ///< paper Eq. 2/4 prediction (LoCaLut)
    std::uint64_t lutWramBytes = 0; ///< LUT bytes resident in WRAM
    std::uint64_t lutMramBytes = 0; ///< LUT bytes resident in MRAM

    unsigned dpusUsed() const { return gM * gN; }
};

/** Execution outcome: values (optional) + timing/energy reports. */
struct GemmResult {
    std::vector<std::int32_t> outInt; ///< M x N (integer configs)
    std::vector<float> outFloat;      ///< M x N (floating-point configs)
    KernelCost cost;
    TimingReport timing;
    EnergyReport energy;
};

/**
 * Plans and runs GEMMs on a PIM system model.
 *
 * Typical use:
 *     GemmEngine engine(PimSystemConfig::upmemServer());
 *     GemmResult r = engine.run(problem, DesignPoint::LoCaLut);
 */
class GemmEngine
{
  public:
    explicit GemmEngine(const PimSystemConfig& config);

    const PimSystemConfig& system() const { return config_; }

    /**
     * Resolves a full execution plan: packing degree / placement / slice
     * window via the paper's performance model (Section IV-D and V), and
     * the partition grid by minimizing the modeled end-to-end time.
     */
    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides = {}) const;

    /**
     * Charges the full event cost of executing @p plan (no values).  This
     * is the single source of truth used by both planning estimates and
     * run(), so planner and "measurement" can never diverge structurally.
     */
    KernelCost chargeCosts(const GemmPlan& plan) const;

    /** Executes a plan; @p computeValues controls the functional pass. */
    GemmResult run(const GemmProblem& problem, const GemmPlan& plan,
                   bool computeValues = true) const;

    /**
     * Executes a plan under explicit execution options (prepared
     * operand / arena / tile executor; see kernels/exec_engine.h).
     * Values are identical to the bare run() for any options.
     */
    GemmResult run(const GemmProblem& problem, const GemmPlan& plan,
                   const ExecOptions& options) const;

    /** plan() + run() convenience. */
    GemmResult run(const GemmProblem& problem, DesignPoint design,
                   bool computeValues = true,
                   const PlanOverrides& overrides = {}) const;

  private:
    void choosePartition(const GemmProblem& problem, GemmPlan& plan,
                         const PlanOverrides& overrides) const;

    /**
     * Cross-checks the Eq. 2-6 choice against every (p, placement)
     * candidate using the full event model (the paper model ignores DMA
     * setup and the degenerate p = 1 datapath).
     */
    void refineLocalutPlan(GemmPlan& plan,
                           const PlanOverrides& overrides) const;

    PimSystemConfig config_;
};

/**
 * Index payload bytes per (group, column) sent host -> PIM for @p plan
 * (raw packed codes, packed vector index, or multiset + Lehmer ranks
 * depending on the design point).  Shared by chargeCosts() and the DPU
 * micro-simulator's trace generator (src/upmemsim/trace.cc) so the two
 * can never disagree on operand-DMA byte totals.
 */
double activationIndexBytesPerGroup(const GemmPlan& plan);

/** Builds a random quantized GEMM problem (deterministic per seed). */
GemmProblem makeRandomProblem(std::size_t m, std::size_t k, std::size_t n,
                              const QuantConfig& config,
                              std::uint64_t seed = 42);

} // namespace localut

#endif // LOCALUT_KERNELS_GEMM_H_
