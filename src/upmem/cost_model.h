#ifndef LOCALUT_UPMEM_COST_MODEL_H_
#define LOCALUT_UPMEM_COST_MODEL_H_

/**
 * @file
 * Event accounting for functional+timed kernels.  Kernels compute real
 * numeric results while charging instructions, DMA traffic, host ops, and
 * link bytes into a KernelCost, tagged by pipeline phase; the cost model
 * then turns the counts into seconds and Joules (the "measured" numbers of
 * every experiment — see DESIGN.md Section 1 for why this level of fidelity
 * matches the paper's own methodology).
 *
 * Charging conventions:
 *  - DPU phases (instructions, DMA) are charged PER REPRESENTATIVE DPU —
 *    i.e., for the critical-path DPU of a homogeneous partition.
 *  - Host and link phases are charged GLOBALLY.
 */

#include <array>
#include <cstdint>

#include "common/stats.h"
#include "upmem/params.h"

namespace localut {

/** Pipeline phases (superset of the paper's Fig. 16 categories). */
enum class Phase : unsigned {
    HostQuantize,    ///< fp -> codes on host
    HostPackSort,    ///< packing & sorting activation groups (canonical form)
    HostCentroid,    ///< PQ centroid selection (PIM-DL / LUT-DLA)
    HostDequant,     ///< codes -> fp on host
    HostOther,       ///< softmax/layernorm/GELU and misc host work
    LinkActIn,       ///< host -> PIM activation (or index) transfer
    LinkWeightIn,    ///< host -> PIM weight transfer (init-time; reported)
    LinkOut,         ///< PIM -> host output gather
    LutBroadcast,    ///< host -> PIM LUT table-set broadcast (cold start)
    /** Reserved link phase: nothing charges it (one host, no inter-node
     * hop); kept so perfbench's per-phase metric names stay stable. */
    LinkInterNode,
    LutLoadDma,      ///< MRAM -> WRAM LUT slice streaming
    OperandDma,      ///< MRAM -> WRAM weight/activation tile traffic
    TableBuild,      ///< runtime LUT construction (LTC-style baselines)
    IndexCalc,       ///< reordering/canonical LUT index arithmetic
    ReorderAccess,   ///< reordering LUT lookups
    CanonicalAccess, ///< canonical (or packed) LUT lookups
    MacCompute,      ///< arithmetic MACs (naive PIM baseline)
    Accumulate,      ///< partial-sum accumulation
    OutputDma,       ///< WRAM -> MRAM result writeback
    Other,
    kNumPhases,
};

/** Human-readable phase name (stable; used in breakdown tables). */
const char* phaseName(Phase p);

/** True for phases that execute on the host CPU. */
bool isHostPhase(Phase p);

/** True for host<->PIM link phases. */
bool isLinkPhase(Phase p);

/** Per-phase raw event counts. */
struct PhaseCost {
    double instructions = 0; ///< DPU instructions (per representative DPU)
    double dmaBytes = 0;     ///< MRAM<->WRAM bytes (per representative DPU)
    double dmaTransfers = 0; ///< DMA transfer count (per representative DPU)
    double hostOps = 0;      ///< host scalar-equivalent operations (global)
    double linkBytes = 0;    ///< host<->PIM bytes (global)
};

/** Accumulated cost of one kernel execution. */
class KernelCost
{
  public:
    void addInstr(Phase p, double count);
    void addDma(Phase p, double bytes, double transfers);
    void addHostOps(Phase p, double ops);
    void addLinkBytes(Phase p, double bytes);

    const PhaseCost& phase(Phase p) const;

    double totalInstructions() const;
    double totalDmaBytes() const;
    double totalDmaTransfers() const;
    double totalLinkBytes() const;

    /** Merges (sums) another cost into this one. */
    void merge(const KernelCost& other);

  private:
    std::array<PhaseCost, static_cast<unsigned>(Phase::kNumPhases)> phases_{};
};

/** Seconds, decomposed. */
struct TimingReport {
    Breakdown seconds;    ///< per phase
    double dpuSeconds = 0;  ///< critical-path DPU time (instr + DMA)
    double hostSeconds = 0; ///< host compute time
    double linkSeconds = 0; ///< host<->PIM transfer time
    double total = 0;       ///< end-to-end (serialized phases)
};

/** Joules, decomposed. */
struct EnergyReport {
    Breakdown joules;
    double total = 0;
};

/** Accumulates @p part (scaled) into @p into, merging breakdowns. */
void accumulate(TimingReport& into, const TimingReport& part,
                double scale = 1.0);
void accumulate(EnergyReport& into, const EnergyReport& part,
                double scale = 1.0);

/**
 * Converts event counts into time and energy under a system configuration.
 * @p nDpusUsed scales per-DPU dynamic energy and static power.
 */
class CostEvaluator
{
  public:
    explicit CostEvaluator(const PimSystemConfig& config)
        : config_(config)
    {}

    TimingReport timing(const KernelCost& cost, unsigned nDpusUsed) const;
    /**
     * Joules of @p cost on @p nDpusUsed DPUs.  Static power runs for
     * @p timing's total, which must be timing(cost, nDpusUsed): every
     * caller has just evaluated it, so it is not evaluated twice.
     */
    EnergyReport energy(const KernelCost& cost, unsigned nDpusUsed,
                        const TimingReport& timing) const;

    /** Seconds a DPU spends on @p instructions at sustained issue. */
    double instrSeconds(double instructions) const;

    /** Seconds for a DMA of @p bytes in @p transfers chunks. */
    double dmaSeconds(double bytes, double transfers) const;

  private:
    PimSystemConfig config_;
};

} // namespace localut

#endif // LOCALUT_UPMEM_COST_MODEL_H_
