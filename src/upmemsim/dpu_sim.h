#ifndef LOCALUT_UPMEMSIM_DPU_SIM_H_
#define LOCALUT_UPMEMSIM_DPU_SIM_H_

/**
 * @file
 * Trace-driven cycle-level micro-simulator of one UPMEM-class DPU.
 *
 * Pipeline model (DESIGN.md Section 9):
 *  - In-order single-issue core with tasklet round-robin: one issue
 *    slot per cycle; after issuing, a tasklet re-enters the ready set
 *    `fullIssueTasklets` cycles later (the 11-deep pipeline of the real
 *    DPU), so aggregate issue throughput is min(1, tasklets/11) —
 *    exactly DpuParams::issueRate(), but produced by the machine rather
 *    than assumed.
 *  - A 3-stage pipelined MRAM<->WRAM DMA engine: a serial setup stage
 *    (dmaSetupCycles per transfer), a streaming stage with
 *    dmaBytesPerCycle aggregate bandwidth shared by up to
 *    `dmaPipelineDepth` in-flight transfers, and completion back to the
 *    issuing tasklet (which blocks for the duration, as on the real
 *    core).  Transfers are 8-byte aligned and split at the 2048-byte
 *    mram_read() cap, each chunk paying its own setup — the two effects
 *    the analytical closed form ignores, and the main source of the
 *    calibration deltas bench_sim_calibrate freezes.
 *
 * Per-phase attribution: an issued instruction accrues 1/issueRate
 * cycles to its phase; a setup cycle accrues to the transfer's phase;
 * a streaming cycle splits across the active transfers' phases by
 * bytes drained.  Summed per phase this is the simulated counterpart
 * of CostEvaluator's additive per-phase charge; compute/DMA overlap
 * and contention show up in makespanCycles instead, which the
 * simulator reports separately.
 */

#include <array>
#include <cstdint>

#include "upmem/params.h"
#include "upmemsim/trace.h"

namespace localut {
namespace upmemsim {

/** Micro-architectural knobs of the simulated DPU. */
struct SimParams {
    DpuParams dpu; ///< clock, tasklets, issue depth, DMA rate/setup

    /** Concurrent in-flight streaming transfers (3-stage pipeline). */
    unsigned dmaPipelineDepth = 3;
    /** MRAM access granularity: transfer bytes round up to this. */
    std::uint32_t dmaAlignBytes = 8;
    /** mram_read()/mram_write() size cap: larger transfers split. */
    std::uint32_t dmaMaxTransferBytes = 2048;
};

/** Outcome of simulating one kernel trace. */
struct SimResult {
    /** Attributed cycles per phase (DPU phases only). */
    std::array<double, static_cast<unsigned>(Phase::kNumPhases)>
        phaseCycles{};
    double makespanCycles = 0;  ///< wall-clock cycles start to drain
    std::uint64_t issuedInstructions = 0;
    std::uint64_t dmaTransfers = 0; ///< post-split chunk count
    double dmaBytes = 0;            ///< post-alignment bytes moved
    double dmaSetupCycles = 0;      ///< cycles the setup stage was busy
    double dmaStreamCycles = 0;     ///< streaming-stage busy cycles
    double idleIssueCycles = 0;     ///< cycles with no ready tasklet

    /** Attributed cycles of phase @p p. */
    double
    cycles(Phase p) const
    {
        return phaseCycles[static_cast<unsigned>(p)];
    }

    /** Sum of attributed cycles over all phases (the additive total). */
    double attributedCycles() const;

    bool operator==(const SimResult&) const = default;
};

/**
 * Runs @p trace through the pipeline model.  Pure function of its
 * arguments: deterministic, no global state, safe to call concurrently
 * from any number of threads.
 */
SimResult simulate(const KernelTrace& trace, const SimParams& params);

} // namespace upmemsim
} // namespace localut

#endif // LOCALUT_UPMEMSIM_DPU_SIM_H_
