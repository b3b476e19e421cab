#include "upmemsim/dpu_sim.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace localut {
namespace upmemsim {

double
SimResult::attributedCycles() const
{
    double sum = 0;
    for (const double c : phaseCycles) {
        sum += c;
    }
    return sum;
}

namespace {

/** One post-split DMA chunk waiting for (or in) the engine. */
struct DmaChunk {
    unsigned tasklet = 0;
    Phase phase = Phase::Other;
    double bytes = 0;
};

/** A chunk in the streaming stage. */
struct Stream {
    unsigned tasklet = 0;
    Phase phase = Phase::Other;
    double remaining = 0;
};

struct TaskletState {
    const std::vector<TraceOp>* ops = nullptr;
    std::size_t opIndex = 0;
    std::uint32_t instrLeft = 0;   ///< of the current compute op
    Phase phase = Phase::Other;    ///< of the current compute op
    std::uint64_t nextReady = 0;
    std::uint32_t outstanding = 0; ///< DMA chunks in flight
    bool blocked = false;

    bool
    done() const
    {
        return opIndex >= ops->size() && instrLeft == 0 && outstanding == 0;
    }
};

} // namespace

SimResult
simulate(const KernelTrace& trace, const SimParams& params)
{
    const unsigned T = static_cast<unsigned>(trace.tasklets.size());
    LOCALUT_REQUIRE(T >= 1, "simulate() needs at least one tasklet stream");
    const DpuParams& dpu = params.dpu;
    const double issueRate =
        std::min(1.0, static_cast<double>(T) /
                          static_cast<double>(dpu.fullIssueTasklets));
    const double align = std::max<std::uint32_t>(1, params.dmaAlignBytes);
    const double cap =
        std::max<std::uint32_t>(params.dmaAlignBytes ? params.dmaAlignBytes
                                                     : 1,
                                params.dmaMaxTransferBytes);

    SimResult result;
    std::vector<TaskletState> ts(T);
    std::deque<DmaChunk> pending;
    std::vector<Stream> streams;
    streams.reserve(params.dmaPipelineDepth);
    bool setupActive = false;
    DmaChunk setupChunk;
    double setupLeft = 0;

    // Splits one trace transfer into aligned, size-capped chunks and
    // queues them for the engine; the issuing tasklet blocks until the
    // last chunk drains (mram_read() is blocking on the real core).
    auto enqueueDma = [&](unsigned t, const TraceOp& op) {
        double bytes = std::ceil(op.bytes / align) * align;
        if (bytes <= 0) {
            bytes = align; // a zero-byte transfer still touches MRAM
        }
        result.dmaBytes += bytes;
        while (bytes > 0) {
            const double take = std::min(bytes, cap);
            pending.push_back(DmaChunk{t, op.phase, take});
            ++result.dmaTransfers;
            ++ts[t].outstanding;
            bytes -= take;
        }
        ts[t].blocked = true;
    };

    // Advances tasklet @p t to its next actionable op: loads the next
    // compute block, or queues the next DMA transfer and blocks.
    auto advance = [&](unsigned t) {
        TaskletState& s = ts[t];
        const std::vector<TraceOp>& ops = *s.ops;
        while (s.opIndex < ops.size()) {
            const TraceOp& op = ops[s.opIndex];
            if (op.isDma) {
                ++s.opIndex;
                enqueueDma(t, op);
                return;
            }
            if (op.instructions == 0) {
                ++s.opIndex;
                continue;
            }
            s.instrLeft = op.instructions;
            s.phase = op.phase;
            return;
        }
    };

    for (unsigned t = 0; t < T; ++t) {
        ts[t].ops = &trace.tasklets[t];
        advance(t);
    }

    std::uint64_t cycle = 0;
    unsigned cursor = 0;
    auto phaseIdx = [](Phase p) { return static_cast<unsigned>(p); };

    for (;;) {
        // ---- Termination / idle skip-ahead ----
        const bool dmaBusy =
            setupActive || !pending.empty() || !streams.empty();
        if (!dmaBusy) {
            std::uint64_t minReady =
                std::numeric_limits<std::uint64_t>::max();
            bool anyWork = false;
            for (const TaskletState& s : ts) {
                if (s.instrLeft > 0) {
                    anyWork = true;
                    minReady = std::min(minReady, s.nextReady);
                }
            }
            if (!anyWork) {
                break; // every tasklet drained, engine empty
            }
            if (minReady > cycle) {
                // Pure pipeline bubble: no tasklet refills for a while.
                result.idleIssueCycles +=
                    static_cast<double>(minReady - cycle);
                cycle = minReady;
            }
        }

        // ---- DMA streaming stage (shared aggregate bandwidth) ----
        if (!streams.empty()) {
            result.dmaStreamCycles += 1.0;
            const double share =
                dpu.dmaBytesPerCycle / static_cast<double>(streams.size());
            for (Stream& s : streams) {
                const double drained = std::min(share, s.remaining);
                s.remaining -= drained;
                result.phaseCycles[phaseIdx(s.phase)] +=
                    drained / dpu.dmaBytesPerCycle;
            }
            for (std::size_t i = 0; i < streams.size();) {
                if (streams[i].remaining <= 1e-12) {
                    TaskletState& owner = ts[streams[i].tasklet];
                    --owner.outstanding;
                    if (owner.outstanding == 0) {
                        owner.blocked = false;
                        owner.nextReady = cycle + 1;
                        advance(streams[i].tasklet);
                    }
                    streams[i] = streams.back();
                    streams.pop_back();
                } else {
                    ++i;
                }
            }
        }

        // ---- DMA setup stage (serial, one transfer at a time) ----
        if (!setupActive && !pending.empty()) {
            setupChunk = pending.front();
            pending.pop_front();
            setupLeft = dpu.dmaSetupCycles;
            setupActive = true;
        }
        if (setupActive) {
            if (setupLeft > 0) {
                result.phaseCycles[phaseIdx(setupChunk.phase)] += 1.0;
                result.dmaSetupCycles += 1.0;
                setupLeft -= 1.0;
            }
            if (setupLeft <= 0 &&
                streams.size() < params.dmaPipelineDepth) {
                streams.push_back(Stream{setupChunk.tasklet,
                                         setupChunk.phase,
                                         setupChunk.bytes});
                setupActive = false;
            }
        }

        // ---- Issue stage: round-robin over ready tasklets ----
        bool issued = false;
        for (unsigned i = 0; i < T; ++i) {
            const unsigned t = (cursor + i) % T;
            TaskletState& s = ts[t];
            if (s.instrLeft > 0 && !s.blocked && s.nextReady <= cycle) {
                --s.instrLeft;
                ++result.issuedInstructions;
                result.phaseCycles[phaseIdx(s.phase)] += 1.0 / issueRate;
                s.nextReady = cycle + dpu.fullIssueTasklets;
                cursor = (t + 1) % T;
                if (s.instrLeft == 0) {
                    ++s.opIndex;
                    advance(t);
                }
                issued = true;
                break;
            }
        }
        if (!issued) {
            for (const TaskletState& s : ts) {
                if (s.instrLeft > 0) {
                    result.idleIssueCycles += 1.0;
                    break;
                }
            }
        }

        ++cycle;
    }

    result.makespanCycles = static_cast<double>(cycle);
    return result;
}

} // namespace upmemsim
} // namespace localut
