#include "upmem/cost_model.h"

#include "common/logging.h"

namespace localut {

namespace {

constexpr unsigned kNumPhases = static_cast<unsigned>(Phase::kNumPhases);

} // namespace

const char*
phaseName(Phase p)
{
    switch (p) {
      case Phase::HostQuantize:    return "host.quantize";
      case Phase::HostPackSort:    return "host.pack_sort";
      case Phase::HostCentroid:    return "host.centroid_select";
      case Phase::HostDequant:     return "host.dequantize";
      case Phase::HostOther:       return "host.other";
      case Phase::LinkActIn:       return "link.act_in";
      case Phase::LinkWeightIn:    return "link.weight_in";
      case Phase::LinkOut:         return "link.out";
      case Phase::LutBroadcast:    return "link.lut_broadcast";
      case Phase::LinkInterNode:   return "link.internode";
      case Phase::LutLoadDma:      return "dpu.lut_load_dma";
      case Phase::OperandDma:      return "dpu.operand_dma";
      case Phase::TableBuild:      return "dpu.table_build";
      case Phase::IndexCalc:       return "dpu.index_calc";
      case Phase::ReorderAccess:   return "dpu.reorder_access";
      case Phase::CanonicalAccess: return "dpu.canonical_access";
      case Phase::MacCompute:      return "dpu.mac_compute";
      case Phase::Accumulate:      return "dpu.accumulate";
      case Phase::OutputDma:       return "dpu.output_dma";
      case Phase::Other:           return "other";
      case Phase::kNumPhases:      break;
    }
    LOCALUT_PANIC("invalid phase");
}

bool
isHostPhase(Phase p)
{
    switch (p) {
      case Phase::HostQuantize:
      case Phase::HostPackSort:
      case Phase::HostCentroid:
      case Phase::HostDequant:
      case Phase::HostOther:
        return true;
      default:
        return false;
    }
}

bool
isLinkPhase(Phase p)
{
    switch (p) {
      case Phase::LinkActIn:
      case Phase::LinkWeightIn:
      case Phase::LinkOut:
      case Phase::LutBroadcast:
      case Phase::LinkInterNode:
        return true;
      default:
        return false;
    }
}

void
KernelCost::addInstr(Phase p, double count)
{
    LOCALUT_ASSERT(count >= 0, "negative instruction count");
    phases_[static_cast<unsigned>(p)].instructions += count;
}

void
KernelCost::addDma(Phase p, double bytes, double transfers)
{
    LOCALUT_ASSERT(bytes >= 0 && transfers >= 0, "negative DMA charge");
    phases_[static_cast<unsigned>(p)].dmaBytes += bytes;
    phases_[static_cast<unsigned>(p)].dmaTransfers += transfers;
}

void
KernelCost::addHostOps(Phase p, double ops)
{
    LOCALUT_ASSERT(ops >= 0, "negative host op count");
    phases_[static_cast<unsigned>(p)].hostOps += ops;
}

void
KernelCost::addLinkBytes(Phase p, double bytes)
{
    LOCALUT_ASSERT(bytes >= 0, "negative link byte count");
    phases_[static_cast<unsigned>(p)].linkBytes += bytes;
}

const PhaseCost&
KernelCost::phase(Phase p) const
{
    return phases_[static_cast<unsigned>(p)];
}

double
KernelCost::totalInstructions() const
{
    double sum = 0;
    for (const auto& pc : phases_) {
        sum += pc.instructions;
    }
    return sum;
}

double
KernelCost::totalDmaBytes() const
{
    double sum = 0;
    for (const auto& pc : phases_) {
        sum += pc.dmaBytes;
    }
    return sum;
}

double
KernelCost::totalDmaTransfers() const
{
    double sum = 0;
    for (const auto& pc : phases_) {
        sum += pc.dmaTransfers;
    }
    return sum;
}

double
KernelCost::totalLinkBytes() const
{
    double sum = 0;
    for (const auto& pc : phases_) {
        sum += pc.linkBytes;
    }
    return sum;
}

void
KernelCost::merge(const KernelCost& other)
{
    for (unsigned i = 0; i < kNumPhases; ++i) {
        phases_[i].instructions += other.phases_[i].instructions;
        phases_[i].dmaBytes += other.phases_[i].dmaBytes;
        phases_[i].dmaTransfers += other.phases_[i].dmaTransfers;
        phases_[i].hostOps += other.phases_[i].hostOps;
        phases_[i].linkBytes += other.phases_[i].linkBytes;
    }
}

void
accumulate(TimingReport& into, const TimingReport& part, double scale)
{
    // One multiply and one add per component, in item order: the
    // rounding the golden costs and benchmark digests are frozen with.
    for (const auto& [name, seconds] : part.seconds.items()) {
        into.seconds.add(name, seconds * scale);
    }
    into.dpuSeconds += part.dpuSeconds * scale;
    into.hostSeconds += part.hostSeconds * scale;
    into.linkSeconds += part.linkSeconds * scale;
    into.total += part.total * scale;
}

void
accumulate(EnergyReport& into, const EnergyReport& part, double scale)
{
    for (const auto& [name, joules] : part.joules.items()) {
        into.joules.add(name, joules * scale);
    }
    into.total += part.total * scale;
}

double
CostEvaluator::instrSeconds(double instructions) const
{
    const DpuParams& dpu = config_.dpu;
    return dpu.cyclesToSeconds(instructions / dpu.issueRate());
}

double
CostEvaluator::dmaSeconds(double bytes, double transfers) const
{
    const DpuParams& dpu = config_.dpu;
    const double cycles =
        transfers * dpu.dmaSetupCycles + bytes / dpu.dmaBytesPerCycle;
    return dpu.cyclesToSeconds(cycles);
}

TimingReport
CostEvaluator::timing(const KernelCost& cost, unsigned nDpusUsed) const
{
    LOCALUT_ASSERT(nDpusUsed >= 1 && nDpusUsed <= config_.totalDpus(),
                   "nDpusUsed out of range: ", nDpusUsed);
    TimingReport report;
    for (unsigned i = 0; i < kNumPhases; ++i) {
        const Phase p = static_cast<Phase>(i);
        const PhaseCost& pc = cost.phase(p);
        double seconds = 0.0;
        if (isHostPhase(p)) {
            seconds = pc.hostOps / (config_.host.effectiveGops * 1e9);
            report.hostSeconds += seconds;
        } else if (isLinkPhase(p)) {
            if (pc.linkBytes > 0) {
                const double gbs = p == Phase::LinkOut
                                       ? config_.link.pimToHostGBs
                                       : config_.link.hostToPimGBs;
                seconds = pc.linkBytes / (gbs * 1e9) +
                          config_.link.launchLatencyUs * 1e-6;
            }
            report.linkSeconds += seconds;
        } else {
            // DPU phase: instructions at sustained issue plus DMA engine
            // time; the DPU DMA blocks the issuing tasklet, so the additive
            // model is a faithful first-order serialization.
            seconds = instrSeconds(pc.instructions) +
                      dmaSeconds(pc.dmaBytes, pc.dmaTransfers);
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

EnergyReport
CostEvaluator::energy(const KernelCost& cost, unsigned nDpusUsed,
                      const TimingReport& timing) const
{
    LOCALUT_ASSERT(nDpusUsed >= 1 && nDpusUsed <= config_.totalDpus(),
                   "nDpusUsed out of range: ", nDpusUsed);
    const UpmemEnergyParams& e = config_.energy;
    EnergyReport report;
    const double dpus = static_cast<double>(nDpusUsed);

    for (unsigned i = 0; i < kNumPhases; ++i) {
        const Phase p = static_cast<Phase>(i);
        const PhaseCost& pc = cost.phase(p);
        double joules = 0.0;
        if (isHostPhase(p)) {
            joules = pc.hostOps / (config_.host.effectiveGops * 1e9) *
                     config_.host.activeWatts;
        } else if (isLinkPhase(p)) {
            joules = pc.linkBytes * e.pjPerLinkByte * 1e-12;
        } else {
            joules = dpus * (pc.instructions * e.pjPerInstr +
                             pc.dmaBytes * e.pjPerMramByte) *
                     1e-12;
        }
        if (joules > 0.0) {
            report.joules.add(phaseName(p), joules);
        }
    }
    // Static energy over the whole execution for every active DPU.
    const double staticJ = dpus * e.dpuStaticMw * 1e-3 * timing.total;
    report.joules.add("static", staticJ);
    report.total = report.joules.total();
    return report;
}

} // namespace localut
