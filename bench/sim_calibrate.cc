/**
 * @file
 * Cost-model calibration harness: sweeps the Fig. 9 design-point grid
 * and the Fig. 18 forced-packing sweep on both the analytical "upmem"
 * cost model and the cycle-level "upmem-sim" micro-simulator, reports
 * the per-DPU-phase relative deltas, and gates them against the frozen
 * tolerance bands (the same values tests/test_upmemsim.cc pins: 0.5%
 * for instruction-only phases, 5% for tile-DMA phases, 10% for
 * streamed LUT slice pairs — all far inside the 15% acceptance
 * target).  Also reports refit suggestions: the effective
 * dmaSetupCycles / dmaBytesPerCycle constants that would make the
 * analytical closed form reproduce the simulated DMA occupancy under
 * the analytical event counts.  Emits BENCH_sim.json (archived by the
 * CI perf-smoke job) and exits non-zero when any phase delta leaves
 * its frozen band.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

#include "lut/capacity.h"
#include "nn/inference.h"
#include "upmem/cost_model.h"
#include "upmemsim/sim_backend.h"

using namespace localut;

namespace {

// Frozen bands — keep in lockstep with tests/test_upmemsim.cc.
constexpr double kComputeBand = 0.005;
constexpr double kDmaBand = 0.05;
constexpr double kLutStreamBand = 0.10;

double
frozenBand(Phase p)
{
    switch (p) {
      case Phase::LutLoadDma:
        return kLutStreamBand;
      case Phase::OperandDma:
      case Phase::OutputDma:
      case Phase::CanonicalAccess:
        return kDmaBand;
      default:
        return kComputeBand;
    }
}

/** Worst observed delta of one phase across the grid. */
struct PhaseWorst {
    double delta = 0;
    double analytical = 0;
    double simulated = 0;
    std::string label;
};

struct GridStats {
    std::vector<PhaseWorst> worst{
        static_cast<unsigned>(Phase::kNumPhases)};
    unsigned points = 0;
    unsigned violations = 0;
    // Aggregate DMA counters for the refit suggestions.
    double analyticalTransfers = 0;
    double analyticalBytes = 0;
    double simSetupCycles = 0;
    double simStreamCycles = 0;
};

void
measure(const UpmemSimBackend& backend, const GemmPlan& plan,
        const std::string& label, GridStats& stats)
{
    const KernelCost cost = backend.chargeCosts(plan);
    const CostEvaluator eval(backend.system());
    const TimingReport analytical = eval.timing(cost, plan.dpusUsed());
    const upmemsim::SimResult sim = backend.simulated(plan);

    ++stats.points;
    stats.simSetupCycles += sim.dmaSetupCycles;
    stats.simStreamCycles += sim.dmaStreamCycles;
    double pointWorst = 0;
    const char* pointWorstPhase = "-";
    for (unsigned i = 0; i < static_cast<unsigned>(Phase::kNumPhases);
         ++i) {
        const Phase p = static_cast<Phase>(i);
        if (isHostPhase(p) || isLinkPhase(p)) {
            continue;
        }
        stats.analyticalTransfers += cost.phase(p).dmaTransfers;
        stats.analyticalBytes += cost.phase(p).dmaBytes;
        const double a = analytical.seconds.get(phaseName(p));
        const double s =
            backend.system().dpu.cyclesToSeconds(sim.cycles(p));
        if (a < 1e-12 && s < 1e-12) {
            continue;
        }
        const double delta = std::abs(s - a) / std::max(a, 1e-30);
        if (delta > stats.worst[i].delta) {
            stats.worst[i] =
                PhaseWorst{delta, a, s, label};
        }
        if (delta > pointWorst) {
            pointWorst = delta;
            pointWorstPhase = phaseName(p);
        }
        if (delta > frozenBand(p)) {
            ++stats.violations;
            std::printf("  VIOLATION %-28s %-20s delta %.2f%% > band "
                        "%.2f%%\n",
                        label.c_str(), phaseName(p), delta * 100,
                        frozenBand(p) * 100);
        }
    }
    std::printf("  %-28s worst %6.2f%%  (%s)\n", label.c_str(),
                pointWorst * 100, pointWorstPhase);
}

const char*
designName(DesignPoint d)
{
    switch (d) {
      case DesignPoint::NaivePim: return "NaivePim";
      case DesignPoint::Ltc: return "LTC";
      case DesignPoint::OpLutDram: return "OP-LUT-DRAM";
      case DesignPoint::OpLut: return "OP-LUT";
      case DesignPoint::OpLc: return "OP-LC";
      case DesignPoint::OpLcRc: return "OP-LC-RC";
      case DesignPoint::LoCaLut: return "LoCaLUT";
    }
    return "?";
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::header("sim-calibrate",
                  "cycle-level simulator vs analytical cost model: "
                  "per-phase calibration deltas over the Fig. 9/18 grid");

    const UpmemSimBackend backend;
    GridStats stats;

    bench::section("Fig. 9 design-point grid");
    const std::vector<std::array<std::size_t, 3>> fig09Shapes =
        bench::smokeTrim(std::vector<std::array<std::size_t, 3>>{
                             {768, 768, 128}, {3072, 768, 128}},
                         std::vector<std::array<std::size_t, 3>>{
                             {768, 768, 128}});
    for (const auto& shape : fig09Shapes) {
        for (const QuantConfig& cfg : QuantConfig::paperConfigs()) {
            const GemmProblem problem = makeShapeOnlyProblem(
                shape[0], shape[1], shape[2], cfg);
            for (const DesignPoint d :
                 {DesignPoint::NaivePim, DesignPoint::Ltc,
                  DesignPoint::OpLut, DesignPoint::OpLc,
                  DesignPoint::OpLcRc, DesignPoint::LoCaLut}) {
                const std::string label =
                    cfg.name() + "/" + designName(d) + "/m" +
                    std::to_string(shape[0]);
                measure(backend, backend.plan(problem, d), label,
                        stats);
            }
        }
    }

    bench::section("Fig. 18 forced packing-degree sweep");
    const std::vector<std::array<std::size_t, 3>> fig18Shapes =
        bench::smokeTrim(std::vector<std::array<std::size_t, 3>>{
                             {768, 768, 768}, {3072, 768, 768}},
                         std::vector<std::array<std::size_t, 3>>{
                             {768, 768, 768}});
    const std::size_t budget = backend.system().dpu.mramLutBudget();
    for (const auto& shape : fig18Shapes) {
        for (const char* preset : {"W4A4", "W2A2"}) {
            const QuantConfig cfg = QuantConfig::preset(preset);
            const unsigned pMax =
                maxPackingDegree(budget, cfg, true, true, 2, 8);
            const GemmProblem problem = makeShapeOnlyProblem(
                shape[0], shape[1], shape[2], cfg);
            for (unsigned p = 1; p <= pMax; ++p) {
                PlanOverrides overrides;
                overrides.p = p;
                const std::string label = std::string(preset) + "/p" +
                                          std::to_string(p) + "/m" +
                                          std::to_string(shape[0]);
                measure(backend,
                        backend.plan(problem, DesignPoint::LoCaLut,
                                     overrides),
                        label, stats);
            }
        }
    }

    bench::section("Worst per-phase deltas across the grid");
    for (unsigned i = 0; i < static_cast<unsigned>(Phase::kNumPhases);
         ++i) {
        const Phase p = static_cast<Phase>(i);
        if (isHostPhase(p) || isLinkPhase(p) ||
            stats.worst[i].label.empty()) {
            continue;
        }
        std::printf("  %-20s worst %6.2f%%  band %5.2f%%  at %s\n",
                    phaseName(p), stats.worst[i].delta * 100,
                    frozenBand(p) * 100, stats.worst[i].label.c_str());
    }

    // Refit suggestions: the constants that, with the ANALYTICAL event
    // counts, reproduce the simulated DMA occupancy — i.e., what
    // DpuParams would absorb chunk-splitting (setup) and alignment
    // (streaming rate) back into the closed form.
    const DpuParams& dpu = backend.system().dpu;
    const double fitSetup =
        stats.analyticalTransfers > 0
            ? stats.simSetupCycles / stats.analyticalTransfers
            : dpu.dmaSetupCycles;
    const double fitRate = stats.simStreamCycles > 0
                               ? stats.analyticalBytes /
                                     stats.simStreamCycles
                               : dpu.dmaBytesPerCycle;
    bench::section("Refit suggestions (effective DpuParams)");
    std::printf("  dmaSetupCycles    current %6.2f  fitted %6.2f\n",
                dpu.dmaSetupCycles, fitSetup);
    std::printf("  dmaBytesPerCycle  current %6.2f  fitted %6.2f\n",
                dpu.dmaBytesPerCycle, fitRate);
    bench::note("fitted values fold chunk-split / alignment effects into "
                "the closed form; adopt only with a golden refresh");

    const bool pass = stats.violations == 0;
    std::printf("\n%u grid points, %u band violations -> %s\n",
                stats.points, stats.violations,
                pass ? "PASS" : "FAIL");

    std::FILE* f = std::fopen("BENCH_sim.json", "w");
    if (f) {
        std::fprintf(f, "{\n  \"bench\": \"sim_calibrate\",\n");
        std::fprintf(f, "  \"smoke\": %s,\n",
                     bench::smoke() ? "true" : "false");
        bench::writeProvenance(f);
        std::fprintf(f, "  \"gate_passed\": %s,\n",
                     pass ? "true" : "false");
        std::fprintf(f, "  \"points\": %u,\n", stats.points);
        std::fprintf(f, "  \"violations\": %u,\n", stats.violations);
        std::fprintf(f,
                     "  \"bands\": {\"compute\": %.3f, \"dma\": %.3f, "
                     "\"lut_stream\": %.3f},\n",
                     kComputeBand, kDmaBand, kLutStreamBand);
        std::fprintf(f,
                     "  \"refit\": {\"dma_setup_cycles\": {\"current\": "
                     "%.4f, \"fitted\": %.4f}, \"dma_bytes_per_cycle\": "
                     "{\"current\": %.4f, \"fitted\": %.4f}},\n",
                     dpu.dmaSetupCycles, fitSetup, dpu.dmaBytesPerCycle,
                     fitRate);
        std::fprintf(f, "  \"worst_phase_deltas\": [\n");
        bool first = true;
        for (unsigned i = 0;
             i < static_cast<unsigned>(Phase::kNumPhases); ++i) {
            const Phase p = static_cast<Phase>(i);
            if (isHostPhase(p) || isLinkPhase(p) ||
                stats.worst[i].label.empty()) {
                continue;
            }
            std::fprintf(f,
                         "%s    {\"phase\": \"%s\", \"delta\": %.6f, "
                         "\"band\": %.3f, \"analytical_s\": %.9e, "
                         "\"simulated_s\": %.9e, \"at\": \"%s\"}",
                         first ? "" : ",\n", phaseName(p),
                         stats.worst[i].delta, frozenBand(p),
                         stats.worst[i].analytical,
                         stats.worst[i].simulated,
                         stats.worst[i].label.c_str());
            first = false;
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        bench::note("wrote BENCH_sim.json");
    } else {
        bench::note("could not open BENCH_sim.json for writing");
    }

    return pass ? 0 : 1;
}
