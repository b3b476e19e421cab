/**
 * @file
 * `paper_grid`: the fig09 GEMM grid (2 shapes x 4 presets x 6 designs)
 * and the fig10 model grid (7 model/config cases x 4 designs), modeled
 * only and computed the way bench/fig09_gemm.cc and bench/fig10_models.cc
 * compute them.  The planner and cost model of the five baseline design
 * points run nowhere else, and this is the only check against the
 * paper's reference values.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

using namespace localut;

namespace {

/** Headline ratios and their paper values, as the harnesses print them. */
struct Reference {
    const char* label;
    double paper;
};

// bench/fig09_gemm.cc: "geomean LoCaLUT vs Naive (paper: 2.87x)",
// "geomean LoCaLUT vs LTC (paper: 1.77x)", "max LoCaLUT vs Naive (paper:
// up to 4.73x)", "max LoCaLUT vs LTC (paper: up to 1.93x)".
constexpr Reference kFig09[] = {
    {"fig09 geomean LoCaLUT/Naive", 2.87},
    {"fig09 geomean LoCaLUT/LTC", 1.77},
    {"fig09 max LoCaLUT/Naive", 4.73},
    {"fig09 max LoCaLUT/LTC", 1.93},
};
// bench/fig10_models.cc: "geomean LoCaLUT vs Naive (paper: 1.77x)",
// "geomean LoCaLUT vs LTC (paper: 1.82x)", "geomean LoCaLUT vs OP
// (paper: ~1.22x)".
constexpr Reference kFig10[] = {
    {"fig10 geomean LoCaLUT/Naive", 1.77},
    {"fig10 geomean LoCaLUT/LTC", 1.82},
    {"fig10 geomean LoCaLUT/OP", 1.22},
};

constexpr DesignPoint kFig09Designs[] = {
    DesignPoint::NaivePim, DesignPoint::Ltc,    DesignPoint::OpLut,
    DesignPoint::OpLc,     DesignPoint::OpLcRc, DesignPoint::LoCaLut};
constexpr DesignPoint kFig10Designs[] = {
    DesignPoint::NaivePim, DesignPoint::Ltc, DesignPoint::OpLut,
    DesignPoint::LoCaLut};

double
geomean(const std::vector<double>& values)
{
    double log = 0;
    for (const double v : values) {
        log += std::log(v);
    }
    return std::exp(log / static_cast<double>(values.size()));
}

/** One evaluation of both grids. */
struct Grid {
    std::vector<double> fig09Seconds; ///< every (shape, preset, design)
    std::vector<double> fig10Seconds; ///< every (case, design)
    double fig09Ratios[4] = {};
    double fig10Ratios[3] = {};
    double localutInferencesPerSecond = 0;
    /** Modeled phase seconds summed over the fig09 grid. */
    Breakdown localutPhases, naivePhases;
    unsigned cases = 0;
};

/** fig10's end-to-end seconds: OPT runs prefill plus 8 decode steps at
 * batch 32, the encoders one prefill at their default length. */
double
endToEndSeconds(const BackendPtr& backend, const TransformerConfig& model,
                const char* preset, DesignPoint design)
{
    const TransformerRunner runner(backend, QuantConfig::preset(preset),
                                   design);
    if (model.name == "OPT-125M") {
        return runner.prefill(model, 32, 128).timing.total +
               runner.decode(model, 32, 128, 8).timing.total;
    }
    return runner.prefill(model, 32, model.defaultSeqLen).timing.total;
}

Grid
evaluate(const BackendPtr& backend)
{
    Grid grid;
    std::vector<double> vsNaive, vsLtc;
    for (const auto& [m, k, n] :
         {std::tuple<std::size_t, std::size_t, std::size_t>{768, 768, 128},
          {3072, 768, 128}}) {
        for (const char* preset : {"W1A3", "W1A4", "W2A2", "W4A4"}) {
            const QuantConfig quant = QuantConfig::preset(preset);
            const GemmProblem problem = makeShapeOnlyProblem(m, k, n, quant);
            double naive = 0, ltc = 0;
            for (const DesignPoint design : kFig09Designs) {
                const GemmResult r = backend->execute(
                    problem, backend->plan(problem, design), false);
                const double t = r.timing.total;
                grid.fig09Seconds.push_back(t);
                ++grid.cases;
                if (design == DesignPoint::NaivePim) {
                    naive = t;
                    grid.naivePhases.merge(r.timing.seconds);
                } else if (design == DesignPoint::Ltc) {
                    ltc = t;
                } else if (design == DesignPoint::LoCaLut) {
                    vsNaive.push_back(naive / t);
                    vsLtc.push_back(ltc / t);
                    grid.localutPhases.merge(r.timing.seconds);
                }
            }
        }
    }
    grid.fig09Ratios[0] = geomean(vsNaive);
    grid.fig09Ratios[1] = geomean(vsLtc);
    grid.fig09Ratios[2] = *std::max_element(vsNaive.begin(), vsNaive.end());
    grid.fig09Ratios[3] = *std::max_element(vsLtc.begin(), vsLtc.end());

    const std::pair<TransformerConfig, const char*> cases[] = {
        {TransformerConfig::bertBase(), "W1A3"},
        {TransformerConfig::bertBase(), "W1A4"},
        {TransformerConfig::bertBase(), "W2A2"},
        {TransformerConfig::bertBase(), "W4A4"},
        {TransformerConfig::vitBase(), "W2A2"},
        {TransformerConfig::vitBase(), "W4A4"},
        {TransformerConfig::opt125m(), "W4A4"},
    };
    std::vector<double> fNaive, fLtc, fOp, localut;
    for (const auto& [model, preset] : cases) {
        double t[4] = {};
        for (unsigned d = 0; d < 4; ++d) {
            t[d] = endToEndSeconds(backend, model, preset, kFig10Designs[d]);
            grid.fig10Seconds.push_back(t[d]);
            ++grid.cases;
        }
        fNaive.push_back(t[0] / t[3]);
        fLtc.push_back(t[1] / t[3]);
        fOp.push_back(t[2] / t[3]);
        localut.push_back(t[3]);
    }
    grid.fig10Ratios[0] = geomean(fNaive);
    grid.fig10Ratios[1] = geomean(fLtc);
    grid.fig10Ratios[2] = geomean(fOp);
    grid.localutInferencesPerSecond = 1.0 / geomean(localut);
    return grid;
}

std::uint64_t
digestOf(const Grid& grid)
{
    Digest digest;
    for (const double t : grid.fig09Seconds) {
        digest.add(t);
    }
    for (const double t : grid.fig10Seconds) {
        digest.add(t);
    }
    return digest.value();
}

template <std::size_t N>
double
paperGap(const double (&measured)[N], const Reference (&refs)[N],
         Report& report)
{
    double gap = 0;
    for (std::size_t i = 0; i < N; ++i) {
        gap += std::abs(measured[i] / refs[i].paper - 1.0);
        report.notes.push_back(std::string(refs[i].label) + ": " +
                               std::to_string(measured[i]) + "x (paper " +
                               std::to_string(refs[i].paper) + "x)");
    }
    return gap / static_cast<double>(N);
}

/** Set-ups, then grid evaluations until the budget is spent. */
struct Pass {
    std::vector<double> setups;
    std::vector<double> evalSeconds;
    Grid first;
    std::uint64_t digest = 0;
    double from = 0, to = 0;
};

Pass
runPass(const BackendPtr& backend, bool timeSetup, double seconds,
        SpanLog* log, Report& report)
{
    Pass pass;
    while (moreSetups(pass.setups, timeSetup)) {
        const auto start = Clock::now();
        pass.first = evaluate(backend);
        pass.setups.push_back(secondsSince(start));
    }
    pass.digest = digestOf(pass.first);
    pass.from = log != nullptr ? log->now() : 0;
    const auto start = Clock::now();
    while (pass.evalSeconds.empty() || secondsSince(start) < seconds) {
        ++report.attempted;
        const auto evalStart = Clock::now();
        Grid grid;
        {
            ScopedSpan span(log, "paper_grid.evaluate");
            grid = evaluate(backend);
        }
        pass.evalSeconds.push_back(secondsSince(evalStart));
        if (digestOf(grid) != pass.digest) {
            ++report.failed;
            report.fail("grid evaluation is not deterministic");
        }
    }
    pass.to = log != nullptr ? log->now() : 0;
    return pass;
}

} // namespace

void
reportFig09PhaseShares(const BackendPtr& backend, Report& report)
{
    const Grid grid = evaluate(backend);
    for (const auto& [design, phases] :
         {std::pair{"localut", &grid.localutPhases},
          std::pair{"naive", &grid.naivePhases}}) {
        for (const auto& [phase, seconds] : phases->items()) {
            report.set(std::string("backend.phase_share.") + design + "." +
                           phase,
                       seconds / phases->total());
        }
    }
}

void
runPaperGrid(const RunOptions& options, Report& report)
{
    report.param("fig09", "(768,768,128) and (3072,768,128) x W1A3/W1A4/"
                          "W2A2/W4A4 x NaivePIM/LTC/OP/OP+LC/OP+LC+RC/"
                          "LoCaLUT, timing only");
    report.param("fig10", "BERT W1A3/W1A4/W2A2/W4A4, ViT W2A2/W4A4, OPT W4A4 "
                          "x NaivePIM/LTC/OP/LoCaLUT, timing only");
    report.param("backend", "upmem");
    report.param("seed", "unused: the grid is fixed by the paper");

    const auto gaps = [&](const Grid& grid) {
        report.set("fig09_paper_gap",
                   paperGap(grid.fig09Ratios, kFig09, report));
        report.set("fig10_paper_gap",
                   paperGap(grid.fig10Ratios, kFig10, report));
        report.set("model_rate_per_s", grid.localutInferencesPerSecond);
    };

    const auto casesPerSecond = [](const Pass& pass) {
        std::vector<double> rates;
        for (const double seconds : pass.evalSeconds) {
            rates.push_back(pass.first.cases / seconds);
        }
        return hostRate(rates);
    };

    if (!options.trace) {
        const Pass pass = runPass(makeBackend(kBackendName), true,
                                  options.seconds, nullptr, report);
        report.param("setups", std::to_string(pass.setups.size()));
        gaps(pass.first);
        report.set("setup_s", median(pass.setups));
        report.set("host_rate_per_s", casesPerSecond(pass));
        report.param("evaluation_seconds", spreadNote(pass.evalSeconds));
        report.digest = pass.digest;
        report.param("evaluations", std::to_string(pass.evalSeconds.size()));
    } else {
        const Pass plain = runPass(makeBackend(kBackendName), false,
                                   0.45 * options.seconds, nullptr, report);
        SpanLog log;
        const Pass traced = runPass(
            std::make_shared<TracingBackend>(makeBackend(kBackendName), log),
            false, 0.45 * options.seconds, &log, report);
        if (traced.digest != plain.digest) {
            report.fail("traced run's modeled digest differs from the "
                        "untraced run's");
        }
        report.digest = plain.digest;
        gaps(traced.first);
        reportBackendLayers(log, traced.from, traced.to,
                            static_cast<double>(traced.evalSeconds.size()),
                            1, {"paper_grid.evaluate"}, report);
        reportFig09PhaseShares(makeBackend(kBackendName), report);
        report.set("trace.overhead_share",
                   casesPerSecond(plain) / casesPerSecond(traced) - 1.0);
    }
}

} // namespace perfbench
