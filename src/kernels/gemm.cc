#include "kernels/gemm.h"

#include <algorithm>
#include <limits>

#include "common/bitops.h"
#include "common/logging.h"
#include "common/rng.h"
#include "kernels/cost_tables.h"
#include "kernels/exec_engine.h"
#include "lut/capacity.h"

namespace localut {

const char*
designPointName(DesignPoint dp)
{
    switch (dp) {
      case DesignPoint::NaivePim:  return "NaivePIM";
      case DesignPoint::Ltc:       return "LTC";
      case DesignPoint::OpLutDram: return "OP(DRAM)";
      case DesignPoint::OpLut:     return "OP";
      case DesignPoint::OpLc:      return "OP+LC";
      case DesignPoint::OpLcRc:    return "OP+LC+RC";
      case DesignPoint::LoCaLut:   return "LoCaLUT";
    }
    LOCALUT_PANIC("invalid design point");
}

GemmEngine::GemmEngine(const PimSystemConfig& config) : config_(config) {}

namespace {

/** Fills the design-specific fields (p, k, streaming, LUT residency). */
void
resolveDesign(GemmPlan& plan, const PimSystemConfig& sys,
              const PlanOverrides& overrides)
{
    const QuantConfig& cfg = plan.config;
    const std::uint64_t wramBudget = sys.dpu.wramLutBudget();
    const std::uint64_t mramBudget = sys.dpu.mramLutBudget();

    switch (plan.design) {
      case DesignPoint::NaivePim:
        plan.p = 1;
        break;
      case DesignPoint::Ltc:
        plan.p = 1;
        plan.lutWramBytes = static_cast<std::uint64_t>(
            ceilDiv(plan.k, std::size_t{cost::kLtcGroupSize}) *
            cost::kLtcTableEntries * cost::kLtcTableEntryBytes);
        break;
      case DesignPoint::OpLutDram: {
        plan.p = overrides.p
                     ? overrides.p
                     : maxPackingDegree(mramBudget, cfg, false, false);
        LOCALUT_REQUIRE(plan.p >= 1, "no DRAM-resident OP LUT fits for ",
                        cfg.name());
        plan.lutMramBytes = opPackedLutBytes(LutShape(cfg, plan.p));
        break;
      }
      case DesignPoint::OpLut: {
        plan.p = overrides.p
                     ? overrides.p
                     : maxPackingDegree(wramBudget, cfg, false, false);
        LOCALUT_REQUIRE(plan.p >= 1, "no buffer-resident OP LUT fits for ",
                        cfg.name());
        plan.lutWramBytes = opPackedLutBytes(LutShape(cfg, plan.p));
        break;
      }
      case DesignPoint::OpLc: {
        plan.p = overrides.p
                     ? overrides.p
                     : maxPackingDegree(wramBudget, cfg, true, false);
        LOCALUT_REQUIRE(plan.p >= 1, "no canonical LUT fits for ",
                        cfg.name());
        plan.lutWramBytes = canonicalLutBytes(LutShape(cfg, plan.p));
        break;
      }
      case DesignPoint::OpLcRc: {
        plan.p = overrides.p
                     ? overrides.p
                     : maxPackingDegree(wramBudget, cfg, true, true);
        LOCALUT_REQUIRE(plan.p >= 1,
                        "no canonical+reordering LUT fits for ", cfg.name());
        plan.lutWramBytes = localutBytes(LutShape(cfg, plan.p));
        break;
      }
      case DesignPoint::LoCaLut: {
        const LutPlanner planner(sys.dpu, cfg);
        LutPlan lp;
        if (overrides.kSlices) {
            lp = planner.chooseWithForcedK(plan.tileM,
                                           static_cast<double>(plan.k),
                                           plan.tileN, overrides.kSlices);
        } else {
            lp = planner.choose(plan.tileM, static_cast<double>(plan.k),
                                plan.tileN);
        }
        if (overrides.p) {
            lp.p = overrides.p;
            lp.streaming = overrides.p > planner.perfModel().pLocalMax();
            lp.kSlices = lp.streaming
                             ? std::max(1u, planner.maxKFor(lp.p))
                             : 1u;
            lp.predictedSeconds =
                lp.streaming
                    ? planner.perfModel().streamingSeconds(
                          plan.tileM, static_cast<double>(plan.k),
                          plan.tileN, lp.p)
                    : planner.perfModel().bufferSeconds(
                          plan.tileM, static_cast<double>(plan.k),
                          plan.tileN, lp.p);
        }
        if (overrides.streaming >= 0) {
            lp.streaming = overrides.streaming == 1;
        }
        plan.p = lp.p;
        plan.kSlices = std::max(1u, lp.kSlices);
        plan.streaming = lp.streaming;
        plan.predictedSeconds = lp.predictedSeconds;
        const LutShape shape(cfg, plan.p);
        if (plan.streaming) {
            plan.lutMramBytes = localutBytes(shape);
            plan.lutWramBytes =
                plan.kSlices * planner.slicePairBytes(plan.p);
        } else {
            plan.lutWramBytes = localutBytes(shape);
        }
        break;
      }
    }
    plan.groups =
        static_cast<unsigned>(ceilDiv(plan.k, std::size_t{plan.p}));
}

} // namespace

void
GemmEngine::refineLocalutPlan(GemmPlan& plan,
                              const PlanOverrides& overrides) const
{
    // The paper's Eq. 2-6 model considers LUT traffic only; for skinny
    // GEMMs (decode GEMVs) DMA setup and the cheaper p = 1 datapath can
    // flip the decision.  Cross-check every (p, placement) candidate with
    // the full event model and keep the best — the predictedSeconds field
    // still reports the paper model for Fig. 18.
    if (overrides.p || overrides.kSlices || overrides.streaming >= 0) {
        return; // explicit overrides are exact experiments; keep them
    }
    const LutPlanner planner(config_.dpu, plan.config);
    const PerfModel& model = planner.perfModel();
    const CostEvaluator eval(config_);

    GemmPlan best = plan;
    double bestSeconds =
        eval.timing(chargeCosts(plan), plan.dpusUsed()).total;
    for (unsigned p = 1; p <= model.pDramMax(); ++p) {
        for (int streaming = 0; streaming <= 1; ++streaming) {
            GemmPlan cand = plan;
            cand.p = p;
            cand.streaming = streaming == 1;
            if (cand.streaming) {
                const unsigned maxK = planner.maxKFor(p);
                if (maxK == 0) {
                    continue;
                }
                cand.kSlices = maxK;
                cand.lutMramBytes = localutBytes(LutShape(plan.config, p));
                cand.lutWramBytes = cand.kSlices * planner.slicePairBytes(p);
            } else {
                if (p > model.pLocalMax()) {
                    continue;
                }
                cand.kSlices = 1;
                cand.lutMramBytes = 0;
                cand.lutWramBytes = localutBytes(LutShape(plan.config, p));
            }
            cand.groups = static_cast<unsigned>(
                ceilDiv(cand.k, std::size_t{p}));
            const double t =
                eval.timing(chargeCosts(cand), cand.dpusUsed()).total;
            if (t < bestSeconds) {
                bestSeconds = t;
                best = cand;
            }
        }
    }
    best.predictedSeconds = plan.predictedSeconds;
    plan = best;
}

void
GemmEngine::choosePartition(const GemmProblem& problem, GemmPlan& plan,
                            const PlanOverrides& overrides) const
{
    const unsigned totalDpus = config_.totalDpus();
    const std::size_t m = problem.m(), n = problem.n();
    const CostEvaluator eval(config_);

    auto buildCandidate = [&](unsigned gM, unsigned gN) {
        GemmPlan cand(plan.design, plan.config);
        cand.m = plan.m;
        cand.k = plan.k;
        cand.n = plan.n;
        cand.gM = gM;
        cand.gN = gN;
        cand.tileM = static_cast<unsigned>(ceilDiv(m, std::size_t{gM}));
        cand.tileN = static_cast<unsigned>(ceilDiv(n, std::size_t{gN}));
        resolveDesign(cand, config_, overrides);
        if (cand.design == DesignPoint::LoCaLut) {
            refineLocalutPlan(cand, overrides);
        }
        return cand;
    };

    if (overrides.gM && overrides.gN) {
        LOCALUT_REQUIRE(overrides.gM * overrides.gN <= totalDpus,
                        "forced grid exceeds available DPUs");
        plan = buildCandidate(overrides.gM, overrides.gN);
        return;
    }

    double bestSeconds = std::numeric_limits<double>::infinity();
    GemmPlan best = plan;
    bool found = false;
    for (unsigned gN = 1;; gN *= 2) {
        const unsigned gNc =
            std::min<unsigned>(gN, static_cast<unsigned>(
                                       std::min<std::size_t>(n, totalDpus)));
        const unsigned gM = static_cast<unsigned>(std::min<std::size_t>(
            m, std::max<unsigned>(1, totalDpus / gNc)));
        GemmPlan cand = buildCandidate(gM, gNc);
        const KernelCost cost = chargeCosts(cand);
        const double t = eval.timing(cost, cand.dpusUsed()).total;
        if (t < bestSeconds) {
            bestSeconds = t;
            best = cand;
            found = true;
        }
        if (gNc != gN) {
            break; // clamped: further doubling changes nothing
        }
        if (static_cast<std::size_t>(gN) >= std::min<std::size_t>(
                                                n, totalDpus)) {
            break;
        }
    }
    LOCALUT_ASSERT(found, "partition search found no candidate");
    plan = best;
}

void
requireOperandShapes(const GemmProblem& problem)
{
    const QuantizedMatrix& w = problem.w;
    const QuantizedMatrix& a = problem.a;
    LOCALUT_REQUIRE(w.cols == a.rows, "GEMM shape mismatch: W ", w.rows,
                    "x", w.cols, " A ", a.rows, "x", a.cols);
    LOCALUT_REQUIRE(w.rows >= 1 && w.cols >= 1 && a.cols >= 1,
                    "empty GEMM: M=", w.rows, " K=", w.cols, " N=", a.cols,
                    " (every dimension must be >= 1)");
    LOCALUT_REQUIRE(w.codes.empty() || w.codes.size() == w.rows * w.cols,
                    "weight codes: ", w.codes.size(), " for a ", w.rows,
                    "x", w.cols, " matrix");
    LOCALUT_REQUIRE(a.codes.empty() || a.codes.size() == a.rows * a.cols,
                    "activation codes: ", a.codes.size(), " for a ",
                    a.rows, "x", a.cols, " matrix");
}

GemmPlan
GemmEngine::plan(const GemmProblem& problem, DesignPoint design,
                 const PlanOverrides& overrides) const
{
    requireOperandShapes(problem);
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();
    choosePartition(problem, plan, overrides);
    return plan;
}

GemmResult
GemmEngine::run(const GemmProblem& problem, const GemmPlan& plan,
                bool computeValues) const
{
    ExecOptions options;
    options.computeValues = computeValues;
    return run(problem, plan, options);
}

GemmResult
GemmEngine::run(const GemmProblem& problem, const GemmPlan& plan,
                const ExecOptions& options) const
{
    GemmResult result;
    result.cost = chargeCosts(plan);
    const CostEvaluator eval(config_);
    result.timing = eval.timing(result.cost, plan.dpusUsed());
    result.energy =
        eval.energy(result.cost, plan.dpusUsed(), result.timing);

    if (!options.computeValues) {
        return result;
    }
    // The functional pass runs on the prepared-operand execution engine
    // (kernels/exec_engine.h): every design point maps onto one of its
    // tiled kernels, reusing the options' prepared operand / arena /
    // tile executor when the caller supplies them.
    const bool isInt = plan.config.weightCodec.isInteger() &&
                       plan.config.actCodec.isInteger();
    if (isInt) {
        executeGemmInt(problem, plan, options, result.outInt);
    } else {
        LOCALUT_REQUIRE(plan.design != DesignPoint::Ltc,
                        "LTC functional path is integer-only");
        executeGemmFloat(problem, plan, options, result.outFloat);
    }
    return result;
}

GemmResult
GemmEngine::run(const GemmProblem& problem, DesignPoint design,
                bool computeValues, const PlanOverrides& overrides) const
{
    return run(problem, plan(problem, design, overrides), computeValues);
}

GemmProblem
makeRandomProblem(std::size_t m, std::size_t k, std::size_t n,
                  const QuantConfig& config, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> wData(m * k);
    for (auto& v : wData) {
        v = static_cast<float>(rng.nextGaussian());
    }
    std::vector<float> aData(k * n);
    for (auto& v : aData) {
        v = static_cast<float>(rng.nextGaussian());
    }
    GemmProblem problem;
    problem.w = Quantizer::quantize(wData, m, k, config.weightCodec);
    problem.a = Quantizer::quantize(aData, k, n, config.actCodec);
    return problem;
}

} // namespace localut
