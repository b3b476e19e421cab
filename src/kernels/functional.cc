#include "kernels/functional.h"

#include "common/bitops.h"
#include "common/logging.h"
#include "kernels/exec_engine.h"

namespace localut {
namespace functional {

namespace {

/**
 * Synthetic plan for a direct functional call: the legacy entry points
 * specify (design point, p, reorder mode, slice window) explicitly, so
 * translate that into the engine's plan vocabulary.  All legacy entry
 * points run on the prepared-operand engine with an ad-hoc preparation
 * — one inner-loop implementation, identical outputs — while shared LUT
 * tables come from the global table cache so repeated calls stop
 * rebuilding them.
 */
GemmPlan
planFor(const GemmProblem& problem, DesignPoint design, unsigned p,
        bool streaming, unsigned kSlices)
{
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();
    plan.p = p;
    plan.streaming = streaming;
    plan.kSlices = std::max(1u, kSlices);
    plan.groups =
        static_cast<unsigned>(ceilDiv(plan.k, std::size_t{plan.p}));
    return plan;
}

DesignPoint
designForMode(ReorderMode mode)
{
    switch (mode) {
      case ReorderMode::Explicit:    return DesignPoint::OpLc;
      case ReorderMode::ReorderLut:  return DesignPoint::OpLcRc;
      case ReorderMode::SliceStream: return DesignPoint::LoCaLut;
    }
    LOCALUT_PANIC("invalid reorder mode");
}

} // namespace

std::vector<std::int32_t>
opInt(const GemmProblem& problem, unsigned p)
{
    const GemmPlan plan =
        planFor(problem, DesignPoint::OpLut, p, false, 1);
    std::vector<std::int32_t> out;
    executeGemmInt(problem, plan, {}, out);
    return out;
}

std::vector<float>
opFloat(const GemmProblem& problem, unsigned p)
{
    const GemmPlan plan =
        planFor(problem, DesignPoint::OpLut, p, false, 1);
    std::vector<float> out;
    executeGemmFloat(problem, plan, {}, out);
    return out;
}

std::vector<std::int32_t>
canonicalInt(const GemmProblem& problem, unsigned p, ReorderMode mode,
             unsigned kSlices)
{
    const GemmPlan plan =
        planFor(problem, designForMode(mode), p,
                mode == ReorderMode::SliceStream, kSlices);
    std::vector<std::int32_t> out;
    executeGemmInt(problem, plan, {}, out);
    return out;
}

std::vector<float>
canonicalFloat(const GemmProblem& problem, unsigned p, ReorderMode mode,
               unsigned kSlices)
{
    const GemmPlan plan =
        planFor(problem, designForMode(mode), p,
                mode == ReorderMode::SliceStream, kSlices);
    std::vector<float> out;
    executeGemmFloat(problem, plan, {}, out);
    return out;
}

std::vector<float>
opFloatVirtual(const GemmProblem& problem, unsigned p)
{
    const QuantizedMatrix& w = problem.w;
    const QuantizedMatrix& a = problem.a;
    const std::size_t m = w.rows, k = w.cols, n = a.cols;
    const unsigned groups = static_cast<unsigned>(ceilDiv(k, std::size_t{p}));
    std::vector<float> out(m * n, 0.0f);
    for (std::size_t mm = 0; mm < m; ++mm) {
        for (std::size_t nn = 0; nn < n; ++nn) {
            float acc = 0.0f;
            for (unsigned g = 0; g < groups; ++g) {
                float entry = 0.0f;
                for (unsigned i = 0; i < p; ++i) {
                    const std::size_t kk =
                        static_cast<std::size_t>(g) * p + i;
                    const std::uint16_t wc =
                        kk < k ? w.at(mm, kk) : std::uint16_t{0};
                    const std::uint16_t ac =
                        kk < k ? a.at(kk, nn) : std::uint16_t{0};
                    entry += w.codec.decode(wc) * a.codec.decode(ac);
                }
                // The entry the packed LUT would have stored (b_o = 2).
                acc += roundToFp16(entry);
            }
            out[mm * n + nn] = acc;
        }
    }
    return out;
}

} // namespace functional
} // namespace localut
