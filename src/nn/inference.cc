#include "nn/inference.h"

#include <utility>

#include "backend/upmem_backend.h"
#include "common/logging.h"

namespace localut {

GemmProblem
makeShapeOnlyProblem(std::size_t m, std::size_t k, std::size_t n,
                     const QuantConfig& config)
{
    GemmProblem problem;
    problem.w.rows = m;
    problem.w.cols = k;
    problem.w.codec = config.weightCodec;
    problem.a.rows = k;
    problem.a.cols = n;
    problem.a.codec = config.actCodec;
    return problem;
}

TransformerRunner::TransformerRunner(const PimSystemConfig& system,
                                     const QuantConfig& quant,
                                     DesignPoint design,
                                     const PlanOverrides& overrides)
    : TransformerRunner(std::make_shared<const UpmemBackend>(system), quant,
                        design, overrides)
{}

TransformerRunner::TransformerRunner(BackendPtr backend,
                                     const QuantConfig& quant,
                                     DesignPoint design,
                                     const PlanOverrides& overrides)
    : backend_(std::move(backend)), quant_(quant), design_(design),
      overrides_(overrides)
{
    LOCALUT_REQUIRE(backend_ != nullptr, "TransformerRunner needs a backend");
}

InferenceReport
TransformerRunner::run(const WorkloadSpec& spec) const
{
    std::vector<PlannedGemm> nodes;
    for (const WorkloadGemm& gemm : workloadGemms(spec)) {
        const GemmProblem problem =
            makeShapeOnlyProblem(gemm.m, gemm.k, gemm.n, quant_);
        nodes.push_back(
            {gemm, cache_.planFor(*backend_, problem, design_, overrides_)});
    }
    InferenceReport report = priceWorkloadGemms(*backend_, nodes, quant_);
    chargeWorkloadHostOps(*backend_, workloadHostOps(spec), report);
    return report;
}

InferenceReport
TransformerRunner::prefill(const TransformerConfig& model, unsigned batch,
                           unsigned seqLen) const
{
    return run(WorkloadSpec::prefill(model, batch, seqLen));
}

InferenceReport
TransformerRunner::decode(const TransformerConfig& model, unsigned batch,
                          unsigned promptLen, unsigned steps) const
{
    return run(WorkloadSpec::decode(model, batch, promptLen, steps));
}

} // namespace localut
