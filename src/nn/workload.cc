#include "nn/workload.h"

#include "common/logging.h"
#include "nn/inference.h"

namespace localut {

namespace {

/** Host scalar-op estimates for the non-GEMM transformer work. */
constexpr double kLayerNormOpsPerElem = 8.0;
constexpr double kGeluOpsPerElem = 8.0;
constexpr double kSoftmaxOpsPerElem = 10.0;
constexpr double kResidualOpsPerElem = 1.0;
/**
 * Dense attention score/value products vectorize on AVX-512 (unlike the
 * transcendental-heavy softmax/GELU/norm work), so their MACs cost a
 * fraction of a scalar-equivalent op.
 */
constexpr double kVectorizedMacDiscount = 0.25;

} // namespace

WorkloadSpec
WorkloadSpec::prefill(const TransformerConfig& model, unsigned batch,
                      unsigned seqLen)
{
    LOCALUT_REQUIRE(batch >= 1 && seqLen >= 1, "degenerate prefill shape");
    WorkloadSpec spec;
    spec.model = model;
    spec.phase = WorkloadPhase::Prefill;
    spec.batch = batch;
    spec.seqLen = seqLen;
    return spec;
}

WorkloadSpec
WorkloadSpec::decode(const TransformerConfig& model, unsigned batch,
                     unsigned promptLen, unsigned steps)
{
    LOCALUT_REQUIRE(batch >= 1, "degenerate decode batch");
    LOCALUT_REQUIRE(steps >= 1, "decode needs at least one step");
    WorkloadSpec spec;
    spec.model = model;
    spec.phase = WorkloadPhase::Decode;
    spec.batch = batch;
    spec.seqLen = promptLen;
    spec.steps = steps;
    return spec;
}

WorkloadSpec
WorkloadSpec::decodeStep(const TransformerConfig& model, unsigned batch,
                         unsigned seqPos)
{
    // A decode step at position p is a one-step decode whose "prompt" is
    // the p tokens of context already cached: its host attention runs
    // over p + 1 tokens, matching term t = p - promptLen of a whole
    // decode()'s context loop.
    return decode(model, batch, seqPos, /*steps=*/1);
}

std::vector<WorkloadGemm>
workloadGemms(const WorkloadSpec& spec)
{
    const double layers = spec.model.layers;
    const std::size_t h = spec.model.hidden;
    const std::size_t f = spec.model.ffnHidden;

    // PIM GEMMs per layer: Q, K, V projections, output projection, FFN up
    // and down (paper Fig. 8).  Prefill folds batch * seq into N; decode
    // runs GEMV-like GEMMs with N = batch once per step.
    std::size_t n;
    double repeats;
    if (spec.phase == WorkloadPhase::Prefill) {
        n = static_cast<std::size_t>(spec.batch) * spec.seqLen;
        repeats = layers;
    } else {
        n = spec.batch;
        repeats = layers * spec.steps;
    }
    // QKV output rows group into attention heads, so sharded executions
    // align their boundaries to headDim (head-parallel attention).
    return {
        {h, h, n, 3.0 * repeats, "qkv", spec.model.headDim()},
        {h, h, n, repeats, "out_proj", 1},
        {f, h, n, repeats, "ffn_up", 1},
        {h, f, n, repeats, "ffn_down", 1},
    };
}

double
workloadHostOps(const WorkloadSpec& spec)
{
    const double layers = spec.model.layers;
    const std::size_t h = spec.model.hidden;
    const std::size_t f = spec.model.ffnHidden;

    if (spec.phase == WorkloadPhase::Prefill) {
        // Attention score (QK^T) and value (PV) products, softmax, two
        // layer norms, GELU, residual adds.
        const double tokens =
            static_cast<double>(spec.batch) * spec.seqLen;
        const double s = spec.seqLen;
        const double attnMacs = 2.0 * spec.batch * spec.model.heads * s *
                                s * spec.model.headDim();
        const double softmaxOps =
            kSoftmaxOpsPerElem * spec.batch * spec.model.heads * s * s;
        const double lnOps =
            2.0 * kLayerNormOpsPerElem * tokens * static_cast<double>(h);
        const double geluOps =
            kGeluOpsPerElem * tokens * static_cast<double>(f);
        const double resOps =
            2.0 * kResidualOpsPerElem * tokens * static_cast<double>(h);
        return layers * (2.0 * kVectorizedMacDiscount * attnMacs +
                         softmaxOps + lnOps + geluOps + resOps);
    }

    // Decode: host attention runs against the KV context, which grows
    // from the prompt across the generated steps.
    double attnOps = 0.0;
    for (unsigned t = 0; t < spec.steps; ++t) {
        const double ctx = spec.seqLen + t + 1;
        attnOps += 2.0 * 2.0 * kVectorizedMacDiscount * spec.batch *
                   spec.model.heads * ctx * spec.model.headDim();
        attnOps += kSoftmaxOpsPerElem * spec.batch * spec.model.heads * ctx;
    }
    const double tokens = static_cast<double>(spec.batch) * spec.steps;
    const double lnOps =
        2.0 * kLayerNormOpsPerElem * tokens * static_cast<double>(h);
    const double geluOps =
        kGeluOpsPerElem * tokens * static_cast<double>(f);
    const double resOps =
        2.0 * kResidualOpsPerElem * tokens * static_cast<double>(h);
    return layers * (attnOps + lnOps + geluOps + resOps);
}

InferenceReport
priceWorkloadGemms(const Backend& backend,
                   const std::vector<PlannedGemm>& nodes,
                   const QuantConfig& quant)
{
    InferenceReport report;
    for (const PlannedGemm& node : nodes) {
        const GemmProblem problem = makeShapeOnlyProblem(
            node.gemm.m, node.gemm.k, node.gemm.n, quant);
        const GemmResult r =
            backend.execute(problem, node.plan, /*computeValues=*/false);
        accumulate(report.timing, r.timing, node.gemm.count);
        accumulate(report.energy, r.energy, node.gemm.count);
        report.gemmSeconds += r.timing.total * node.gemm.count;
    }
    return report;
}

void
chargeWorkloadHostOps(const Backend& backend, double hostOps,
                      InferenceReport& report)
{
    TimingReport hostTiming;
    EnergyReport hostEnergy;
    backend.chargeHostOps(hostOps, hostTiming, hostEnergy);
    accumulate(report.timing, hostTiming);
    accumulate(report.energy, hostEnergy);
    report.hostOpSeconds += hostTiming.total;
}

} // namespace localut
