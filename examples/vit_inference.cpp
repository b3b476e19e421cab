/**
 * @file
 * ViT-Base image classification through the serving API, on two PIM
 * backends side by side: the UPMEM server model and the bank-level PIM
 * redesign (paper Section VI-K).  Also exercises the floating-point
 * symbol path (Fig. 21): LUT entries are precision-agnostic, so the same
 * machinery serves FP4 activation symbols — this example runs a real FP4
 * canonical-LUT GEMM and checks its numerics against the float reference.
 */

#include <cmath>
#include <cstdio>

#include "localut.h"

int
main()
{
    using namespace localut;

    const TransformerConfig model = TransformerConfig::vitBase();
    std::printf("%s: %u tokens per image (196 patches + CLS)\n\n",
                model.name.c_str(), model.defaultSeqLen);
    const WorkloadSpec prefill =
        WorkloadSpec::prefill(model, 32, model.defaultSeqLen);

    // Integer path: W2A2 and W4A4 as in the paper's Fig. 10, on both PIM
    // backends (LoCaLUT vs each backend's MAC baseline).
    for (const char* backendName : {"upmem", "bankpim"}) {
        InferenceSession session{std::string(backendName)};
        std::printf("%s backend:\n", backendName);
        for (const char* preset : {"W2A2", "W4A4"}) {
            const QuantConfig config = QuantConfig::preset(preset);
            const double tn =
                session
                    .run(session.compile(prefill, config,
                                         DesignPoint::NaivePim))
                    .timing.total;
            const double tl =
                session
                    .run(session.compile(prefill, config,
                                         DesignPoint::LoCaLut))
                    .timing.total;
            std::printf("  %s: MAC baseline %7.2f ms | LoCaLUT %7.2f ms "
                        "| %.2fx\n",
                        preset, tn * 1e3, tl * 1e3, tn / tl);
        }
    }

    // Floating-point symbols: FP4 activations through a canonical LUT
    // with fp16-rounded entries (numbers are just symbols to a LUT).
    std::printf("\nFP4-activation canonical-LUT GEMM (W1A4-fp):\n");
    const QuantConfig fpConfig = QuantConfig::fpPreset(1, 4);
    const GemmProblem problem = makeRandomProblem(64, 96, 16, fpConfig, 7);
    const auto exact = referenceGemmFloat(problem.w, problem.a);
    const auto viaLut = functional::canonicalFloat(
        problem, 4, functional::ReorderMode::SliceStream, 2);
    double maxRel = 0.0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
        const double denom =
            std::max(1.0, static_cast<double>(std::fabs(exact[i])));
        maxRel = std::max(
            maxRel, static_cast<double>(std::fabs(viaLut[i] - exact[i])) /
                        denom);
    }
    std::printf("  max relative deviation vs float reference: %.4g "
                "(fp16 entry rounding only)\n", maxRel);
    return 0;
}
