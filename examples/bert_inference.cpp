/**
 * @file
 * End-to-end BERT-base inference through the serving API (paper Fig. 8
 * execution flow): compile the prefill workload once per configuration,
 * run each through one session, and print the phase breakdown that
 * corresponds to the paper's Fig. 16(a).
 */

#include <cstdio>

#include "localut.h"

int
main()
{
    using namespace localut;

    const TransformerConfig model = TransformerConfig::bertBase();
    std::printf("%s: %u layers, hidden %u, ~%.1fM transformer parameters\n",
                model.name.c_str(), model.layers, model.hidden,
                static_cast<double>(model.parameterCount()) / 1e6);

    const unsigned batch = 32;
    const unsigned seq = 128;
    std::printf("batch %u x seq %u  (GLUE-style maximum length)\n\n", batch,
                seq);
    const WorkloadSpec prefill = WorkloadSpec::prefill(model, batch, seq);

    // One session serves every configuration: run the NaivePIM and
    // LoCaLUT variants of all four presets.
    InferenceSession session(makeBackend("upmem"));
    for (const char* preset : {"W1A3", "W1A4", "W2A2", "W4A4"}) {
        const QuantConfig config = QuantConfig::preset(preset);
        const InferenceReport rn = session.run(
            session.compile(prefill, config, DesignPoint::NaivePim));
        const InferenceReport rl = session.run(
            session.compile(prefill, config, DesignPoint::LoCaLut));
        std::printf("%s: NaivePIM %7.2f ms | LoCaLUT %7.2f ms | "
                    "speedup %.2fx | energy %.1f J -> %.1f J\n",
                    preset, rn.timing.total * 1e3,
                    rl.timing.total * 1e3,
                    rn.timing.total / rl.timing.total, rn.energy.total,
                    rl.energy.total);
    }

    // Phase breakdown for W1A3 (the paper's Fig. 16a categories).
    const InferenceReport report = session.run(session.compile(
        prefill, QuantConfig::preset("W1A3"), DesignPoint::LoCaLut));
    std::printf("\nW1A3 phase breakdown (total %.2f ms):\n",
                report.timing.total * 1e3);
    for (const auto& [name, seconds] : report.timing.seconds.items()) {
        std::printf("  %-22s %8.3f ms  (%5.1f%%)\n", name.c_str(),
                    seconds * 1e3,
                    100.0 * seconds / report.timing.total);
    }
    return 0;
}
