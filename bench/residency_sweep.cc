/**
 * @file
 * Residency sweep: cold vs warm OPT decode serving across per-unit MRAM
 * table budgets.  A fig10-class OPT-125M decode is served one step at a
 * time through an InferenceSession with the LUT residency manager
 * enabled; with a generous budget the first step broadcasts every
 * (layer, projection) table set host -> PIM and later steps run warm,
 * while shrinking budgets force cost-aware eviction and re-broadcast
 * until, at the low end, every step pays the transfer again (thrash).
 */

#include "bench_util.h"

#include "common/table.h"

using namespace localut;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::header("residency", "cold vs warm decode across MRAM budgets");

    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig config = QuantConfig::preset("W4A4");
    const unsigned batch = 32;
    const unsigned prompt = 128;
    const unsigned steps = bench::smokeTrim(32u, 4u);

    bench::note("OPT-125M W4A4, batch 32, prompt 128, " +
                std::to_string(steps) +
                " decode steps served one step at a time; budget is "
                "per-DPU MRAM bytes for resident table sets.");

    // Working-set size: sum of every node's per-layer table instances.
    InferenceSession probe(makeBackend("upmem"));
    const auto probeStep = probe.compile(
        WorkloadSpec::decode(model, batch, prompt, 1), config,
        DesignPoint::LoCaLut);
    double workingSet = 0;
    for (const auto& node : probeStep.nodes) {
        workingSet += static_cast<double>(tableSetBytes(node.plan)) *
                      node.gemm.count;
    }
    const MemoryProfile mem = probe.backend().memoryProfile();
    bench::note("table working set: " + bench::fmtBytes(workingSet) +
                " across " + std::to_string(probeStep.nodes.size()) +
                " table-set groups (physical, replicated to all " +
                std::to_string(mem.unitsPerRank) + " DPUs of a rank: " +
                bench::fmtBytes(workingSet *
                                static_cast<double>(mem.unitsPerRank)) +
                "; rank table capacity " +
                bench::fmtBytes(
                    static_cast<double>(mem.lutBytesPerRank())) +
                ")");

    const std::vector<std::uint64_t> budgets = bench::smokeTrim<
        std::vector<std::uint64_t>>(
        {0 /*backend default*/, std::uint64_t{16} << 20,
         std::uint64_t{4} << 20, std::uint64_t{1} << 20,
         std::uint64_t{256} << 10, std::uint64_t{64} << 10},
        {0 /*backend default*/, std::uint64_t{1} << 20});

    Table table({"budget", "cold step", "warm step", "cold/warm",
                 "hit rate", "evict", "rebroadcast", "bcast bytes"});
    for (const std::uint64_t budget : budgets) {
        SessionOptions options;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        options.mramBudgetBytes = budget;
        InferenceSession session(makeBackend("upmem"), options);
        const auto step = session.compile(
            WorkloadSpec::decode(model, batch, prompt, 1), config,
            DesignPoint::LoCaLut);

        double coldStep = 0, warmSum = 0;
        for (unsigned s = 0; s < steps; ++s) {
            const double t = session.run(step).timing.total;
            if (s == 0) {
                coldStep = t;
            } else {
                warmSum += t;
            }
        }
        const double warmStep = warmSum / (steps - 1);
        const ResidencyStats stats = session.residencyStats();
        table.addRow({
            budget == 0 ? "default (" +
                              bench::fmtBytes(static_cast<double>(
                                  mem.lutBytesPerUnit)) +
                              ")"
                        : bench::fmtBytes(static_cast<double>(budget)),
            bench::fmtSeconds(coldStep),
            bench::fmtSeconds(warmStep),
            Table::fmt(coldStep / warmStep, 4) + "x",
            Table::fmt(100.0 * stats.hitRate(), 4) + "%",
            std::to_string(stats.evictions),
            std::to_string(stats.rebroadcasts),
            bench::fmtBytes(stats.broadcastBytes),
        });
    }
    table.print();
    bench::note("expected shape: generous budgets pay the broadcast once "
                "(cold/warm > 1, zero evictions); budgets below the "
                "working set thrash (hit rate drops toward 0, warm step "
                "approaches cold step).");
    return 0;
}
