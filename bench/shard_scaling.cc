/**
 * @file
 * Beyond-paper scaling study: tensor-parallel rank sharding of the
 * fig10 OPT decode workload (serving/sharding.h).  Sweeps the number of
 * logical PIM ranks and reports end-to-end latency, the collective
 * (all-gather) share, and the speedup over the unsharded baseline —
 * the capacity-computation tradeoff at the multi-rank level: more ranks
 * cut the per-rank GEMM slice but pay a fixed all-gather transfer, so
 * scaling is sublinear and saturates on the skinny decode GEMMs.
 */

#include "bench_util.h"

#include "common/table.h"

#include <string>
#include <vector>

using namespace localut;

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::header("shard scaling",
                  "OPT decode latency vs tensor-parallel rank count");

    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const unsigned steps = bench::smokeTrim(8u, 2u);
    const WorkloadSpec spec = WorkloadSpec::decode(model, 32, 128, steps);

    bench::section("end-to-end decode (batch 32, prompt 128, " +
                   std::to_string(steps) + " steps, W4A4, upmem)");
    double baseline = 0;
    Table table({"ranks", "total", "gemm", "collective", "host",
                 "speedup"});
    const std::vector<unsigned> rankCounts =
        bench::smokeTrim<std::vector<unsigned>>({1, 2, 4, 8, 16}, {1, 4});
    for (const unsigned ranks : rankCounts) {
        SessionOptions options;
        options.numRanks = ranks;
        InferenceSession session(makeBackend("upmem"), options);
        const auto workload =
            session.compile(spec, cfg, DesignPoint::LoCaLut);
        const InferenceReport report = session.run(workload);
        if (ranks == 1) {
            baseline = report.timing.total;
        }
        table.addRow({std::to_string(ranks),
                      bench::fmtSeconds(report.timing.total),
                      bench::fmtSeconds(report.gemmSeconds),
                      bench::fmtSeconds(report.collectiveSeconds),
                      bench::fmtSeconds(report.hostOpSeconds),
                      Table::fmt(baseline / report.timing.total, 3) + "x"});
    }
    table.print();

    bench::section("single decode GEMM (768x768x32), critical shard vs "
                   "all-gather");
    const BackendPtr backend = makeBackend("upmem");
    const GemmProblem decodeGemm =
        makeShapeOnlyProblem(model.hidden, model.hidden, 32, cfg);
    Table split({"ranks", "critical shard", "collective", "total"});
    for (const unsigned ranks : {2u, 4u}) {
        ShardSpec shard;
        shard.numRanks = ranks;
        const ShardPlan plan = makeShardPlan(
            *backend, decodeGemm, DesignPoint::LoCaLut, shard);
        const GemmResult r = executeSharded(
            *backend, decodeGemm, plan, /*computeValues=*/false);
        split.addRow({std::to_string(ranks),
                      bench::fmtSeconds(r.timing.total -
                                        plan.collectiveSeconds),
                      bench::fmtSeconds(plan.collectiveSeconds),
                      bench::fmtSeconds(r.timing.total)});
    }
    split.print();
    bench::note("each rank drains only its M/ranks x N slice, but the host "
                "link still moves all M*N*4 gathered bytes, so the "
                "collective does not shrink as the critical shard does.");

    return 0;
}
