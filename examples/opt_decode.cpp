/**
 * @file
 * OPT-125M autoregressive generation through the serving API: prefill of
 * a 128-token prompt followed by decode steps (paper Fig. 19a scenario),
 * dispatched as batched asynchronous requests on an InferenceSession.
 * Shows how the planner adapts the packing configuration to the skinny
 * decode GEMMs (N = batch) vs the wide prefill GEMMs (N = batch x seq),
 * how the PlanCache removes planner cost from repeated decode steps, and
 * that every design point produces the identical functional output on the
 * UPMEM backend and the host (reference) backend.
 */

#include <cstdio>

#include "localut.h"

int
main()
{
    using namespace localut;

    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig config = QuantConfig::preset("W4A4");
    const unsigned batch = 32;
    const unsigned prompt = 128;

    std::printf("%s, W4A4, batch %u, prompt %u tokens\n\n",
                model.name.c_str(), batch, prompt);

    InferenceSession session(makeBackend("upmem"));

    // Show the planner's per-phase choices on the core GEMM shapes.
    for (const auto& [label, n] :
         std::initializer_list<std::pair<const char*, std::size_t>>{
             {"prefill GEMM (N = batch*seq)", std::size_t{batch} * prompt},
             {"decode GEMM  (N = batch)", std::size_t{batch}}}) {
        const GemmProblem gemm =
            makeShapeOnlyProblem(model.hidden, model.hidden, n, config);
        const GemmPlan plan = session.plan(gemm, DesignPoint::LoCaLut);
        std::printf("%-30s -> p=%u, k=%u, %s, grid %ux%u\n", label, plan.p,
                    plan.kSlices,
                    plan.streaming ? "streaming" : "buffer-resident",
                    plan.gM, plan.gN);
    }

    // Compile each phase once and run it: a workload is modeled cost
    // only, so run() returns its report on the calling thread.
    const double pre =
        session
            .run(session.compile(WorkloadSpec::prefill(model, batch, prompt),
                                 config, DesignPoint::LoCaLut))
            .timing.total;

    std::printf("\n%-14s %-12s %-12s %-12s %s\n", "output tokens",
                "prefill", "decode", "total", "decode speedup vs OP");
    for (const unsigned out : {4u, 8u, 16u, 32u}) {
        const WorkloadSpec decode =
            WorkloadSpec::decode(model, batch, prompt, out);
        const double dec =
            session.run(session.compile(decode, config, DesignPoint::LoCaLut))
                .timing.total;
        const double decOp =
            session.run(session.compile(decode, config, DesignPoint::OpLut))
                .timing.total;
        std::printf("%-14u %9.2f ms %9.2f ms %9.2f ms   %.2fx\n", out,
                    pre * 1e3, dec * 1e3, (pre + dec) * 1e3, decOp / dec);
    }

    // The decode shapes repeat across requests, so after the first
    // compile every further decode length reuses cached plans.
    const PlanCache::Stats stats = session.planCacheStats();
    std::printf("\nplan cache: %llu hits / %llu misses (%.0f%% hit rate, "
                "%zu plans)\n",
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                100.0 * stats.hitRate(), stats.entries);
    if (stats.hits == 0) {
        std::printf("ERROR: decode steps did not reuse cached plans\n");
        return 1;
    }

    // Multi-backend parity: every design point, executed functionally on
    // the decode GEMM shape, must be bit-exact across the UPMEM backend
    // and the host reference backend.
    std::printf("\nfunctional parity on the decode GEMM "
                "(UPMEM vs host-cpu):\n");
    InferenceSession hostSession(makeBackend("host-cpu"));
    const GemmProblem decodeGemm = makeRandomProblem(
        model.hidden, model.hidden, batch, config, /*seed=*/1);
    bool allMatch = true;
    for (DesignPoint dp :
         {DesignPoint::NaivePim, DesignPoint::Ltc, DesignPoint::OpLutDram,
          DesignPoint::OpLut, DesignPoint::OpLc, DesignPoint::OpLcRc,
          DesignPoint::LoCaLut}) {
        const auto upmemId =
            session.submit(decodeGemm, dp, /*computeValues=*/true);
        const auto hostId =
            hostSession.submit(decodeGemm, dp, /*computeValues=*/true);
        const GemmResult upmemResult = session.wait(upmemId);
        const GemmResult hostResult = hostSession.wait(hostId);
        const bool match = upmemResult.outInt == hostResult.outInt;
        allMatch = allMatch && match;
        std::printf("  %-10s upmem %9.3f us | host-cpu %9.3f us | %s\n",
                    designPointName(dp), upmemResult.timing.total * 1e6,
                    hostResult.timing.total * 1e6,
                    match ? "bit-exact" : "MISMATCH!");
    }
    if (!allMatch) {
        std::printf("ERROR: backend outputs diverged\n");
        return 1;
    }

    // Tensor-parallel rank sharding: a session with numRanks > 1 cuts
    // every GEMM column-parallel across that many logical PIM ranks
    // (head-aligned for QKV), executes the shards concurrently as one
    // tile batch, and charges the all-gather explicitly —
    // bit-exact with the unsharded path, faster end to end.
    std::printf("\nsharded decode (8 output tokens) vs ranks:\n");
    double unshardedDecode = 0;
    for (unsigned ranks : {1u, 2u, 4u}) {
        SessionOptions options;
        options.numRanks = ranks;
        InferenceSession sharded(makeBackend("upmem"), options);
        const auto work =
            sharded.compile(WorkloadSpec::decode(model, batch, prompt, 8),
                            config, DesignPoint::LoCaLut);
        const InferenceReport report = sharded.run(work);
        if (ranks == 1) {
            unshardedDecode = report.timing.total;
        }
        const auto gemmId = sharded.submit(decodeGemm, DesignPoint::LoCaLut,
                                           /*computeValues=*/true);
        const bool exact = sharded.wait(gemmId).outInt ==
                           referenceGemmInt(decodeGemm.w, decodeGemm.a);
        std::printf("  ranks=%u  decode %9.2f ms  (all-gather %6.2f ms, "
                    "%.2fx vs 1 rank)  GEMM %s\n",
                    ranks, report.timing.total * 1e3,
                    report.collectiveSeconds * 1e3,
                    unshardedDecode / report.timing.total,
                    exact ? "bit-exact" : "MISMATCH!");
        if (!exact) {
            return 1;
        }
    }

    // LUT residency: with a residency policy enabled, the session tracks
    // which (layer, projection) table sets are MRAM-resident.  The first
    // decode step broadcasts every layer's canonical + reordering tables
    // host -> PIM (Phase::LutBroadcast); later steps find them resident
    // and pay nothing — cold-start vs steady-state serving, distinguished
    // in the report for the first time.
    std::printf("\nwarm decode with LUT residency "
                "(mramBudgetBytes = backend default):\n");
    SessionOptions resident;
    resident.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession warmSession(makeBackend("upmem"), resident);
    const auto oneStep = warmSession.compile(
        WorkloadSpec::decode(model, batch, prompt, 1), config,
        DesignPoint::LoCaLut);
    double coldStep = 0, warmStep = 0;
    for (unsigned step = 0; step < 8; ++step) {
        const InferenceReport r = warmSession.run(oneStep);
        if (step == 0) {
            coldStep = r.timing.total;
            std::printf("  step 1 (cold): %8.3f ms  (table broadcast "
                        "%.3f ms, %s)\n",
                        r.timing.total * 1e3,
                        r.lutBroadcastSeconds * 1e3,
                        r.coldStart() ? "cold start" : "warm");
        } else {
            warmStep = r.timing.total;
        }
    }
    const ResidencyStats resStats = warmSession.residencyStats();
    std::printf("  steps 2..8:    %8.3f ms  (steady state, no broadcast)\n",
                warmStep * 1e3);
    std::printf("  residency: %llu hits / %llu misses, %.2f MiB "
                "broadcast, %llu resident sets\n",
                static_cast<unsigned long long>(resStats.hits),
                static_cast<unsigned long long>(resStats.misses),
                resStats.broadcastBytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(resStats.tableSets));
    if (!(warmStep < coldStep)) {
        std::printf("ERROR: steady-state step is not below cold start\n");
        return 1;
    }
    return 0;
}
