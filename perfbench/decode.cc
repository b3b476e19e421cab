/**
 * @file
 * `decode`: closed-loop OPT-125M decode at batch 8 through a 4-rank
 * tensor-parallel session.  One client submits a step's 72 GEMMs (per
 * layer q, k, v, out_proj, ffn_up, ffn_down) one at a time, each after
 * the previous one returns, with values on.  Skinny, latency-bound GEMMs
 * on shard slices: kernels, tile fan-out, sharding, the prepared-operand
 * cache and weight fingerprinting do the work.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"

namespace perfbench {

using namespace localut;

namespace {

constexpr unsigned kBatch = 8;
constexpr unsigned kRanks = 4;
/** Activation sets per GEMM; steps cycle through them so consecutive
 * steps see different inputs while references stay precomputable. */
constexpr unsigned kActPool = 2;
/** Steady steps folded into the modeled digest; always run. */
constexpr unsigned kDigestSteps = 2;
/** Executions per slice shape when timing tile scaling. */
constexpr unsigned kTileReps = 6;

struct DecodeGemm {
    const char* role = "";
    QuantizedMatrix w;
    std::vector<QuantizedMatrix> acts;            ///< one per pool slot
    std::vector<std::vector<std::int32_t>> refs;  ///< referenceGemmInt
};

std::vector<DecodeGemm>
makeInputs(std::uint64_t seed)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig quant = benchQuant();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xdec0de);
    const auto shapes = workloadGemms(
        WorkloadSpec::decodeStep(model, kBatch, model.defaultSeqLen));
    std::vector<DecodeGemm> gemms;
    for (unsigned layer = 0; layer < model.layers; ++layer) {
        for (const WorkloadGemm& shape : shapes) {
            const auto perLayer =
                static_cast<unsigned>(shape.count / model.layers);
            for (unsigned c = 0; c < perLayer; ++c) {
                DecodeGemm gemm;
                gemm.role = shape.role;
                gemm.w = randomMatrix(shape.m, shape.k, quant.weightCodec,
                                      rng);
                for (unsigned s = 0; s < kActPool; ++s) {
                    gemm.acts.push_back(randomMatrix(shape.k, shape.n,
                                                     quant.actCodec, rng));
                }
                gemms.push_back(std::move(gemm));
            }
        }
    }
    std::vector<std::pair<const QuantizedMatrix*, const QuantizedMatrix*>>
        pairs;
    for (const DecodeGemm& gemm : gemms) {
        for (const QuantizedMatrix& act : gemm.acts) {
            pairs.emplace_back(&gemm.w, &act);
        }
    }
    auto refs = referenceGemms(pairs);
    std::size_t i = 0;
    for (DecodeGemm& gemm : gemms) {
        for (unsigned s = 0; s < kActPool; ++s) {
            gemm.refs.push_back(std::move(refs[i++]));
        }
    }
    return gemms;
}

SessionOptions
sessionOptions()
{
    SessionOptions options;
    options.numRanks = kRanks;
    options.residencyPolicy = ResidencyPolicy::CostAware;
    return options;
}

struct StepResult {
    double host = 0;  ///< wall seconds of the step
    double model = 0; ///< modeled seconds summed over its GEMMs
};

/** One decode step: 72 closed-loop GEMMs checked bit-exact. */
StepResult
runStep(InferenceSession& session, const std::vector<DecodeGemm>& gemms,
        unsigned slot, SpanLog* log, Digest* digest, Report& report)
{
    StepResult out;
    const auto start = Clock::now();
    for (std::size_t g = 0; g < gemms.size(); ++g) {
        const DecodeGemm& gemm = gemms[g];
        GemmProblem problem{gemm.w, gemm.acts[slot]};
        ++report.attempted;
        try {
            ScopedSpan gemmSpan(log, "decode.gemm", g + 1);
            InferenceSession::RequestId id = 0;
            {
                ScopedSpan span(log, "session.submit", g + 1);
                id = session.submit(std::move(problem), kDesign,
                                    /*computeValues=*/true);
            }
            GemmResult result;
            {
                ScopedSpan span(log, "session.wait", g + 1);
                result = session.wait(id);
            }
            if (result.outInt != gemm.refs[slot]) {
                ++report.failed;
                report.fail(std::string("decode ") + gemm.role +
                            " GEMM diverged from referenceGemmInt");
            }
            out.model += result.timing.total;
            if (digest != nullptr) {
                digest->add(result.timing.total);
                digest->add(result.timing.dpuSeconds);
                digest->add(result.timing.linkSeconds);
                digest->add(result.timing.hostSeconds);
            }
        } catch (const std::exception& e) {
            ++report.failed;
            report.fail(std::string("decode GEMM threw: ") + e.what());
        }
    }
    out.host = secondsSince(start);
    return out;
}

/** Set-ups followed by steady steps on the last set-up's session. */
struct Pass {
    std::vector<double> setups;
    std::vector<double> steadyHost;
    double modelStep = 0; ///< modeled seconds of the first steady step
    Digest digest;        ///< cold step + kDigestSteps steady steps
    double from = 0, to = 0;
    unsigned steps = 0;
    unsigned workers = 0;
    PlanCache::Stats before, after;
    ResidencyStats residency;
};

Pass
runPass(const std::vector<DecodeGemm>& gemms, const BackendPtr& backend,
        bool timeSetup, double seconds, SpanLog* log, Report& report)
{
    Pass pass;
    std::unique_ptr<InferenceSession> session;
    while (moreSetups(pass.setups, timeSetup)) {
        session.reset();
        // Set-up builds LUT tables too: start every set-up from an empty
        // process-wide table cache.
        LutTableCache::global().clear();
        Digest cold;
        const auto start = Clock::now();
        session = std::make_unique<InferenceSession>(backend,
                                                     sessionOptions());
        runStep(*session, gemms, 0, log, &cold, report);
        pass.setups.push_back(secondsSince(start));
        pass.digest = cold;
    }
    pass.workers = session->workerCount();
    pass.before = session->planCacheStats();
    pass.from = log != nullptr ? log->now() : 0;
    const auto start = Clock::now();
    for (unsigned step = 1;; ++step) {
        const StepResult r =
            runStep(*session, gemms, step % kActPool, log,
                    step <= kDigestSteps ? &pass.digest : nullptr, report);
        pass.steadyHost.push_back(r.host);
        if (step == 1) {
            pass.modelStep = r.model;
        }
        pass.steps = step;
        if (step >= kDigestSteps && secondsSince(start) >= seconds) {
            break;
        }
    }
    pass.to = log != nullptr ? log->now() : 0;
    pass.after = session->planCacheStats();
    pass.residency = session->residencyStats();
    return pass;
}

/**
 * Host cost of fingerprinting and preparing one step's shard slices,
 * timed on the workload's own weights (the work a step pays when the
 * prepared-operand cache misses), plus tile scaling on the slice shapes.
 */
void
measureSliceLayers(const std::vector<DecodeGemm>& gemms, Report& report)
{
    const BackendPtr backend = makeBackend(kBackendName);
    PlanCache cache;
    ShardSpec spec;
    spec.numRanks = kRanks;
    double fingerprint = 0, prepare = 0;
    // Tile scaling: one prepared slice per distinct slice shape, weighted
    // by how many such slices a step executes.
    struct ScaleCase {
        GemmProblem slice;
        GemmPlan plan;
        std::shared_ptr<PreparedGemm> prepared;
        std::vector<std::int32_t> ref;
        double weight = 0;
    };
    std::vector<ScaleCase> scaleCases;
    for (const DecodeGemm& gemm : gemms) {
        const GemmProblem problem{gemm.w, gemm.acts[0]};
        const ShardPlan shardPlan =
            cache.shardPlanFor(*backend, problem, kDesign, spec);
        for (unsigned s = 0; s < shardPlan.shards.size(); ++s) {
            const GemmProblem slice = shardProblem(problem, shardPlan, s);
            const GemmPlan& plan = shardPlan.shards[s].plan;
            auto start = Clock::now();
            weightsFingerprint(slice.w);
            fingerprint += secondsSince(start);
            start = Clock::now();
            std::shared_ptr<PreparedGemm> prepared =
                prepareGemm(slice, plan);
            prepare += secondsSince(start);
            auto it = std::find_if(
                scaleCases.begin(), scaleCases.end(), [&](const auto& c) {
                    return c.slice.m() == slice.m() &&
                           c.slice.k() == slice.k();
                });
            if (it == scaleCases.end()) {
                const GemmShard& shard = shardPlan.shards[s];
                ScaleCase c{slice, plan, prepared, {}, 0};
                const std::size_t n = slice.n();
                c.ref.assign(gemm.refs[0].begin() +
                                 static_cast<std::ptrdiff_t>(shard.begin * n),
                             gemm.refs[0].begin() +
                                 static_cast<std::ptrdiff_t>(shard.end * n));
                scaleCases.push_back(std::move(c));
                it = scaleCases.end() - 1;
            }
            it->weight += 1;
        }
    }
    report.set("exec.fingerprint_ms", 1e3 * fingerprint);
    report.set("exec.prepare_ms", 1e3 * prepare);

    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    // The calling thread claims tiles too, so nproc - 1 pool workers
    // give nproc-way execution.
    TilePool pool(nproc > 1 ? nproc - 1 : 1);
    double serialSeconds = 0, poolSeconds = 0;
    for (const ScaleCase& c : scaleCases) {
        for (const TileExecutor* tiles :
             {static_cast<const TileExecutor*>(&serialTiles()),
              static_cast<const TileExecutor*>(&pool)}) {
            ExecOptions options;
            options.prepared = c.prepared.get();
            options.tiles = tiles;
            std::vector<double> times;
            for (unsigned r = 0; r < kTileReps; ++r) {
                ++report.attempted;
                const auto start = Clock::now();
                const GemmResult result =
                    backend->execute(c.slice, c.plan, options);
                times.push_back(secondsSince(start));
                if (result.outInt != c.ref) {
                    ++report.failed;
                    report.fail("tile-scaling slice diverged from the "
                                "reference rows");
                }
            }
            (tiles == &pool ? poolSeconds : serialSeconds) +=
                c.weight * median(times);
        }
    }
    report.set("exec.tile_scaling",
               poolSeconds > 0 ? serialSeconds / poolSeconds : 0.0);
}

} // namespace

void
runDecode(const RunOptions& options, Report& report)
{
    const TransformerConfig model = TransformerConfig::opt125m();
    report.param("model", model.name);
    report.param("traffic", "closed loop, 1 client, 72 GEMMs per step "
                            "(qkv 768x768x8 x36, out_proj x12, ffn_up "
                            "3072x768x8 x12, ffn_down 768x3072x8 x12)");
    report.param("batch", std::to_string(kBatch));
    report.param("ranks", std::to_string(kRanks) + " (tensor-parallel)");
    report.param("quant/backend/design", "W4A4 / upmem / LoCaLUT");
    report.param("residency", "cost-aware, default MRAM budget");
    report.param("activation_pool", std::to_string(kActPool));

    const std::vector<DecodeGemm> gemms = makeInputs(options.seed);
    const auto tokensPerSecond = [](const Pass& pass) {
        std::vector<double> rates;
        for (const double seconds : pass.steadyHost) {
            rates.push_back(kBatch / seconds);
        }
        return hostRate(rates);
    };

    if (!options.trace) {
        const Pass pass = runPass(gemms, makeBackend(kBackendName), true,
                                  options.seconds, nullptr, report);
        report.param("setups", std::to_string(pass.setups.size()));
        const double tokens = tokensPerSecond(pass);
        report.param("step_seconds", spreadNote(pass.steadyHost));
        const double modelTokens = kBatch / pass.modelStep;
        report.set("setup_s", median(pass.setups));
        report.set("tokens_per_s", tokens);
        report.set("host_rate_per_s", tokens);
        report.set("model_tokens_per_s", modelTokens);
        report.set("model_rate_per_s", modelTokens);
        report.digest = pass.digest.value();
        report.param("steady_steps", std::to_string(pass.steps));
    } else {
        // Untraced and traced passes over the same inputs; the difference
        // of their step times is the tracing overhead.
        const Pass plain = runPass(gemms, makeBackend(kBackendName), false,
                                   0.35 * options.seconds, nullptr, report);
        SpanLog log;
        const Pass traced = runPass(
            gemms,
            std::make_shared<TracingBackend>(makeBackend(kBackendName), log),
            false, 0.35 * options.seconds, &log, report);
        if (traced.digest.value() != plain.digest.value()) {
            report.fail("traced run's modeled digest differs from the "
                        "untraced run's");
        }
        report.digest = plain.digest.value();
        const double steps = traced.steps;
        reportBackendLayers(log, traced.from, traced.to, steps,
                            traced.workers,
                            {"session.submit", "session.wait"}, report);
        reportPlanCache(traced.before, traced.after, report);
        reportResidency(traced.residency, report);

        // Sharding fan-out: a sharded GEMM's wall time minus its slowest
        // shard's execute.
        const std::vector<Span> gemmSpans =
            log.select("decode.gemm", traced.from, traced.to);
        const std::vector<Span> exec =
            log.select(kSpanExecute, traced.from, traced.to);
        double fanout = 0;
        std::size_t e = 0;
        for (const Span& gemm : gemmSpans) {
            double slowest = 0;
            while (e < exec.size() && exec[e].start < gemm.end) {
                if (exec[e].start >= gemm.start) {
                    slowest = std::max(slowest, exec[e].seconds());
                }
                ++e;
            }
            fanout += gemm.seconds() - slowest;
        }
        report.set("sharding.fanout_ms", 1e3 * fanout / steps);
        report.set("sharding.shards_per_gemm",
                   gemmSpans.empty()
                       ? 0.0
                       : static_cast<double>(exec.size()) /
                             static_cast<double>(gemmSpans.size()));
        report.set("trace.overhead_share",
                   tokensPerSecond(plain) / tokensPerSecond(traced) - 1.0);
        measureSliceLayers(gemms, report);
    }
    report.set("fail_share", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
}

} // namespace perfbench
