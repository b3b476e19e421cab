/**
 * @file
 * `conversations`: open-loop seeded Poisson conversations through the
 * TokenEngine over 4 data-parallel ranks, modeled only (no kernel
 * executes).  Prompts of 16-512 tokens, 8-128 output tokens, and a
 * per-unit MRAM budget tight enough that KV growth forces LUT/KV
 * eviction.  The token engine, residency arbitration and workload cost
 * charging do all the work, so a kernel change must leave it unchanged.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common.h"
#include "trace.h"

namespace perfbench {

using namespace localut;

namespace {

constexpr unsigned kRanks = 4;
constexpr unsigned kMinPrompt = 16, kMaxPrompt = 512;
constexpr unsigned kMinDecode = 8, kMaxDecode = 128;
/** Per-unit MRAM budget: 4 MiB makes KV growth evict LUT sets and
 * spill KV (the 32 MiB default never does). */
constexpr std::uint64_t kMramBudgetBytes = std::uint64_t{4} << 20;
/** Offered load as multiples of the nominal capacity, which leaves out
 * KV spill traffic: 1.0x is already past what the 4 MiB budget sustains
 * (about 40% of streams shed), 0.5x sheds none. */
constexpr double kLowLoad = 0.5;
constexpr double kHighLoad = 1.0;
constexpr unsigned kLowConversations = 256;
/** Overload traces, each on its own session; goodput is their median. */
constexpr unsigned kHighTraces = 8;
constexpr unsigned kHighConversations = 512;
/** Trace ids of the overload traces (below-capacity ones count from 1). */
constexpr unsigned kHighTraceIds = 1000;
/** Below-capacity traces whose modeled output is reported. */
constexpr unsigned kModelTraces = 4;
/** Deadline budgets as multiples of modeled service (as in
 * bench/serving_load.cc's conversation trace). */
constexpr double kTokenDeadlineX = 3.0;
constexpr double kTtftStepSlack = 2.0;

SessionOptions
sessionOptions()
{
    SessionOptions options;
    options.numRanks = kRanks;
    options.residencyPolicy = ResidencyPolicy::CostAware;
    options.mramBudgetBytes = kMramBudgetBytes;
    return options;
}

TokenEngineOptions
engineOptions()
{
    TokenEngineOptions options;
    options.quant = benchQuant();
    options.design = kDesign;
    return options;
}

/** Deadlines and capacity from the modeled service of the deployment. */
struct Calibration {
    double ttft = 0;          ///< TTFT bound (seconds from arrival)
    double tokenDeadline = 0; ///< per-token spacing bound
    double capacity = 0;      ///< conversations / second, all ranks
};

/** Projects every prefill tier and the full decode tier through the
 * session (planning them into its cache — part of set-up). */
Calibration
calibrate(InferenceSession& session)
{
    const TokenEngineOptions engine = engineOptions();
    const auto project = [&](const WorkloadSpec& spec) {
        return session
            .projectCost(session.compileUnsharded(spec, engine.quant,
                                                  engine.design))
            .totalSeconds();
    };
    const TransformerConfig& model = engine.model;
    const unsigned tier = engine.maxStreamsPerRank;
    double prefillSum = 0, prefillMax = 0;
    unsigned tiers = 0;
    for (unsigned len = kMinPrompt; len <= kMaxPrompt; len *= 2) {
        const double s = project(WorkloadSpec::prefill(model, 1, len));
        prefillSum += s;
        prefillMax = std::max(prefillMax, s);
        ++tiers;
    }
    const double stepFull = project(
        WorkloadSpec::decodeStep(model, tier, kMaxPrompt + kMaxDecode));
    const std::uint64_t tokenBytes =
        static_cast<std::uint64_t>(model.layers) *
        model.kvBytesPerTokenPerLayer(engine.kvBitsPerValue);
    const double kvToken = session.residency()->broadcastSeconds(tokenBytes);
    const double kvPrompt =
        session.residency()->broadcastSeconds(tokenBytes * kMaxPrompt);
    Calibration c;
    c.ttft = tier * (prefillMax + kvPrompt) +
             kTtftStepSlack * (stepFull + tier * kvToken);
    c.tokenDeadline = kTokenDeadlineX * stepFull + 2.0 * tier * kvToken;
    const double meanDecode = 0.5 * (kMinDecode + kMaxDecode);
    const double perConversation =
        prefillSum / tiers + meanDecode * (stepFull / tier + kvToken);
    c.capacity = kRanks / perConversation;
    return c;
}

std::vector<TokenRequest>
makeTrace(std::uint64_t seed, unsigned trace, double rate,
          unsigned conversations, const Calibration& calibration)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0xc0 * (trace + 1));
    std::vector<TokenRequest> requests;
    double t = 0;
    for (unsigned i = 0; i < conversations; ++i) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        TokenRequest request;
        request.promptLen = kMinPrompt + static_cast<unsigned>(rng.nextBounded(
                                             kMaxPrompt - kMinPrompt + 1));
        request.decodeSteps = kMinDecode + static_cast<unsigned>(rng.nextBounded(
                                               kMaxDecode - kMinDecode + 1));
        request.arrivalSeconds = t;
        request.ttftDeadlineSeconds = calibration.ttft;
        request.tokenDeadlineSeconds = calibration.tokenDeadline;
        requests.push_back(request);
    }
    return requests;
}

/**
 * The set-up's first cold pass: one conversation per prefill tier
 * (16..512 prompt tokens, 8 output tokens) spaced at the below-capacity
 * rate, so every seed sets up the same work.
 */
std::vector<TokenRequest>
coldTrace(const Calibration& calibration)
{
    std::vector<TokenRequest> requests;
    double t = 0;
    for (unsigned len = kMinPrompt; len <= kMaxPrompt; len *= 2) {
        TokenRequest request;
        request.promptLen = len;
        request.decodeSteps = kMinDecode;
        request.arrivalSeconds = t;
        request.ttftDeadlineSeconds = calibration.ttft;
        request.tokenDeadlineSeconds = calibration.tokenDeadline;
        requests.push_back(request);
        t += 1.0 / (kLowLoad * calibration.capacity);
    }
    return requests;
}

struct TraceResult {
    double host = 0;         ///< wall seconds of submit + run
    std::uint64_t tokens = 0; ///< decode tokens emitted
    std::uint64_t tokensMet = 0;
    std::uint64_t tokensOffered = 0;
    unsigned shedDeadline = 0, shedCapacity = 0, shedFault = 0;
    std::vector<double> ttft, gaps; ///< modeled seconds
    unsigned prefillSteps = 0, decodeSteps = 0;
    double decodeStreams = 0; ///< summed streams over decode steps
};

TraceResult
replay(InferenceSession& session, const std::vector<TokenRequest>& requests,
       SpanLog* log, Report& report, Digest* digest)
{
    TraceResult out;
    for (const TokenRequest& request : requests) {
        out.tokensOffered += request.decodeSteps;
    }
    const auto start = Clock::now();
    TokenEngine engine(session, engineOptions());
    std::vector<StreamResult> results;
    ++report.attempted;
    try {
        ScopedSpan span(log, "token_engine.run");
        for (const TokenRequest& request : requests) {
            engine.submit(request);
        }
        results = engine.run();
    } catch (const std::exception& e) {
        ++report.failed;
        report.fail(std::string("token engine threw: ") + e.what());
        return out;
    }
    out.host = secondsSince(start);
    for (const StreamResult& r : results) {
        out.tokens += r.tokensEmitted();
        out.tokensMet += r.tokensMet;
        out.shedDeadline += r.status == StreamStatus::ShedDeadline;
        out.shedCapacity += r.status == StreamStatus::ShedCapacity;
        out.shedFault += r.status == StreamStatus::ShedFault;
        if (r.ttftSeconds() >= 0) {
            out.ttft.push_back(r.ttftSeconds());
        }
        double previous = r.firstTokenSeconds;
        for (const double t : r.tokenSeconds) {
            out.gaps.push_back(t - previous);
            previous = t;
        }
        if (digest != nullptr) {
            digest->add(static_cast<std::uint64_t>(r.status));
            digest->add(static_cast<std::uint64_t>(r.rank));
            digest->add(r.firstTokenSeconds);
            digest->add(r.completionSeconds);
            for (const double t : r.tokenSeconds) {
                digest->add(t);
            }
        }
    }
    for (const StepTrace& step : engine.stepTraces()) {
        if (step.decode) {
            ++out.decodeSteps;
            out.decodeStreams += step.streams;
        } else {
            ++out.prefillSteps;
        }
        if (digest != nullptr) {
            digest->add(static_cast<std::uint64_t>(step.rank));
            digest->add(static_cast<std::uint64_t>(step.streams));
            digest->add(step.startSeconds);
            digest->add(step.endSeconds);
            digest->add(step.lutBroadcastSeconds);
            digest->add(step.kvSeconds);
            digest->add(step.kvResidentBytes);
        }
    }
    if (out.shedFault != 0) {
        ++report.failed;
        report.fail("fault-free trace shed streams for faults");
    }
    return out;
}

struct Pass {
    std::vector<double> setups;
    std::vector<TraceResult> high;
    std::vector<TraceResult> low;
    Digest digest;
    double from = 0, to = 0;
    unsigned workers = 0;
    PlanCache::Stats before, after;
    ResidencyStats residency;
    Calibration calibration;
};

Pass
runPass(std::uint64_t seed, const BackendPtr& backend, bool timeSetup,
        double seconds, SpanLog* log, Report& report)
{
    Pass pass;
    std::unique_ptr<InferenceSession> session;
    while (moreSetups(pass.setups, timeSetup)) {
        session.reset();
        auto start = Clock::now();
        session = std::make_unique<InferenceSession>(backend,
                                                     sessionOptions());
        pass.calibration = calibrate(*session);
        double seconds = secondsSince(start);
        const std::vector<TokenRequest> cold = coldTrace(pass.calibration);
        start = Clock::now();
        replay(*session, cold, nullptr, report, nullptr);
        pass.setups.push_back(seconds + secondsSince(start));
    }
    pass.workers = session->workerCount();
    const Calibration& c = pass.calibration;
    pass.digest.add(c.ttft);
    pass.digest.add(c.tokenDeadline);

    // Overload: independent traces, each on a fresh session, so goodput
    // is a median over trajectories of the thrashing MRAM budget rather
    // than one of them.
    for (unsigned t = 0; t < kHighTraces; ++t) {
        InferenceSession overload(backend, sessionOptions());
        pass.high.push_back(replay(
            overload,
            makeTrace(seed, kHighTraceIds + t, kHighLoad * c.capacity,
                      kHighConversations, c),
            log, report, &pass.digest));
    }
    pass.before = session->planCacheStats();
    pass.from = log != nullptr ? log->now() : 0;
    const auto start = Clock::now();
    for (unsigned trace = 1;; ++trace) {
        pass.low.push_back(replay(
            *session,
            makeTrace(seed, trace, kLowLoad * c.capacity, kLowConversations,
                      c),
            log, report, trace <= kModelTraces ? &pass.digest : nullptr));
        if (trace >= kModelTraces && secondsSince(start) >= seconds) {
            break;
        }
    }
    pass.to = log != nullptr ? log->now() : 0;
    pass.after = session->planCacheStats();
    pass.residency = session->residencyStats();
    return pass;
}

std::vector<double>
tokensPerSecond(const std::vector<TraceResult>& traces)
{
    std::vector<double> rates;
    for (const TraceResult& t : traces) {
        rates.push_back(static_cast<double>(t.tokens) / t.host);
    }
    return rates;
}

} // namespace

void
runConversations(const RunOptions& options, Report& report)
{
    report.param("traffic", "open loop, seeded Poisson conversations in "
                            "virtual time, continuous batching, SLO lanes");
    report.param("ranks", std::to_string(kRanks) + " (data-parallel)");
    report.param("quant/backend/design", "W4A4 / upmem / LoCaLUT");
    report.param("model", TransformerConfig::opt125m().name);
    report.param("prompt_tokens", std::to_string(kMinPrompt) + "-" +
                                      std::to_string(kMaxPrompt));
    report.param("output_tokens", std::to_string(kMinDecode) + "-" +
                                      std::to_string(kMaxDecode));
    report.param("mram_budget_per_unit", "4 MiB (cost-aware residency)");
    report.param("rates", std::to_string(kLowLoad) + "x and " +
                              std::to_string(kHighLoad) +
                              "x modeled capacity");
    report.param("trace_conversations",
                 std::to_string(kLowConversations) + " below capacity, " +
                     std::to_string(kHighTraces) + " x " +
                     std::to_string(kHighConversations) +
                     " overload (fresh session each)");

    const auto modeledStats = [&](const Pass& pass) {
        std::vector<double> ttft, gaps;
        unsigned prefill = 0, decode = 0, lowShed = 0;
        double streams = 0;
        for (unsigned t = 0; t < kModelTraces; ++t) {
            const TraceResult& r = pass.low[t];
            lowShed += r.shedDeadline + r.shedCapacity;
            ttft.insert(ttft.end(), r.ttft.begin(), r.ttft.end());
            gaps.insert(gaps.end(), r.gaps.begin(), r.gaps.end());
            prefill += r.prefillSteps;
            decode += r.decodeSteps;
            streams += r.decodeStreams;
        }
        report.set("model_ttft_p50_ms", 1e3 * quantile(ttft, 0.50));
        report.set("model_ttft_p99_ms", 1e3 * quantile(ttft, 0.99));
        report.set("model_gap_p50_ms", 1e3 * quantile(gaps, 0.50));
        report.set("model_gap_p99_ms", 1e3 * quantile(gaps, 0.99));
        // Deadline-met tokens per modeled second of offered traffic (a
        // trace's conversations over its offered rate), median over the
        // overload traces; tokens of shed streams count as missed.
        std::vector<double> goodputs;
        TraceResult high; // summed over the overload traces
        for (const TraceResult& r : pass.high) {
            goodputs.push_back(static_cast<double>(r.tokensMet) * kHighLoad *
                               pass.calibration.capacity /
                               kHighConversations);
            high.tokensMet += r.tokensMet;
            high.tokensOffered += r.tokensOffered;
            high.shedDeadline += r.shedDeadline;
            high.shedCapacity += r.shedCapacity;
        }
        const double goodput = median(goodputs);
        report.set("model_goodput_per_s", goodput);
        report.set("model_rate_per_s", goodput);
        report.set("token_engine.prefill_steps", prefill / double{kModelTraces});
        report.set("token_engine.decode_steps", decode / double{kModelTraces});
        report.set("token_engine.batch_mean", decode > 0 ? streams / decode
                                                         : 0.0);
        report.set("token_engine.shed_deadline",
                   high.shedDeadline / double{kHighTraces});
        report.set("token_engine.shed_capacity",
                   high.shedCapacity / double{kHighTraces});
        report.param("ttft_samples", std::to_string(ttft.size()));
        report.param("gap_samples", std::to_string(gaps.size()));
        report.param("below_capacity_shed",
                     std::to_string(lowShed) + " of " +
                         std::to_string(kModelTraces * kLowConversations));
        report.param("capacity_conversations_per_s",
                     std::to_string(pass.calibration.capacity));
        report.param("overload_tokens_met",
                     std::to_string(high.tokensMet) + " of " +
                         std::to_string(high.tokensOffered) + " offered, " +
                         std::to_string(high.shedDeadline +
                                        high.shedCapacity) +
                         " streams shed");
    };

    if (!options.trace) {
        const Pass pass = runPass(options.seed, makeBackend(kBackendName),
                                  true, options.seconds, nullptr, report);
        report.param("setups", std::to_string(pass.setups.size()));
        modeledStats(pass);
        const std::vector<double> rates = tokensPerSecond(pass.low);
        const double rate = hostRate(rates);
        report.param("sim_tokens_per_s_by_trace", spreadNote(rates));
        report.set("setup_s", median(pass.setups));
        report.set("sim_tokens_per_s", rate);
        report.set("host_rate_per_s", rate);
        report.digest = pass.digest.value();
        report.param("below_capacity_traces",
                     std::to_string(pass.low.size()));
    } else {
        const Pass plain =
            runPass(options.seed, makeBackend(kBackendName), false,
                    0.45 * options.seconds, nullptr, report);
        SpanLog log;
        const Pass traced = runPass(
            options.seed,
            std::make_shared<TracingBackend>(makeBackend(kBackendName), log),
            false, 0.45 * options.seconds, &log, report);
        if (traced.digest.value() != plain.digest.value()) {
            report.fail("traced run's modeled digest differs from the "
                        "untraced run's");
        }
        report.digest = plain.digest.value();
        modeledStats(traced);
        const double traces = static_cast<double>(traced.low.size());
        reportBackendLayers(log, traced.from, traced.to, traces,
                            traced.workers, {"token_engine.run"}, report);
        reportPlanCache(traced.before, traced.after, report);
        reportResidency(traced.residency, report);
        // The engine's self time is the session overhead of this
        // workload: run() wall time no backend span covers.
        report.set("token_engine.self_s",
                   1e-3 * report.values["session.overhead_ms"]);
        // The cost model charging does all of this workload's work; its
        // phase split on the fig09 grid is reported here too, since
        // paper_grid is not among the gated workloads.
        reportFig09PhaseShares(makeBackend(kBackendName), report);
        report.set("trace.overhead_share",
                   hostRate(tokensPerSecond(plain.low)) /
                           hostRate(tokensPerSecond(traced.low)) -
                       1.0);
    }
    report.set("fail_share", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
}

} // namespace perfbench
