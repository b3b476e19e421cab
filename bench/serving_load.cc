/**
 * @file
 * Serving load: an open-loop Poisson generator drives the SLO-aware
 * RequestScheduler and the FIFO placement baseline across backends x
 * ranks x arrival rates, on a 70/30 interactive/batch GEMM mix with
 * per-lane deadlines.  Reports admission outcomes, deadline goodput,
 * and interactive latency quantiles (all in modeled virtual seconds),
 * verifies every admitted value request bit-exact against a direct
 * submit, and emits BENCH_serving.json (archived by the CI perf-smoke
 * job).
 *
 * Under --smoke it exits non-zero when (a) any admitted interactive
 * request misses its deadline under the SLO policy, or (b) the SLO
 * policy fails to sustain strictly more deadline-met requests than
 * FIFO at the overload rate — the PR's acceptance gate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "serving/token_engine.h"

using namespace localut;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Deadline budgets, as multiples of the lane's own service time. */
constexpr double kInteractiveDeadlineX = 4.0;
constexpr double kBatchDeadlineX = 40.0;
constexpr double kInteractiveShare = 0.7;

struct LaneShape {
    std::size_t m, k, n;
};

/** One measured (backend, ranks, rate, mode) point. */
struct RunStats {
    std::string backend;
    unsigned ranks = 0;
    std::string mode;
    double arrivalPerSec = 0;
    double offeredLoad = 0; ///< rate / aggregate capacity
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t met = 0;        ///< admitted requests meeting deadline
    std::uint64_t interMissed = 0;///< interactive deadline misses
    double goodputPerSec = 0;     ///< met / makespan
    double interP50 = 0, interP95 = 0, interP99 = 0;
};

std::vector<RunStats> gRuns;

/** The request stream is deterministic per (seed); both modes replay
 * the identical arrival process. */
struct Arrival {
    double time;
    bool interactive;
    unsigned problemIndex;
};

// ------------------------------------------------- conversation trace

/** Per-token deadline budgets for the conversation trace, as multiples
 * of the modeled full-tier decode-step / prefill service times.  Wide
 * enough that a continuously batched rank meets the schedule, tight
 * enough that a serial per-request server cannot once conversations
 * overlap. */
constexpr double kConvTokenDeadlineX = 3.0;
constexpr double kConvTtftStepSlack = 2.0;

struct ConvArrival {
    double time;
    unsigned promptLen;
    unsigned decodeLen;
};

/** One measured conversation-trace (mode, load) point. */
struct ConvStats {
    std::string backend;
    unsigned ranks = 0;
    std::string mode; ///< "continuous" or "serial"
    double offeredLoad = 0;
    std::uint64_t streams = 0;
    std::uint64_t completed = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedCapacity = 0;
    std::uint64_t tokens = 0;    ///< decode tokens offered by the trace
    std::uint64_t tokensMet = 0; ///< emitted within their deadline
    double ttftP50 = 0, ttftP95 = 0, ttftP99 = 0;
    double tokenP50 = 0, tokenP95 = 0, tokenP99 = 0; ///< inter-token gap
};

std::vector<ConvStats> gConvRuns;

ConvStats
runConversation(const std::string& backendName, unsigned ranks,
                double offeredLoad, bool continuous,
                const std::vector<ConvArrival>& arrivals, double ttft,
                double tokenDeadline)
{
    SessionOptions sessionOptions;
    sessionOptions.numRanks = ranks;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session(makeBackend(backendName), sessionOptions);

    TokenEngineOptions options;
    options.quant = QuantConfig::preset("W4A4");
    options.continuousBatching = continuous;
    options.policy =
        continuous ? SchedulerPolicy::Slo : SchedulerPolicy::Fifo;
    Telemetry telemetry;
    TokenEngine engine(session, options, &telemetry);
    for (const ConvArrival& arrival : arrivals) {
        TokenRequest request;
        request.promptLen = arrival.promptLen;
        request.decodeSteps = arrival.decodeLen;
        request.arrivalSeconds = arrival.time;
        request.ttftDeadlineSeconds = ttft; // arrival-relative
        request.tokenDeadlineSeconds = tokenDeadline;
        engine.submit(request);
    }

    ConvStats stats;
    stats.backend = backendName;
    stats.ranks = ranks;
    stats.mode = continuous ? "continuous" : "serial";
    stats.offeredLoad = offeredLoad;
    for (const StreamResult& result : engine.run()) {
        ++stats.streams;
        stats.completed += result.status == StreamStatus::Completed;
        stats.shedDeadline += result.status == StreamStatus::ShedDeadline;
        stats.shedCapacity += result.status == StreamStatus::ShedCapacity;
        stats.tokensMet += result.tokensMet;
    }
    for (const ConvArrival& arrival : arrivals) {
        stats.tokens += arrival.decodeLen;
    }
    const TelemetrySnapshot snap = telemetry.snapshot();
    const auto& prefill =
        snap.lanes[static_cast<std::size_t>(DeadlineClass::Prefill)];
    const auto& decode =
        snap.lanes[static_cast<std::size_t>(DeadlineClass::Decode)];
    stats.ttftP50 = prefill.ttft.p50();
    stats.ttftP95 = prefill.ttft.p95();
    stats.ttftP99 = prefill.ttft.p99();
    stats.tokenP50 = decode.interToken.p50();
    stats.tokenP95 = decode.interToken.p95();
    stats.tokenP99 = decode.interToken.p99();
    return stats;
}

RunStats
runOne(const std::string& backendName, unsigned ranks,
       SchedulerPolicy policy, double rate, double offeredLoad,
       unsigned requests, const std::vector<GemmProblem>& interPool,
       const std::vector<GemmProblem>& batchPool,
       const std::vector<std::vector<std::int32_t>>& interRef,
       const std::vector<std::vector<std::int32_t>>& batchRef,
       double interService, double batchService,
       const std::vector<Arrival>& arrivals)
{
    SessionOptions sessionOptions;
    sessionOptions.numRanks = ranks;
    InferenceSession session(makeBackend(backendName), sessionOptions);
    SchedulerOptions options;
    options.policy = policy;
    options.maxQueuedPerRank = 16;
    RequestScheduler scheduler(session, options);

    struct Pending {
        AdmissionDecision decision;
        bool interactive;
        unsigned problemIndex;
    };
    std::vector<Pending> submitted;
    submitted.reserve(requests);
    for (unsigned i = 0; i < requests; ++i) {
        const Arrival& arrival = arrivals[i];
        const auto& pool = arrival.interactive ? interPool : batchPool;
        ServingRequest request = ServingRequest::gemm(
            pool[arrival.problemIndex], DesignPoint::LoCaLut,
            arrival.interactive ? DeadlineClass::Interactive
                                : DeadlineClass::Batch,
            arrival.interactive ? kInteractiveDeadlineX * interService
                                : kBatchDeadlineX * batchService);
        request.arrivalSeconds = arrival.time;
        submitted.push_back({scheduler.submit(std::move(request)),
                             arrival.interactive, arrival.problemIndex});
    }

    double makespan = 0;
    std::uint64_t mismatches = 0;
    for (const Pending& pending : submitted) {
        const ServingResult result = scheduler.wait(pending.decision.id);
        if (!result.decision.admitted()) {
            continue;
        }
        makespan = std::max(makespan, result.sample.completionSeconds);
        const auto& ref = pending.interactive
                              ? interRef[pending.problemIndex]
                              : batchRef[pending.problemIndex];
        if (result.gemm.outInt != ref) {
            ++mismatches;
        }
    }
    if (mismatches != 0) {
        LOCALUT_FATAL(mismatches, " admitted request(s) diverged from "
                                  "the direct-submit reference");
    }

    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    const auto i = static_cast<std::size_t>(DeadlineClass::Interactive);
    RunStats stats;
    stats.backend = backendName;
    stats.ranks = ranks;
    stats.mode = schedulerPolicyName(policy);
    stats.arrivalPerSec = rate;
    stats.offeredLoad = offeredLoad;
    stats.offered = snap.totalSubmitted();
    stats.admitted = snap.totalAdmitted();
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        stats.shed += snap.shedDeadline[lane];
        stats.rejected += snap.rejectedSaturated[lane];
        stats.met += snap.lanes[lane].deadlineMet;
    }
    stats.interMissed = snap.lanes[i].deadlineMissed;
    stats.goodputPerSec =
        makespan > 0 ? static_cast<double>(stats.met) / makespan : 0;
    stats.interP50 = snap.lanes[i].latency.p50();
    stats.interP95 = snap.lanes[i].latency.p95();
    stats.interP99 = snap.lanes[i].latency.p99();
    return stats;
}

void
writeConvRuns(std::FILE* f)
{
    std::fprintf(f, "  \"conversation_runs\": [\n");
    for (std::size_t r = 0; r < gConvRuns.size(); ++r) {
        const ConvStats& s = gConvRuns[r];
        std::fprintf(
            f,
            "    {\"backend\": \"%s\", \"ranks\": %u, \"mode\": \"%s\", "
            "\"offered_load\": %.3f, \"streams\": %llu, "
            "\"completed\": %llu, \"shed_deadline\": %llu, "
            "\"shed_capacity\": %llu, \"tokens\": %llu, "
            "\"tokens_met\": %llu, \"ttft_p50_s\": %.6e, "
            "\"ttft_p95_s\": %.6e, \"ttft_p99_s\": %.6e, "
            "\"token_p50_s\": %.6e, \"token_p95_s\": %.6e, "
            "\"token_p99_s\": %.6e}%s\n",
            s.backend.c_str(), s.ranks, s.mode.c_str(), s.offeredLoad,
            static_cast<unsigned long long>(s.streams),
            static_cast<unsigned long long>(s.completed),
            static_cast<unsigned long long>(s.shedDeadline),
            static_cast<unsigned long long>(s.shedCapacity),
            static_cast<unsigned long long>(s.tokens),
            static_cast<unsigned long long>(s.tokensMet), s.ttftP50,
            s.ttftP95, s.ttftP99, s.tokenP50, s.tokenP95, s.tokenP99,
            r + 1 < gConvRuns.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
}

void
writeJson(bool smoke, bool gatePassed)
{
    std::FILE* f = std::fopen("BENCH_serving.json", "w");
    if (f == nullptr) {
        bench::note("could not open BENCH_serving.json for writing");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"serving_load\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    bench::writeProvenance(f);
    std::fprintf(f, "  \"slo_gate_passed\": %s,\n",
                 gatePassed ? "true" : "false");
    std::fprintf(f, "  \"interactive_deadline_x\": %.1f,\n",
                 kInteractiveDeadlineX);
    writeConvRuns(f);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t r = 0; r < gRuns.size(); ++r) {
        const RunStats& s = gRuns[r];
        std::fprintf(
            f,
            "    {\"backend\": \"%s\", \"ranks\": %u, \"mode\": \"%s\", "
            "\"arrival_per_sec\": %.3f, \"offered_load\": %.3f, "
            "\"offered\": %llu, \"admitted\": %llu, \"shed\": %llu, "
            "\"rejected\": %llu, \"deadline_met\": %llu, "
            "\"interactive_deadline_missed\": %llu, "
            "\"goodput_per_sec\": %.3f, \"interactive_p50_s\": %.6e, "
            "\"interactive_p95_s\": %.6e, \"interactive_p99_s\": "
            "%.6e}%s\n",
            s.backend.c_str(), s.ranks, s.mode.c_str(), s.arrivalPerSec,
            s.offeredLoad, static_cast<unsigned long long>(s.offered),
            static_cast<unsigned long long>(s.admitted),
            static_cast<unsigned long long>(s.shed),
            static_cast<unsigned long long>(s.rejected),
            static_cast<unsigned long long>(s.met),
            static_cast<unsigned long long>(s.interMissed),
            s.goodputPerSec, s.interP50, s.interP95, s.interP99,
            r + 1 < gRuns.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::note("wrote BENCH_serving.json");
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::header("Serving",
                  "SLO scheduler vs FIFO under open-loop Poisson load");

    const bool smoke = bench::smoke();
    const unsigned requests = bench::smokeTrim(240u, 60u);
    const std::vector<std::string> backends =
        bench::smokeTrim<std::vector<std::string>>({"upmem", "host-cpu"},
                                                   {"upmem"});
    const std::vector<unsigned> rankCounts =
        bench::smokeTrim<std::vector<unsigned>>({1, 4}, {2});
    const std::vector<double> loadFactors = bench::smokeTrim<
        std::vector<double>>({0.5, 0.9, 1.5, 3.0}, {0.6, 2.5});

    // Lane shapes: decode-style skinny GEMMs interactively, prefill-ish
    // fat-N GEMMs in the batch lane; a small problem pool keeps plans,
    // prepared operands, and references shared across the sweep.
    const LaneShape interShape = {768, 768, 8};
    const LaneShape batchShape = {768, 768, 64};
    const QuantConfig quant = QuantConfig::preset("W4A4");
    constexpr unsigned kPoolSize = 4;

    std::vector<GemmProblem> interPool, batchPool;
    std::vector<std::vector<std::int32_t>> interRef, batchRef;
    for (unsigned p = 0; p < kPoolSize; ++p) {
        interPool.push_back(makeRandomProblem(
            interShape.m, interShape.k, interShape.n, quant, 50 + p));
        batchPool.push_back(makeRandomProblem(
            batchShape.m, batchShape.k, batchShape.n, quant, 70 + p));
        // The direct-submit reference for the bit-exactness criterion:
        // every backend's execute() must reproduce it, so it doubles as
        // the cross-backend reference here.
        interRef.push_back(
            referenceGemmInt(interPool.back().w, interPool.back().a));
        batchRef.push_back(
            referenceGemmInt(batchPool.back().w, batchPool.back().a));
    }

    bench::note("mix: " +
                std::to_string(static_cast<int>(100 * kInteractiveShare)) +
                "% interactive (deadline " +
                std::to_string(static_cast<int>(kInteractiveDeadlineX)) +
                "x service, " + std::to_string(interShape.m) + "x" +
                std::to_string(interShape.k) + "x" +
                std::to_string(interShape.n) + "), rest batch (deadline " +
                std::to_string(static_cast<int>(kBatchDeadlineX)) +
                "x service, n=" + std::to_string(batchShape.n) + "); " +
                std::to_string(requests) + " requests per point");

    bool gatePassed = true;
    for (const std::string& backendName : backends) {
        // Per-lane steady service on this backend (modeled seconds).
        const BackendPtr backend = makeBackend(backendName);
        const double interService =
            backend
                ->execute(interPool[0],
                          backend->plan(interPool[0],
                                        DesignPoint::LoCaLut),
                          /*computeValues=*/false)
                .timing.total;
        const double batchService =
            backend
                ->execute(batchPool[0],
                          backend->plan(batchPool[0],
                                        DesignPoint::LoCaLut),
                          /*computeValues=*/false)
                .timing.total;
        const double meanService = kInteractiveShare * interService +
                                   (1 - kInteractiveShare) * batchService;

        for (const unsigned ranks : rankCounts) {
            const double capacity = ranks / meanService;
            bench::section(backendName + ", " + std::to_string(ranks) +
                           " rank(s): capacity ~" +
                           Table::fmt(capacity, 1) + " req/s (svc " +
                           bench::fmtSeconds(interService) + " / " +
                           bench::fmtSeconds(batchService) + ")");
            Table table({"load", "mode", "admit", "shed", "reject",
                         "met", "goodput/s", "p99 int", "int miss"});
            for (const double load : loadFactors) {
                const double rate = load * capacity;
                // One arrival trace per (point), replayed identically
                // under both policies.
                Rng rng(0x10ca107ull ^
                        (static_cast<std::uint64_t>(ranks) *
                         1315423911ull) ^
                        static_cast<std::uint64_t>(load * 1e3));
                std::vector<Arrival> arrivals;
                double t = 0;
                for (unsigned i = 0; i < requests; ++i) {
                    t += -std::log(1.0 - rng.nextDouble()) / rate;
                    arrivals.push_back(
                        {t, rng.nextDouble() < kInteractiveShare,
                         static_cast<unsigned>(
                             rng.nextBounded(kPoolSize))});
                }
                RunStats slo, fifo;
                for (const SchedulerPolicy policy :
                     {SchedulerPolicy::Slo, SchedulerPolicy::Fifo}) {
                    RunStats stats = runOne(
                        backendName, ranks, policy, rate, load, requests,
                        interPool, batchPool, interRef, batchRef,
                        interService, batchService, arrivals);
                    (policy == SchedulerPolicy::Slo ? slo : fifo) =
                        stats;
                    gRuns.push_back(stats);
                    table.addRow(
                        {Table::fmt(load, 2) + "x", stats.mode,
                         std::to_string(stats.admitted),
                         std::to_string(stats.shed),
                         std::to_string(stats.rejected),
                         std::to_string(stats.met),
                         Table::fmt(stats.goodputPerSec, 1),
                         bench::fmtSeconds(stats.interP99),
                         std::to_string(stats.interMissed)});
                }
                // The acceptance gate: the SLO policy never misses an
                // admitted interactive deadline, and past saturation it
                // sustains strictly more deadline-met requests than
                // FIFO placement.
                if (slo.interMissed != 0) {
                    gatePassed = false;
                    bench::note("GATE: slo admitted an interactive "
                                "request past its deadline at load " +
                                Table::fmt(load, 2) + "x");
                }
                if (load > 1.0 && slo.met <= fifo.met) {
                    gatePassed = false;
                    bench::note("GATE: slo goodput did not beat fifo at "
                                "overload " + Table::fmt(load, 2) + "x");
                }
            }
            table.print();
        }
    }
    bench::note("expected shape: below capacity both modes admit nearly "
                "everything; past it FIFO queues blow the interactive "
                "p99 while the SLO policy sheds early and keeps every "
                "admitted deadline.");

    // ---------------------------------------------- conversation trace
    // Token-level serving: a Poisson stream of {prompt_len, decode_len}
    // conversations drives the TokenEngine twice over the identical
    // trace — continuous batching + SLO lanes vs serial per-request
    // decode + FIFO (the no-batching baseline).  Deadlines are absolute
    // per-token schedules calibrated from the modeled full-tier decode
    // step, so a backlogged serial server cannot recover; the gate is
    // that continuous batching wins deadline-met token goodput at every
    // >= 2x overload point.
    const unsigned conversations = bench::smokeTrim(32u, 12u);
    const std::vector<double> convLoads = bench::smokeTrim<
        std::vector<double>>({0.5, 1.0, 2.0, 3.0}, {2.5});
    const std::vector<std::string> convBackends =
        bench::smokeTrim<std::vector<std::string>>({"upmem", "host-cpu"},
                                                   {"upmem"});
    constexpr unsigned kPromptLens[] = {8, 16, 32};
    constexpr unsigned kDecodeLens[] = {4, 8, 16};

    for (const std::string& backendName : convBackends) {
        SessionOptions probeOptions;
        probeOptions.residencyPolicy = ResidencyPolicy::CostAware;
        InferenceSession probe(makeBackend(backendName), probeOptions);
        TokenEngineOptions engineDefaults;
        const TransformerConfig model = engineDefaults.model;
        const QuantConfig convQuant = QuantConfig::preset("W4A4");
        const auto project = [&](const WorkloadSpec& spec) {
            return probe
                .projectCost(probe.compileUnsharded(spec, convQuant,
                                                    DesignPoint::LoCaLut))
                .totalSeconds();
        };
        const unsigned maxPrompt = kPromptLens[2];
        const unsigned maxCtx = maxPrompt + kDecodeLens[2];
        const unsigned tier = engineDefaults.maxStreamsPerRank;
        const double prefillMax =
            project(WorkloadSpec::prefill(model, 1, maxPrompt));
        const double stepFull =
            project(WorkloadSpec::decodeStep(model, tier, maxCtx));
        const double stepOne =
            project(WorkloadSpec::decodeStep(model, 1, maxCtx));
        const std::uint64_t tokenBytes =
            static_cast<std::uint64_t>(model.layers) *
            model.kvBytesPerTokenPerLayer(engineDefaults.kvBitsPerValue);
        const double kvToken =
            probe.residency()->broadcastSeconds(tokenBytes);
        const double kvPrompt =
            probe.residency()->broadcastSeconds(tokenBytes * maxPrompt);
        const double ttft =
            tier * (prefillMax + kvPrompt) +
            kConvTtftStepSlack * (stepFull + tier * kvToken);
        const double tokenDeadline =
            kConvTokenDeadlineX * stepFull + 2.0 * tier * kvToken;
        // A serial server's mean per-conversation service, for sizing
        // the offered load.
        const double meanDecodeLen =
            (kDecodeLens[0] + kDecodeLens[1] + kDecodeLens[2]) / 3.0;
        const double serialService =
            prefillMax + kvPrompt + meanDecodeLen * (stepOne + kvToken);

        // Continuous batching only wins where the backend amortizes a
        // batched step (PIM: one table broadcast serves the whole
        // tier).  On a backend whose decode cost is linear in batch
        // (host-cpu), serial service is already optimal — the trace is
        // still reported, but the win gate binds only where the modeled
        // batch economy exists.
        const double batchEconomy = stepFull / (tier * stepOne);
        const bool gated = batchEconomy < 0.75;
        bench::section(backendName +
                       " conversations: continuous batching vs serial "
                       "decode (svc ~" + bench::fmtSeconds(serialService) +
                       "/conv, token deadline " +
                       bench::fmtSeconds(tokenDeadline) +
                       ", batch economy " + Table::fmt(batchEconomy, 2) +
                       (gated ? ")" : ", gate informational)"));
        Table table({"load", "mode", "done", "shed", "tok met",
                     "tok total", "ttft p95", "token p95"});
        for (const double load : convLoads) {
            const double rate = load / serialService;
            Rng rng(0xdec0de5ull ^
                    static_cast<std::uint64_t>(load * 1e3));
            std::vector<ConvArrival> trace;
            double t = 0;
            for (unsigned i = 0; i < conversations; ++i) {
                t += -std::log(1.0 - rng.nextDouble()) / rate;
                trace.push_back({t, kPromptLens[rng.nextBounded(3)],
                                 kDecodeLens[rng.nextBounded(3)]});
            }
            ConvStats continuous, serial;
            for (const bool batched : {true, false}) {
                ConvStats stats =
                    runConversation(backendName, /*ranks=*/1, load,
                                    batched, trace, ttft, tokenDeadline);
                (batched ? continuous : serial) = stats;
                gConvRuns.push_back(stats);
                table.addRow(
                    {Table::fmt(load, 2) + "x", stats.mode,
                     std::to_string(stats.completed),
                     std::to_string(stats.shedDeadline +
                                    stats.shedCapacity),
                     std::to_string(stats.tokensMet),
                     std::to_string(stats.tokens),
                     bench::fmtSeconds(stats.ttftP95),
                     bench::fmtSeconds(stats.tokenP95)});
            }
            if (gated && load >= 2.0 &&
                continuous.tokensMet <= serial.tokensMet) {
                gatePassed = false;
                bench::note("GATE: continuous batching did not beat "
                            "serial decode on deadline-met tokens at " +
                            Table::fmt(load, 2) + "x overload (" +
                            std::to_string(continuous.tokensMet) +
                            " vs " + std::to_string(serial.tokensMet) +
                            ")");
            }
        }
        table.print();
    }
    bench::note("expected shape: at low load the modes tie; past 2x a "
                "serial server falls behind the absolute token schedule "
                "while re-batching every step keeps emitted tokens on "
                "deadline.");

    writeJson(smoke, gatePassed);
    if (smoke && !gatePassed) {
        bench::note("FAIL: SLO scheduler gate (see GATE notes above)");
        return 1;
    }
    return 0;
}
