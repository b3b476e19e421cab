/**
 * @file
 * `gemm_serving`: open-loop Poisson GEMM traffic through the SLO-aware
 * RequestScheduler over 4 data-parallel ranks.  70% interactive
 * 768x768x8 and 30% batch fig09-class 3072x768x128 GEMMs, deadlines of
 * 4x and 40x each lane's modeled service, values on.  One trace runs at
 * ~2x modeled capacity (admission, shedding, goodput); the rest run below
 * capacity, where almost every request is admitted, and give the modeled
 * latency percentiles and the host throughput.
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
constexpr double kInteractiveShare = 0.7;
constexpr double kInteractiveDeadlineX = 4.0;
constexpr double kBatchDeadlineX = 40.0;
constexpr std::size_t kInterM = 768, kInterK = 768, kInterN = 8;
constexpr std::size_t kBatchM = 3072, kBatchK = 768, kBatchN = 128;
/** Distinct problems (weights + activations) per lane. */
constexpr unsigned kInterPool = 8;
constexpr unsigned kBatchPool = 4;
/** Offered load as multiples of modeled capacity. */
constexpr double kLowLoad = 0.4;
constexpr double kHighLoad = 2.0;
/** Lanes are dealt in blocks of 10 requests, exactly 7 interactive and
 * 3 batch in seeded order, so every trace carries the stated mix. */
constexpr unsigned kMixBlock = 10;
constexpr unsigned kMixInteractive = 7;
constexpr unsigned kLowRequests = 100; ///< per below-capacity trace
/** Overload traces, each on its own session; goodput is their median. */
constexpr unsigned kHighTraces = 6;
constexpr unsigned kHighRequests = 1000; ///< per overload trace
/** Trace ids of the overload traces (below-capacity ones count from 1). */
constexpr unsigned kHighTraceIds = 1000;
/** Below-capacity traces whose modeled samples are reported (the rest
 * only add host-throughput samples, so modeled output never depends on
 * host speed). */
constexpr unsigned kModelTraces = 4;
constexpr std::size_t kMaxQueuedPerRank = 16;

struct Pools {
    std::vector<GemmProblem> inter, batch;
    std::vector<std::vector<std::int32_t>> interRef, batchRef;
    double interService = 0, batchService = 0; ///< modeled seconds
    double capacity = 0;                       ///< requests / second
};

Pools
makePools(std::uint64_t seed)
{
    const QuantConfig quant = benchQuant();
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5e7e);
    Pools pools;
    const auto make = [&](std::size_t m, std::size_t k, std::size_t n) {
        return GemmProblem{randomMatrix(m, k, quant.weightCodec, rng),
                           randomMatrix(k, n, quant.actCodec, rng)};
    };
    for (unsigned i = 0; i < kInterPool; ++i) {
        pools.inter.push_back(make(kInterM, kInterK, kInterN));
    }
    for (unsigned i = 0; i < kBatchPool; ++i) {
        pools.batch.push_back(make(kBatchM, kBatchK, kBatchN));
    }
    std::vector<std::pair<const QuantizedMatrix*, const QuantizedMatrix*>>
        pairs;
    for (const auto* pool : {&pools.inter, &pools.batch}) {
        for (const GemmProblem& p : *pool) {
            pairs.emplace_back(&p.w, &p.a);
        }
    }
    auto refs = referenceGemms(pairs);
    pools.interRef.assign(std::make_move_iterator(refs.begin()),
                          std::make_move_iterator(refs.begin() + kInterPool));
    pools.batchRef.assign(std::make_move_iterator(refs.begin() + kInterPool),
                          std::make_move_iterator(refs.end()));

    const BackendPtr backend = makeBackend(kBackendName);
    const auto service = [&](const GemmProblem& p) {
        return backend->execute(p, backend->plan(p, kDesign), false)
            .timing.total;
    };
    pools.interService = service(pools.inter[0]);
    pools.batchService = service(pools.batch[0]);
    pools.capacity =
        kRanks / (kInteractiveShare * pools.interService +
                  (1 - kInteractiveShare) * pools.batchService);
    return pools;
}

SessionOptions
sessionOptions()
{
    SessionOptions options;
    options.numRanks = kRanks;
    options.residencyPolicy = ResidencyPolicy::CostAware;
    return options;
}

struct Arrival {
    double time;
    bool interactive;
    unsigned index;
};

std::vector<Arrival>
makeArrivals(std::uint64_t seed, unsigned trace, double rate,
             unsigned requests)
{
    Rng rng(seed * 0x2545f4914f6cdd1dull + 0x9e37 * (trace + 1));
    std::vector<Arrival> arrivals;
    bool block[kMixBlock];
    double t = 0;
    for (unsigned i = 0; i < requests; ++i) {
        if (i % kMixBlock == 0) {
            for (unsigned j = 0; j < kMixBlock; ++j) {
                block[j] = j < kMixInteractive;
            }
            for (unsigned j = kMixBlock - 1; j > 0; --j) {
                std::swap(block[j], block[rng.nextBounded(j + 1)]);
            }
        }
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        const bool interactive = block[i % kMixBlock];
        arrivals.push_back(
            {t, interactive,
             static_cast<unsigned>(
                 rng.nextBounded(interactive ? kInterPool : kBatchPool))});
    }
    return arrivals;
}

/** What one replayed trace produced. */
struct TraceResult {
    double host = 0; ///< wall seconds of submit + wait for the trace
    unsigned interExecuted = 0, batchExecuted = 0;
    unsigned admitted = 0, shed = 0, rejected = 0, offered = 0;
    std::vector<RequestSample> samples; ///< admitted requests
};

TraceResult
replay(InferenceSession& session, const Pools& pools,
       const std::vector<Arrival>& arrivals, bool values, SpanLog* log,
       Report& report)
{
    SchedulerOptions options;
    options.maxQueuedPerRank = kMaxQueuedPerRank;
    const QuantConfig quant = benchQuant();
    const GemmProblem interShape =
        makeShapeOnlyProblem(kInterM, kInterK, kInterN, quant);
    const GemmProblem batchShape =
        makeShapeOnlyProblem(kBatchM, kBatchK, kBatchN, quant);
    TraceResult out;
    const auto start = Clock::now();
    RequestScheduler scheduler(session, options);
    std::vector<AdmissionDecision> decisions;
    decisions.reserve(arrivals.size());
    for (const Arrival& arrival : arrivals) {
        const GemmProblem& problem =
            !values ? (arrival.interactive ? interShape : batchShape)
            : arrival.interactive ? pools.inter[arrival.index]
                                  : pools.batch[arrival.index];
        ServingRequest request = ServingRequest::gemm(
            problem, kDesign,
            arrival.interactive ? DeadlineClass::Interactive
                                : DeadlineClass::Batch,
            arrival.interactive ? kInteractiveDeadlineX * pools.interService
                                : kBatchDeadlineX * pools.batchService,
            values);
        request.arrivalSeconds = arrival.time;
        ScopedSpan span(log, "scheduler.submit");
        decisions.push_back(scheduler.submit(std::move(request)));
    }
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        ++out.offered;
        ++report.attempted;
        ServingResult result;
        try {
            ScopedSpan span(log, "scheduler.wait", decisions[i].id);
            result = scheduler.wait(decisions[i].id);
        } catch (const std::exception& e) {
            ++report.failed;
            report.fail(std::string("scheduler wait threw: ") + e.what());
            continue;
        }
        switch (result.decision.outcome) {
          case AdmissionOutcome::Admitted:
            break;
          case AdmissionOutcome::RejectedSaturated:
            ++out.rejected;
            continue;
          default:
            ++out.shed;
            continue;
        }
        ++out.admitted;
        const Arrival& arrival = arrivals[i];
        const auto& ref = arrival.interactive ? pools.interRef[arrival.index]
                                              : pools.batchRef[arrival.index];
        (arrival.interactive ? out.interExecuted : out.batchExecuted) += 1;
        if (values && result.gemm.outInt != ref) {
            ++report.failed;
            report.fail("served GEMM diverged from referenceGemmInt");
        }
        out.samples.push_back(result.sample);
    }
    out.host = secondsSince(start);
    return out;
}

void
digestTrace(const TraceResult& trace, Digest& digest)
{
    digest.add(static_cast<std::uint64_t>(trace.admitted));
    digest.add(static_cast<std::uint64_t>(trace.shed));
    digest.add(static_cast<std::uint64_t>(trace.rejected));
    for (const RequestSample& s : trace.samples) {
        digest.add(static_cast<std::uint64_t>(s.lane));
        digest.add(s.arrivalSeconds);
        digest.add(s.startSeconds);
        digest.add(s.completionSeconds);
        digest.add(s.serviceSeconds);
        digest.add(s.lutBroadcastSeconds);
    }
}

/** Set-ups, the overload trace, then below-capacity traces. */
struct Pass {
    std::vector<double> setups;
    std::vector<TraceResult> high;
    std::vector<TraceResult> low;
    Digest digest;
    double from = 0, to = 0; ///< window of the below-capacity traces
    unsigned workers = 0;
    PlanCache::Stats before, after;
    ResidencyStats residency;
};

Pass
runPass(const Pools& pools, std::uint64_t seed, const BackendPtr& backend,
        bool timeSetup, double seconds, SpanLog* log, Report& report)
{
    Pass pass;
    std::unique_ptr<InferenceSession> session;
    while (moreSetups(pass.setups, timeSetup)) {
        session.reset();
        LutTableCache::global().clear();
        const auto start = Clock::now();
        session = std::make_unique<InferenceSession>(backend,
                                                     sessionOptions());
        // The first cold pass: every pool problem once, pinned round-robin
        // over the ranks (plans, prepared operands, LUT tables).
        std::vector<std::pair<InferenceSession::RequestId,
                              const std::vector<std::int32_t>*>>
            ids;
        unsigned rank = 0;
        for (const auto& [pool, refs] :
             {std::pair{&pools.inter, &pools.interRef},
              std::pair{&pools.batch, &pools.batchRef}}) {
            for (std::size_t p = 0; p < pool->size(); ++p) {
                SubmitOptions pin;
                pin.rank = static_cast<int>(rank++ % kRanks);
                ids.emplace_back(session->submit((*pool)[p], kDesign, true,
                                                 {}, pin),
                                 &(*refs)[p]);
            }
        }
        for (const auto& [id, ref] : ids) {
            ++report.attempted;
            try {
                if (session->wait(id).outInt != *ref) {
                    ++report.failed;
                    report.fail("set-up GEMM diverged from "
                                "referenceGemmInt");
                }
            } catch (const std::exception& e) {
                ++report.failed;
                report.fail(std::string("set-up GEMM threw: ") + e.what());
            }
        }
        pass.setups.push_back(secondsSince(start));
    }
    pass.workers = session->workerCount();

    // Overload traces are timing-only (their modeled schedule does not
    // depend on values, so they can be long) and run on fresh sessions,
    // so goodput is a median over independent trajectories.
    for (unsigned t = 0; t < kHighTraces; ++t) {
        InferenceSession overload(backend, sessionOptions());
        pass.high.push_back(
            replay(overload, pools,
                   makeArrivals(seed, kHighTraceIds + t,
                                kHighLoad * pools.capacity, kHighRequests),
                   /*values=*/false, log, report));
        digestTrace(pass.high.back(), pass.digest);
    }

    pass.before = session->planCacheStats();
    pass.from = log != nullptr ? log->now() : 0;
    const auto start = Clock::now();
    for (unsigned trace = 1;; ++trace) {
        pass.low.push_back(replay(
            *session, pools,
            makeArrivals(seed, trace, kLowLoad * pools.capacity,
                         kLowRequests),
            /*values=*/true, log, report));
        if (trace <= kModelTraces) {
            digestTrace(pass.low.back(), pass.digest);
        }
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
requestsPerSecond(const std::vector<TraceResult>& traces)
{
    std::vector<double> rates;
    for (const TraceResult& t : traces) {
        rates.push_back((t.interExecuted + t.batchExecuted) / t.host);
    }
    return rates;
}

/** Mean host seconds of @p fn over the pool problems of one lane. */
template <typename Fn>
double
perProblemSeconds(const std::vector<GemmProblem>& pool, const Fn& fn)
{
    double total = 0;
    for (const GemmProblem& problem : pool) {
        const auto start = Clock::now();
        fn(problem);
        total += secondsSince(start);
    }
    return total / static_cast<double>(pool.size());
}

} // namespace

void
runGemmServing(const RunOptions& options, Report& report)
{
    const Pools pools = makePools(options.seed);
    report.param("traffic", "open loop, seeded Poisson arrivals in virtual "
                            "time, SLO scheduler");
    report.param("ranks", std::to_string(kRanks) + " (data-parallel)");
    report.param("quant/backend/design", "W4A4 / upmem / LoCaLUT");
    report.param("residency", "cost-aware, default MRAM budget");
    report.param("mix", "70% interactive 768x768x8 (deadline 4x service), "
                        "30% batch 3072x768x128 (deadline 40x service)");
    report.param("problem_pools", std::to_string(kInterPool) +
                                      " interactive, " +
                                      std::to_string(kBatchPool) + " batch");
    report.param("rates", std::to_string(kLowLoad) + "x and " +
                              std::to_string(kHighLoad) +
                              "x modeled capacity (" +
                              std::to_string(pools.capacity) + " req/s)");
    report.param("trace_requests",
                 std::to_string(kLowRequests) + " below capacity, " +
                     std::to_string(kHighTraces) + " x " +
                     std::to_string(kHighRequests) +
                     " overload (timing-only, fresh session each)");
    report.param("max_queued_per_rank", std::to_string(kMaxQueuedPerRank));

    const auto modeledStats = [&](const Pass& pass) {
        std::vector<double> latency, queue;
        unsigned lowTurnedAway = 0;
        for (unsigned t = 0; t < kModelTraces; ++t) {
            lowTurnedAway += pass.low[t].shed + pass.low[t].rejected;
            for (const RequestSample& s : pass.low[t].samples) {
                queue.push_back(s.queueDelaySeconds());
                if (s.lane == DeadlineClass::Interactive) {
                    latency.push_back(s.latencySeconds());
                }
            }
        }
        report.set("model_p50_ms", 1e3 * quantile(latency, 0.50));
        report.set("model_p99_ms", 1e3 * quantile(latency, 0.99));
        report.set("scheduler.queue_p50_ms", 1e3 * quantile(queue, 0.50));
        report.set("scheduler.queue_p99_ms", 1e3 * quantile(queue, 0.99));
        // Deadline-met requests per modeled second of offered traffic:
        // a trace's met share times its offered rate, median over the
        // overload traces.  Shed, rejected and failed requests count as
        // missed.
        std::vector<double> goodputs;
        double offered = 0, admitted = 0, shed = 0, rejected = 0;
        for (const TraceResult& trace : pass.high) {
            double met = 0;
            for (const RequestSample& s : trace.samples) {
                met += s.deadlineMet() ? 1 : 0;
            }
            goodputs.push_back(met / trace.offered * kHighLoad *
                               pools.capacity);
            offered += trace.offered;
            admitted += trace.admitted;
            shed += trace.shed;
            rejected += trace.rejected;
        }
        const double goodput = median(goodputs);
        report.set("model_goodput_per_s", goodput);
        report.set("model_rate_per_s", goodput);
        report.set("scheduler.admit_share", admitted / offered);
        report.set("scheduler.shed_share", shed / offered);
        report.set("scheduler.reject_share", rejected / offered);
        report.param("interactive_latency_samples",
                     std::to_string(latency.size()));
        report.param("below_capacity_shed_or_rejected",
                     std::to_string(lowTurnedAway) + " of " +
                         std::to_string(kModelTraces * kLowRequests));
    };

    if (!options.trace) {
        const Pass pass =
            runPass(pools, options.seed, makeBackend(kBackendName), true,
                    options.seconds, nullptr, report);
        report.param("setups", std::to_string(pass.setups.size()));
        modeledStats(pass);
        const std::vector<double> rates = requestsPerSecond(pass.low);
        const double rate = hostRate(rates);
        report.param("requests_per_s_by_trace", spreadNote(rates));
        report.set("setup_s", median(pass.setups));
        report.set("requests_per_s", rate);
        report.set("host_rate_per_s", rate);
        report.digest = pass.digest.value();
        report.param("below_capacity_traces",
                     std::to_string(pass.low.size()));
    } else {
        const Pass plain =
            runPass(pools, options.seed, makeBackend(kBackendName), false,
                    0.35 * options.seconds, nullptr, report);
        SpanLog log;
        const Pass traced = runPass(
            pools, options.seed,
            std::make_shared<TracingBackend>(makeBackend(kBackendName), log),
            false, 0.35 * options.seconds, &log, report);
        if (traced.digest.value() != plain.digest.value()) {
            report.fail("traced run's modeled digest differs from the "
                        "untraced run's");
        }
        report.digest = plain.digest.value();
        modeledStats(traced);

        unsigned inter = 0, batch = 0;
        for (const TraceResult& t : traced.low) {
            inter += t.interExecuted;
            batch += t.batchExecuted;
        }
        const double requests = inter + batch;
        reportBackendLayers(log, traced.from, traced.to, requests,
                            traced.workers,
                            {"scheduler.submit", "scheduler.wait"}, report);
        reportPlanCache(traced.before, traced.after, report);
        reportResidency(traced.residency, report);

        double interKernel = 0, batchKernel = 0;
        const std::vector<Span> exec =
            log.select(kSpanExecute, traced.from, traced.to);
        for (const Span& span : exec) {
            (span.m == kBatchM ? batchKernel : interKernel) += span.seconds();
        }
        report.set("exec.kernel_ms.interactive",
                   inter > 0 ? 1e3 * interKernel / inter : 0.0);
        report.set("exec.kernel_ms.batch",
                   batch > 0 ? 1e3 * batchKernel / batch : 0.0);
        report.set("sharding.shards_per_gemm",
                   requests > 0 ? exec.size() / requests : 0.0);
        const std::vector<Span> submits =
            log.select("scheduler.submit", traced.from, traced.to);
        report.set("scheduler.submit_us",
                   submits.empty() ? 0.0
                                   : 1e6 * busySeconds(submits) /
                                         static_cast<double>(submits.size()));

        // Fingerprint / prepare cost per request on the workload's own
        // weights, weighted by the executed lane mix.
        const BackendPtr backend = makeBackend(kBackendName);
        const GemmPlan interPlan = backend->plan(pools.inter[0], kDesign);
        const GemmPlan batchPlan = backend->plan(pools.batch[0], kDesign);
        const auto fingerprint = [](const GemmProblem& p) {
            weightsFingerprint(p.w);
        };
        const auto prepare = [&](const GemmProblem& p) {
            prepareGemm(p, p.m() == kBatchM ? batchPlan : interPlan);
        };
        const double mixInter = requests > 0 ? inter / requests : 0.0;
        report.set("exec.fingerprint_ms",
                   1e3 * (mixInter * perProblemSeconds(pools.inter,
                                                       fingerprint) +
                          (1 - mixInter) *
                              perProblemSeconds(pools.batch, fingerprint)));
        report.set("exec.prepare_ms",
                   1e3 * (mixInter * perProblemSeconds(pools.inter, prepare) +
                          (1 - mixInter) *
                              perProblemSeconds(pools.batch, prepare)));
        report.set("trace.overhead_share",
                   hostRate(requestsPerSecond(plain.low)) /
                           hostRate(requestsPerSecond(traced.low)) -
                       1.0);
    }
    report.set("fail_share", static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted));
}

} // namespace perfbench
