/**
 * @file
 * Token-level serving engine tests: per-step costs sum to the
 * whole-workload decode on every backend, steady-state decode pays zero
 * LUT rebroadcast while KV bytes grow monotonically, MRAM pressure
 * degrades from LUT eviction to KV shed, per-token SLO shedding, a
 * deadline-met goodput win for continuous batching under overload,
 * thread-safety of engines sharing one session, decode steps that
 * price no GEMM after their graph is compiled, and NaN times rejected
 * at the engine's and the scheduler's submit().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "common/logging.h"
#include "serving/token_engine.h"

namespace localut {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TokenEngineOptions
smallEngineOptions()
{
    TokenEngineOptions options;
    options.model = TransformerConfig::opt125m();
    options.quant = QuantConfig::preset("W4A4");
    options.design = DesignPoint::LoCaLut;
    return options;
}

/** Raw KV bytes of one token across every layer of @p options' model. */
std::uint64_t
kvTokenBytes(const TokenEngineOptions& options)
{
    return static_cast<std::uint64_t>(options.model.layers) *
           options.model.kvBytesPerTokenPerLayer(options.kvBitsPerValue);
}

/** Sum of (end - start) over the decode steps of @p traces. */
double
decodeSeconds(const std::vector<StepTrace>& traces)
{
    double total = 0;
    for (const StepTrace& trace : traces) {
        if (trace.decode) {
            total += trace.endSeconds - trace.startSeconds;
        }
    }
    return total;
}

TEST(TokenEngine, PerStepDecodeSumsToWholeWorkloadOnEveryBackend)
{
    // The fig10-class invariant: serving a decode token-by-token through
    // TokenRequest costs exactly what the whole-workload decode() spec
    // costs (residency disabled isolates the steady-state shares; the
    // sums differ only by floating-point association).
    const unsigned promptLen = 16, steps = 5;
    for (const char* name : {"upmem", "bankpim", "host-cpu"}) {
        SCOPED_TRACE(name);
        InferenceSession session(name, SessionOptions{});
        TokenEngine engine(session, smallEngineOptions());
        TokenRequest request;
        request.promptLen = promptLen;
        request.decodeSteps = steps;
        engine.submit(request);
        const std::vector<StreamResult> results = engine.run();
        ASSERT_EQ(results.size(), 1u);
        EXPECT_EQ(results[0].status, StreamStatus::Completed);
        EXPECT_EQ(results[0].tokensEmitted(), steps);

        const TokenEngineOptions& opts = engine.options();
        const InferenceReport whole = session.run(session.compileUnsharded(
            WorkloadSpec::decode(opts.model, 1, promptLen, steps),
            opts.quant, opts.design));
        const double stepped = decodeSeconds(engine.stepTraces());
        EXPECT_NEAR(stepped, whole.timing.total,
                    1e-9 * whole.timing.total);
    }
}

TEST(TokenEngine, SteadyDecodePaysNoRebroadcastWhileKvGrows)
{
    // The golden cold/steady ledger: the first decode step broadcasts
    // the tier's tables (Phase::LutBroadcast), every later step finds
    // them MRAM-resident and pays zero, while the stream's resident KV
    // bytes grow by exactly one token per step.
    const unsigned promptLen = 16, steps = 6;
    SessionOptions sessionOptions;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session("upmem", sessionOptions);
    TokenEngine engine(session, smallEngineOptions());
    TokenRequest request;
    request.promptLen = promptLen;
    request.decodeSteps = steps;
    engine.submit(request);
    const std::vector<StreamResult> results = engine.run();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, StreamStatus::Completed);

    const std::uint64_t perToken = kvTokenBytes(engine.options());
    std::vector<StepTrace> decodes;
    for (const StepTrace& trace : engine.stepTraces()) {
        if (trace.decode) {
            decodes.push_back(trace);
        }
    }
    ASSERT_EQ(decodes.size(), steps);
    EXPECT_GT(decodes[0].lutBroadcastSeconds, 0.0); // cold tier tables
    for (std::size_t t = 1; t < decodes.size(); ++t) {
        EXPECT_DOUBLE_EQ(decodes[t].lutBroadcastSeconds, 0.0);
    }
    for (std::size_t t = 0; t < decodes.size(); ++t) {
        EXPECT_GT(decodes[t].kvSeconds, 0.0); // every step appends KV
        // The last step's trace reads after the finished stream
        // released its KV; every earlier one shows the grown context.
        const std::uint64_t expected =
            t + 1 < decodes.size() ? perToken * (promptLen + t + 1) : 0;
        EXPECT_EQ(decodes[t].kvResidentBytes, expected);
    }
}

TEST(TokenEngine, MramPressureDegradesFromEvictionToShed)
{
    // Shrinking the shared MRAM budget flips the arbitration outcome:
    // generous budgets evict nothing, a budget that cannot hold tables
    // plus the grown KV forces evictions/spills (the stream still
    // completes), and a budget below the stream's own KV footprint
    // sheds it outright.
    const unsigned promptLen = 8, steps = 6;
    const auto serve = [&](std::uint64_t budget, InferenceSession** out) {
        SessionOptions sessionOptions;
        sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
        sessionOptions.mramBudgetBytes = budget;
        auto* session = new InferenceSession("host-cpu", sessionOptions);
        *out = session;
        TokenEngine engine(*session, smallEngineOptions());
        TokenRequest request;
        request.promptLen = promptLen;
        request.decodeSteps = steps;
        engine.submit(request);
        return engine.run();
    };

    // Calibrate: generous budget records the LUT bytes and the largest
    // KV footprint the trace ever needs.
    InferenceSession* calibration = nullptr;
    const std::vector<StreamResult> easy = serve(0, &calibration);
    ASSERT_EQ(easy[0].status, StreamStatus::Completed);
    const ResidencyStats calm = calibration->residencyStats();
    EXPECT_EQ(calm.evictions, 0u);
    EXPECT_EQ(calm.kvSpills, 0u);
    EXPECT_EQ(calm.kvSheds, 0u);
    const std::uint64_t lut = calibration->residency()->lutBytes(0);
    ASSERT_GT(lut, 0u);
    const unsigned units =
        std::max(1u, calibration->backend().memoryProfile().unitsPerRank);
    const std::uint64_t maxKvRaw =
        kvTokenBytes(smallEngineOptions()) * (promptLen + steps);
    const std::uint64_t maxKvFoot = (maxKvRaw + units - 1) / units;
    ASSERT_GT(maxKvFoot, 1u);
    ASSERT_GT(lut, 1u);
    delete calibration;

    // Pressure: the stream's grown KV always fits on its own, but
    // tables + full KV no longer coexist — something must go, and the
    // stream still completes.
    const std::uint64_t tightBudget = maxKvFoot + lut / 2;
    InferenceSession* pressured = nullptr;
    const std::vector<StreamResult> tight = serve(tightBudget, &pressured);
    EXPECT_EQ(tight[0].status, StreamStatus::Completed);
    const ResidencyStats strained = pressured->residencyStats();
    EXPECT_GE(strained.evictions + strained.kvSpills, 1u);
    EXPECT_EQ(strained.kvSheds, 0u);
    EXPECT_LE(pressured->residency()->lutBytes(0) +
                  pressured->residency()->kvBytes(0),
              tightBudget); // the budget invariant
    delete pressured;

    // Starvation: the stream's own KV can never fit — capacity shed.
    InferenceSession* starved = nullptr;
    const std::vector<StreamResult> shed =
        serve(maxKvFoot - 1, &starved);
    EXPECT_EQ(shed[0].status, StreamStatus::ShedCapacity);
    EXPECT_GE(starved->residencyStats().kvSheds, 1u);
    delete starved;
}

TEST(TokenEngine, SloShedsStreamsWithUnmeetableTokenDeadlines)
{
    SessionOptions sessionOptions;
    InferenceSession session("host-cpu", sessionOptions);
    const TokenEngineOptions base = smallEngineOptions();

    // Calibrate the per-token deadline against modeled costs: the TTFT
    // bound is met, but the absolute token schedule advances at half a
    // decode step per token, so virtual time overtakes it mid-stream.
    const double prefillSecs =
        session
            .projectCost(session.compileUnsharded(
                WorkloadSpec::prefill(base.model, 1, 4), base.quant,
                base.design))
            .totalSeconds();
    const double stepSecs =
        session
            .projectCost(session.compileUnsharded(
                WorkloadSpec::decodeStep(base.model, 1, 4), base.quant,
                base.design))
            .totalSeconds();
    TokenRequest request;
    request.promptLen = 4;
    request.decodeSteps = 64;
    request.ttftDeadlineSeconds = 2.0 * prefillSecs;
    request.tokenDeadlineSeconds = 0.5 * stepSecs;

    TokenEngineOptions slo = base;
    slo.policy = SchedulerPolicy::Slo;
    Telemetry telemetry;
    TokenEngine sloEngine(session, slo, &telemetry);
    sloEngine.submit(request);
    const std::vector<StreamResult> shed = sloEngine.run();
    ASSERT_EQ(shed.size(), 1u);
    EXPECT_EQ(shed[0].status, StreamStatus::ShedDeadline);
    EXPECT_TRUE(shed[0].ttftMet);
    EXPECT_LT(shed[0].tokensEmitted(), request.decodeSteps);
    const TelemetrySnapshot snap = telemetry.snapshot();
    EXPECT_GE(snap.shedDeadline[static_cast<std::size_t>(
                  DeadlineClass::Decode)],
              1u);

    // The Fifo baseline never sheds: every token is emitted, the late
    // ones just miss.
    TokenEngineOptions fifo = base;
    fifo.policy = SchedulerPolicy::Fifo;
    TokenEngine fifoEngine(session, fifo);
    fifoEngine.submit(request);
    const std::vector<StreamResult> served = fifoEngine.run();
    ASSERT_EQ(served.size(), 1u);
    EXPECT_EQ(served[0].status, StreamStatus::Completed);
    EXPECT_EQ(served[0].tokensEmitted(), request.decodeSteps);
    EXPECT_GE(served[0].tokensMissed, 1u);
}

TEST(TokenEngine, ContinuousBatchingBeatsSerialGoodputUnderOverload)
{
    // Four simultaneous conversations on one rank is >= 2x overload for
    // a serial server.  Deadlines are calibrated from the model: wide
    // enough that batched decode meets every token, tight enough that a
    // serial server's later streams cannot.
    const unsigned promptLen = 8, steps = 8, streams = 4;
    SessionOptions sessionOptions;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session("host-cpu", sessionOptions);
    const TokenEngineOptions base = smallEngineOptions();

    const auto project = [&](const WorkloadSpec& spec) {
        return session
            .projectCost(session.compileUnsharded(spec, base.quant,
                                                  base.design))
            .totalSeconds();
    };
    const double prefillSecs =
        project(WorkloadSpec::prefill(base.model, 1, promptLen));
    const double step4 = project(WorkloadSpec::decodeStep(
        base.model, streams, promptLen + steps));
    const std::uint64_t tokenBytes = kvTokenBytes(base);
    const double kvToken =
        session.residency()->broadcastSeconds(tokenBytes);
    const double kvPrompt =
        session.residency()->broadcastSeconds(tokenBytes * promptLen);
    const double ttft =
        streams * (prefillSecs + kvPrompt) + 2.0 * (step4 + 4 * kvToken);
    const double perToken = 3.0 * step4 + 8.0 * kvToken;

    const auto goodput = [&](bool continuous, SchedulerPolicy policy) {
        TokenEngineOptions options = base;
        options.continuousBatching = continuous;
        options.policy = policy;
        TokenEngine engine(session, options);
        for (unsigned s = 0; s < streams; ++s) {
            TokenRequest request;
            request.promptLen = promptLen;
            request.decodeSteps = steps;
            request.ttftDeadlineSeconds = ttft;
            request.tokenDeadlineSeconds = perToken;
            engine.submit(request);
        }
        unsigned met = 0;
        for (const StreamResult& result : engine.run()) {
            met += result.tokensMet;
        }
        return met;
    };

    const unsigned continuous = goodput(true, SchedulerPolicy::Slo);
    const unsigned serial = goodput(false, SchedulerPolicy::Fifo);
    EXPECT_EQ(continuous, streams * steps); // batched: every token met
    EXPECT_LT(serial, continuous); // serial tail blows the schedule
}

TEST(TokenEngine, EnginesSharingASessionAreThreadSafe)
{
    SessionOptions sessionOptions;
    sessionOptions.residencyPolicy = ResidencyPolicy::CostAware;
    InferenceSession session("host-cpu", sessionOptions);
    Telemetry telemetry;

    const auto serve = [&] {
        TokenEngine engine(session, smallEngineOptions(), &telemetry);
        for (unsigned s = 0; s < 4; ++s) {
            TokenRequest request;
            request.promptLen = 4 + s;
            request.decodeSteps = 4;
            engine.submit(request);
        }
        const std::vector<StreamResult> results = engine.run();
        ASSERT_EQ(results.size(), 4u);
        for (const StreamResult& result : results) {
            EXPECT_EQ(result.status, StreamStatus::Completed);
            EXPECT_EQ(result.tokensEmitted(), 4u);
        }
    };
    std::thread a(serve), b(serve);
    a.join();
    b.join();
    EXPECT_EQ(telemetry.snapshot()
                  .lanes[static_cast<std::size_t>(DeadlineClass::Decode)]
                  .tokens,
              2u * 4u * 4u);
}

/** Forwards every call to a wrapped backend and counts execute(). */
class CountingBackend final : public Backend
{
  public:
    explicit CountingBackend(BackendPtr inner) : inner_(std::move(inner)) {}

    using Backend::execute;

    const BackendCapabilities& capabilities() const override
    {
        return inner_->capabilities();
    }
    GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                  const PlanOverrides& overrides) const override
    {
        return inner_->plan(problem, design, overrides);
    }
    KernelCost chargeCosts(const GemmPlan& plan) const override
    {
        return inner_->chargeCosts(plan);
    }
    GemmResult execute(const GemmProblem& problem, const GemmPlan& plan,
                       const ExecOptions& options) const override
    {
        ++executes_;
        return inner_->execute(problem, plan, options);
    }
    void chargeHostOps(double ops, TimingReport& timing,
                       EnergyReport& energy) const override
    {
        inner_->chargeHostOps(ops, timing, energy);
    }
    CollectiveLinkProfile collectiveProfile() const override
    {
        return inner_->collectiveProfile();
    }
    MemoryProfile memoryProfile() const override
    {
        return inner_->memoryProfile();
    }
    std::uint64_t configFingerprint() const override
    {
        return inner_->configFingerprint();
    }

    /** execute() calls so far. */
    unsigned executes() const { return executes_.load(); }

  private:
    BackendPtr inner_;
    mutable std::atomic<unsigned> executes_{0};
};

TEST(TokenEngine, StepsDoNotRepriceTheirGraph)
{
    // A graph's GEMMs are priced when the engine compiles it; a decode
    // step only charges its host ops.  So ten times the steps must not
    // cost a single further backend execution.
    const auto executesFor = [](unsigned decodeSteps) {
        const auto backend =
            std::make_shared<CountingBackend>(makeBackend("upmem"));
        SessionOptions options;
        options.residencyPolicy = ResidencyPolicy::CostAware;
        InferenceSession session(backend, options);
        TokenEngine engine(session, smallEngineOptions());
        TokenRequest request;
        request.promptLen = 16;
        request.decodeSteps = decodeSteps;
        engine.submit(request);
        const std::vector<StreamResult> results = engine.run();
        EXPECT_EQ(results.at(0).status, StreamStatus::Completed);
        EXPECT_EQ(results.at(0).tokensEmitted(), decodeSteps);
        return backend->executes();
    };
    const unsigned few = executesFor(5);
    EXPECT_GT(few, 0u); // compiling priced the graphs
    EXPECT_EQ(executesFor(50), few);
}

TEST(TokenEngine, AbsoluteDeadlineScheduleAnchorsAtTtftBound)
{
    InferenceSession session("host-cpu", SessionOptions{});
    TokenEngine engine(session, smallEngineOptions());
    TokenRequest request;
    request.promptLen = 4;
    request.decodeSteps = 3;
    request.ttftDeadlineSeconds = 100.0; // generous, finite anchor
    request.tokenDeadlineSeconds = 1.0;
    engine.submit(request);
    const std::vector<StreamResult> results = engine.run();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].tokenDeadlines.size(), 3u);
    for (unsigned t = 0; t < 3; ++t) {
        EXPECT_DOUBLE_EQ(results[0].tokenDeadlines[t],
                         100.0 + (t + 1) * 1.0);
    }
    EXPECT_EQ(results[0].tokensMet, 3u);
    EXPECT_EQ(streamStatusName(results[0].status),
              std::string("completed"));
}

TEST(MalformedInput, NanServingTimesAreRejected)
{
    // NaN fails every comparison, so a NaN time would pass each shed and
    // clamp check as a deadline or arrival nobody can reason about: both
    // serving front doors fatal on it and keep their state.
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    InferenceSession session("host-cpu", SessionOptions{});

    RequestScheduler scheduler(session);
    const GemmProblem problem =
        makeShapeOnlyProblem(64, 64, 4, QuantConfig::preset("W4A4"));
    ServingRequest nanDeadline = ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive, kNan,
        /*computeValues=*/false);
    EXPECT_THROW(scheduler.submit(nanDeadline), FatalError);
    ServingRequest nanArrival = ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive, kInf,
        /*computeValues=*/false);
    nanArrival.arrivalSeconds = kNan;
    EXPECT_THROW(scheduler.submit(nanArrival), FatalError);
    EXPECT_EQ(scheduler.clockSeconds(), 0.0);
    EXPECT_EQ(scheduler.telemetry().snapshot().totalSubmitted(), 0u);
    // A non-positive budget keeps its documented shed.
    const AdmissionDecision past = scheduler.submit(ServingRequest::gemm(
        problem, DesignPoint::LoCaLut, DeadlineClass::Interactive, 0.0,
        /*computeValues=*/false));
    EXPECT_EQ(past.outcome, AdmissionOutcome::ShedDeadline);

    TokenEngine engine(session, smallEngineOptions());
    TokenRequest request;
    request.promptLen = 4;
    request.decodeSteps = 2;
    request.arrivalSeconds = 5.0;
    engine.submit(request);
    for (double TokenRequest::*field :
         {&TokenRequest::arrivalSeconds, &TokenRequest::ttftDeadlineSeconds,
          &TokenRequest::tokenDeadlineSeconds}) {
        TokenRequest bad = request;
        bad.*field = kNan;
        EXPECT_THROW(engine.submit(bad), FatalError);
    }
    // The rejected NaN arrival left the monotone-arrival clamp intact,
    // and a TTFT bound already past keeps its Slo shed.
    TokenRequest early = request;
    early.arrivalSeconds = 1.0;
    early.ttftDeadlineSeconds = -1.0;
    engine.submit(early);
    const std::vector<StreamResult> results = engine.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, StreamStatus::Completed);
    EXPECT_EQ(results[1].arrivalSeconds, 5.0);
    EXPECT_EQ(results[1].status, StreamStatus::ShedDeadline);
}

} // namespace
} // namespace localut
