#ifndef LOCALUT_SERVING_TOKEN_ENGINE_H_
#define LOCALUT_SERVING_TOKEN_ENGINE_H_

/**
 * @file
 * Token-level serving: prefill/decode disaggregation with continuous
 * batching over an InferenceSession, and the KV-cache as a first-class
 * MRAM resident.
 *
 * The session/scheduler layers (serving/session.h, serving/scheduler.h)
 * serve *whole workloads*: a 32-step decode is one request, sequenced
 * and charged as a block.  A real LLM frontend cannot do that — tokens
 * stream out one decode step at a time, new conversations arrive while
 * old ones are mid-generation, and the interactive SLO is *per token*.
 * The TokenEngine closes that gap:
 *
 *  - A TokenRequest describes one conversation: a prompt to prefill, a
 *    number of tokens to decode, a TTFT (time-to-first-token) deadline
 *    and a per-token deadline.
 *  - Streams are placed on a rank (data-parallel: each rank is a
 *    replica) and served by a virtual-time loop that re-forms every
 *    rank's decode batch *every step* — in-flight streams are
 *    re-batched, finished streams leave, and newly prefilled streams
 *    join between steps (continuous batching).  A rank's decode step
 *    executes one pinned decodeStep() workload whose GEMM batch is a
 *    power-of-two *tier*, so the step's LUT table-set identity is
 *    stable across steps and positions: steady-state decode pays zero
 *    LUT rebroadcast (the paper's capacity-for-computation tradeoff,
 *    operationalized at serving time).  Every step runs through
 *    InferenceSession::run() pinned to its rank; when a fault fails it
 *    over, the step's streams, KV and clock follow the rank that ran it.
 *  - Each step charges the stream's KV-cache growth through
 *    ResidencyManager::acquireKv(): KV bytes grow by one token per
 *    step and compete with LUT table sets for the same per-rank MRAM
 *    budget, with cost-driven cross-class eviction (see
 *    serving/residency.h).  A stream whose KV can never fit is shed.
 *  - Prefill and decode are disaggregated lanes (DeadlineClass::Prefill
 *    / DeadlineClass::Decode): decode steps outrank prefill admission
 *    whenever admitting a prompt would blow an active stream's next
 *    token deadline (SchedulerPolicy::Slo); SchedulerPolicy::Fifo
 *    admits in arrival order and never sheds (the throughput-oriented
 *    baseline).  Telemetry gains per-lane TTFT and inter-token
 *    histograms plus KV-residency gauges.
 *
 * Costs are modeled virtual-time seconds throughout (the repository's
 * TimingReport units).
 */

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <vector>

#include "nn/workload.h"
#include "serving/scheduler.h"
#include "serving/session.h"
#include "serving/telemetry.h"

namespace localut {

/** One conversation request served token-by-token. */
struct TokenRequest {
    /** Prompt tokens ingested by the prefill phase. */
    unsigned promptLen = 1;
    /** Decode steps to run (tokens generated after the first). */
    unsigned decodeSteps = 1;
    /** Virtual arrival time; must be monotone across submit() calls
     * (negative clamps to the previous arrival). */
    double arrivalSeconds = 0;
    /** Arrival -> first token (prefill completion) bound; +inf = none. */
    double ttftDeadlineSeconds = std::numeric_limits<double>::infinity();
    /**
     * Per-token spacing bound: decode step t must complete by
     * base + (t + 1) * tokenDeadlineSeconds, where base is the TTFT
     * deadline when finite, else the actual first-token time.  The
     * schedule is *absolute* (anchored at arrival), so a backlogged
     * serial server cannot meet it by spacing late tokens evenly.
     * +inf = no per-token bound.
     */
    double tokenDeadlineSeconds = std::numeric_limits<double>::infinity();
};

/** Terminal state of one stream. */
enum class StreamStatus {
    Completed,    ///< all decodeSteps tokens emitted
    ShedDeadline, ///< shed: a token deadline was already unmeetable
    ShedCapacity, ///< shed: the stream's KV can never fit its rank
    ShedFault,    ///< shed: rank faults left no live rank to serve it
};

/** Status name for reports ("completed" / "shed_deadline" / ...). */
const char* streamStatusName(StreamStatus status);

/** Outcome of one stream after run(). */
struct StreamResult {
    std::uint64_t id = 0;          ///< engine stream id (submit order)
    StreamStatus status = StreamStatus::Completed; ///< terminal state
    /** Replica rank the stream lives on: where its last step ran,
     * after any fault failover. */
    unsigned rank = 0;
    double arrivalSeconds = 0;     ///< virtual arrival
    /** First-token (prefill completion) virtual time; < 0 when the
     * stream was shed before prefilling. */
    double firstTokenSeconds = -1;
    double completionSeconds = 0;  ///< virtual end (last token or shed)
    /** Virtual emission time of each decode token, in order. */
    std::vector<double> tokenSeconds;
    /** Absolute deadline of each emitted decode token (+inf when the
     * request had no per-token bound); parallel to tokenSeconds. */
    std::vector<double> tokenDeadlines;
    bool ttftMet = true;           ///< prefill completed by its deadline
    unsigned tokensMet = 0;        ///< decode tokens within deadline
    unsigned tokensMissed = 0;     ///< decode tokens past a finite bound

    /** Decode tokens actually emitted. */
    unsigned tokensEmitted() const
    {
        return static_cast<unsigned>(tokenSeconds.size());
    }

    /** Time to first token; < 0 when the stream never prefilled. */
    double ttftSeconds() const
    {
        return firstTokenSeconds < 0 ? -1.0
                                     : firstTokenSeconds - arrivalSeconds;
    }
};

/** One executed engine step (prefill or batched decode), for tests and
 * cold/steady accounting: the golden invariant is that only first-touch
 * steps carry lutBroadcastSeconds while kvResidentBytes grows every
 * decode step. */
struct StepTrace {
    bool decode = false;       ///< false = prefill admission
    /** Rank that ran the step (after any fault failover in the
     * session); its clock, KV and streams are charged there. */
    unsigned rank = 0;
    unsigned streams = 0;      ///< streams served (1 for prefill)
    unsigned tier = 0;         ///< GEMM batch tier (decode; 0 otherwise)
    double startSeconds = 0;   ///< virtual start
    double endSeconds = 0;     ///< virtual end (incl. KV transfer time)
    double lutBroadcastSeconds = 0; ///< cold-start table transfer share
    double kvSeconds = 0;      ///< KV append/refill/spill transfer share
    std::uint64_t kvResidentBytes = 0; ///< raw KV bytes resident after
};

/** Engine-wide knobs: one engine serves one model deployment. */
struct TokenEngineOptions {
    TransformerConfig model = TransformerConfig::opt125m(); ///< the model
    QuantConfig quant{ValueCodec::signedBinary(),
                      ValueCodec::signedBinary()}; ///< quantization
    DesignPoint design = DesignPoint::LoCaLut;     ///< design point
    PlanOverrides overrides;                       ///< planner overrides
    /** Slo sheds streams with unmeetable token deadlines and defers
     * prompt admission that would blow them; Fifo admits in arrival
     * order and never sheds (baseline). */
    SchedulerPolicy policy = SchedulerPolicy::Slo;
    /**
     * Re-batch in-flight decode streams every step and admit new
     * prefills between steps.  false degrades to serial per-request
     * service — each rank runs one stream start-to-finish — the
     * baseline the conversation-trace bench compares against.
     */
    bool continuousBatching = true;
    /** Concurrent decode streams one rank may hold; must be >= 1.  The
     * largest decode batch tier is this rounded up to a power of two
     * (6 streams step at tier 8). */
    unsigned maxStreamsPerRank = 8;
    /** KV-cache quantization (bits per stored K/V value). */
    unsigned kvBitsPerValue = 16;
};

/**
 * Token-level serving engine over one InferenceSession.
 *
 * Usage:
 *     InferenceSession session("upmem", options);
 *     TokenEngine engine(session, engineOptions, &telemetry);
 *     engine.submit({.promptLen = 64, .decodeSteps = 16, ...});
 *     std::vector<StreamResult> results = engine.run();
 *
 * run() drives every submitted stream to a terminal state in virtual
 * time and returns per-stream results; stepTraces() exposes the
 * per-step cost ledger.  Thread-safety: submit()/run() are internally
 * locked (one run() at a time; concurrent engines may share a
 * session).
 */
class TokenEngine
{
  public:
    /**
     * Binds the engine to @p session (which supplies the backend and —
     * when its residency policy is enabled — the MRAM budget KV and LUT
     * state compete for).  @p telemetry, when given, receives per-lane
     * admissions, TTFT / inter-token samples, and KV-residency gauges.
     */
    TokenEngine(InferenceSession& session,
                const TokenEngineOptions& options = {},
                Telemetry* telemetry = nullptr);

    /** The options the engine was opened with. */
    const TokenEngineOptions& options() const { return options_; }

    /** Enqueues one conversation stream; returns its stream id.
     * Arrivals must be monotone in submit order.  An empty prompt, no
     * decode steps, or a NaN arrival or deadline fatals. */
    std::uint64_t submit(const TokenRequest& request);

    /**
     * Serves every submitted stream to a terminal state and returns
     * the results in stream-id order.  Deterministic for a given
     * submission sequence.  May be called repeatedly (each call serves
     * the streams submitted since the last).
     */
    std::vector<StreamResult> run();

    /** Per-step ledger of every run() so far, in execution order. */
    std::vector<StepTrace> stepTraces() const;

  private:
    struct Stream;
    struct RankState;

    /** Smallest power of two >= @p active, uncapped: the batch tier
     * @p active decode streams pad up to (so every stream steps), and
     * the length tier a prompt of @p active tokens pads up to. */
    unsigned tierFor(unsigned active) const;
    const InferenceSession::CompiledWorkload& decodeGraph(unsigned tier);
    const InferenceSession::CompiledWorkload&
    prefillGraph(unsigned promptLen);
    double projectSeconds(const InferenceSession::CompiledWorkload& graph);
    void runLocked(std::vector<Stream>& streams);
    /** Each step runs pinned to @p rank; its streams, KV and clock move
     * to whichever of @p ranks served it. */
    bool admitPrefill(RankState& rank, std::vector<RankState>& ranks,
                      std::vector<Stream>& streams);
    void runDecodeStep(RankState& rank, std::vector<RankState>& ranks,
                       std::vector<Stream>& streams);
    void finishStream(Stream& stream, StreamStatus status, double now);
    void recordKvGauges();

    InferenceSession& session_;
    TokenEngineOptions options_;
    Telemetry* telemetry_;

    mutable std::mutex mutex_;
    std::vector<TokenRequest> queued_;   ///< submitted, not yet run
    std::uint64_t nextStream_ = 0;       ///< stream ids (submit order)
    double lastArrival_ = 0;             ///< monotone-arrival clamp
    std::vector<double> rankFreeAt_;     ///< per-rank virtual clocks
    /** Compiled decode graphs, one per batch tier (stable table-set
     * identity across steps is what zero steady-state rebroadcast
     * rests on). */
    std::map<unsigned, InferenceSession::CompiledWorkload> decodeGraphs_;
    std::map<unsigned, InferenceSession::CompiledWorkload> prefillGraphs_;
    std::vector<StepTrace> traces_;
};

} // namespace localut

#endif // LOCALUT_SERVING_TOKEN_ENGINE_H_
