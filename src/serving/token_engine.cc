#include "serving/token_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.h"
#include "serving/fault.h"

namespace localut {

namespace {

/**
 * Engines sharing one InferenceSession share its ResidencyManager, so
 * KV stream identities are salted per engine instance to keep two
 * engines' stream 0 from aliasing.
 */
std::uint64_t
nextEngineSalt()
{
    static std::atomic<std::uint64_t> counter{0};
    return (counter.fetch_add(1) + 1) << 32;
}

} // namespace

const char*
streamStatusName(StreamStatus status)
{
    switch (status) {
      case StreamStatus::Completed:    return "completed";
      case StreamStatus::ShedDeadline: return "shed_deadline";
      case StreamStatus::ShedCapacity: return "shed_capacity";
      case StreamStatus::ShedFault:    return "shed_fault";
    }
    LOCALUT_PANIC("invalid stream status");
}

/** One in-flight conversation (request + mutable serving state). */
struct TokenEngine::Stream {
    TokenRequest req;
    StreamResult result;
    unsigned step = 0;          ///< decode steps completed
    /** Anchor of the absolute per-token deadline schedule; set at
     * prefill completion (the TTFT deadline when finite, else the
     * actual first-token time). */
    double deadlineBase = std::numeric_limits<double>::infinity();
    bool done = false;

    /** Absolute deadline of decode token @p t (+inf when unbounded). */
    double tokenDeadline(unsigned t) const
    {
        if (!std::isfinite(req.tokenDeadlineSeconds)) {
            return std::numeric_limits<double>::infinity();
        }
        return deadlineBase + (t + 1) * req.tokenDeadlineSeconds;
    }

    /** TTFT bound (+inf when the request has none). */
    double ttftDeadline() const
    {
        return req.arrivalSeconds + req.ttftDeadlineSeconds;
    }
};

/** One replica rank's serving state inside runLocked(). */
struct TokenEngine::RankState {
    unsigned rank = 0;
    double freeAt = 0;                ///< virtual clock of this rank
    std::vector<std::size_t> pending; ///< placed, awaiting prefill
    std::vector<std::size_t> active;  ///< mid-decode streams

    bool hasWork() const { return !pending.empty() || !active.empty(); }
};

TokenEngine::TokenEngine(InferenceSession& session,
                         const TokenEngineOptions& options,
                         Telemetry* telemetry)
    : session_(session), options_(options), telemetry_(telemetry)
{
    LOCALUT_REQUIRE(options_.maxStreamsPerRank >= 1,
                    "TokenEngine needs at least one stream per rank");
    LOCALUT_REQUIRE(options_.kvBitsPerValue >= 1,
                    "TokenEngine needs a KV quantization width");
    rankFreeAt_.assign(session_.totalRanks(), 0.0);
    nextStream_ = nextEngineSalt();
}

std::uint64_t
TokenEngine::submit(const TokenRequest& request)
{
    LOCALUT_REQUIRE(request.promptLen >= 1, "empty prompt");
    LOCALUT_REQUIRE(request.decodeSteps >= 1, "no tokens to decode");
    // A NaN time fails every comparison: it would slip past the
    // monotone-arrival clamp (for every later submit too) and read as
    // an unbounded or never-met deadline.
    LOCALUT_REQUIRE(!std::isnan(request.arrivalSeconds),
                    "arrival time is NaN");
    LOCALUT_REQUIRE(!std::isnan(request.ttftDeadlineSeconds),
                    "TTFT deadline is NaN");
    LOCALUT_REQUIRE(!std::isnan(request.tokenDeadlineSeconds),
                    "per-token deadline is NaN");
    std::lock_guard<std::mutex> lock(mutex_);
    TokenRequest req = request;
    if (req.arrivalSeconds < lastArrival_) {
        req.arrivalSeconds = lastArrival_; // monotone-arrival clamp
    }
    lastArrival_ = req.arrivalSeconds;
    queued_.push_back(std::move(req));
    return nextStream_ + (queued_.size() - 1);
}

unsigned
TokenEngine::tierFor(unsigned active) const
{
    unsigned tier = 1;
    while (tier < active) {
        tier <<= 1;
    }
    return tier;
}

const InferenceSession::CompiledWorkload&
TokenEngine::decodeGraph(unsigned tier)
{
    auto it = decodeGraphs_.find(tier);
    if (it == decodeGraphs_.end()) {
        // One graph per batch tier, compiled once: its GEMM shapes (and
        // so its LUT table-set identity) depend only on the tier, never
        // on sequence position — the invariant steady-state
        // zero-rebroadcast decode rests on.  hostOps is a placeholder
        // overwritten per step with the batch's true positions.
        it = decodeGraphs_
                 .emplace(tier,
                          session_.compileUnsharded(
                              WorkloadSpec::decodeStep(
                                  options_.model, tier,
                                  options_.model.defaultSeqLen),
                              options_.quant, options_.design,
                              options_.overrides))
                 .first;
    }
    return it->second;
}

const InferenceSession::CompiledWorkload&
TokenEngine::prefillGraph(unsigned promptLen)
{
    // Prompts pad up to power-of-two length tiers so a trace with many
    // distinct lengths shares a handful of table sets instead of
    // thrashing the MRAM budget with one set per length.
    const unsigned tier = tierFor(promptLen);
    auto it = prefillGraphs_.find(tier);
    if (it == prefillGraphs_.end()) {
        it = prefillGraphs_
                 .emplace(tier, session_.compileUnsharded(
                                    WorkloadSpec::prefill(options_.model,
                                                          1, tier),
                                    options_.quant, options_.design,
                                    options_.overrides))
                 .first;
    }
    return it->second;
}

double
TokenEngine::projectSeconds(const InferenceSession::CompiledWorkload& graph)
{
    return session_.projectCost(graph).totalSeconds();
}

void
TokenEngine::finishStream(Stream& stream, StreamStatus status, double now)
{
    stream.result.status = status;
    stream.result.completionSeconds = now;
    stream.done = true;
    if (ResidencyManager* residency = session_.residency()) {
        residency->releaseKv(stream.result.id);
    }
    if (telemetry_ != nullptr && status == StreamStatus::Completed &&
        stream.result.firstTokenSeconds >= 0) {
        RequestSample sample;
        sample.id = stream.result.id;
        sample.lane = DeadlineClass::Decode;
        sample.arrivalSeconds = stream.req.arrivalSeconds;
        sample.startSeconds = stream.result.firstTokenSeconds;
        sample.completionSeconds = now;
        sample.serviceSeconds = now - stream.result.firstTokenSeconds;
        sample.deadlineSeconds =
            stream.result.tokenDeadlines.empty()
                ? std::numeric_limits<double>::infinity()
                : stream.result.tokenDeadlines.back();
        telemetry_->recordCompletion(sample);
    }
}

void
TokenEngine::recordKvGauges()
{
    if (telemetry_ == nullptr || session_.residency() == nullptr) {
        return;
    }
    const ResidencyStats stats = session_.residencyStats();
    KvResidencyGauges gauges;
    gauges.residentBytes = stats.kvResidentBytes;
    gauges.streams = stats.kvStreams;
    gauges.spills = stats.kvSpills;
    gauges.refills = stats.kvRefills;
    gauges.sheds = stats.kvSheds;
    gauges.lutEvictions = stats.evictions;
    telemetry_->recordKvResidency(gauges);
}

bool
TokenEngine::admitPrefill(RankState& rank, std::vector<RankState>& ranks,
                          std::vector<Stream>& streams)
{
    if (rank.pending.empty()) {
        return false;
    }
    const double now = rank.freeAt;
    if (!rank.active.empty()) {
        if (!options_.continuousBatching) {
            return false; // serial baseline: one stream start-to-finish
        }
        if (rank.active.size() >= options_.maxStreamsPerRank) {
            return false; // decode capacity full; step first
        }
        if (options_.policy == SchedulerPolicy::Slo) {
            // Interference check: admitting this prompt stalls every
            // active stream for the prefill plus the (grown) next decode
            // step — defer when that would blow a token deadline (the
            // decode lane outranks prefill, deadlineClassPriority()).
            Stream& head = streams[rank.pending.front()];
            const double stall =
                projectSeconds(prefillGraph(head.req.promptLen)) +
                projectSeconds(decodeGraph(tierFor(
                    static_cast<unsigned>(rank.active.size()) + 1)));
            for (const std::size_t s : rank.active) {
                if (streams[s].tokenDeadline(streams[s].step) <
                    now + stall) {
                    return false;
                }
            }
        }
    }

    Stream& stream = streams[rank.pending.front()];
    rank.pending.erase(rank.pending.begin());
    if (telemetry_ != nullptr) {
        telemetry_->recordAdmission(DeadlineClass::Prefill,
                                    AdmissionOutcome::Admitted);
    }
    InferenceReport report;
    try {
        report = session_.run(prefillGraph(stream.req.promptLen),
                              SubmitOptions{static_cast<int>(rank.rank)});
    } catch (const FaultShedError&) {
        // The prefill could not land on any live rank (the injector
        // already counted the shed): fault-shed the stream.
        if (telemetry_ != nullptr) {
            telemetry_->recordAdmission(DeadlineClass::Prefill,
                                        AdmissionOutcome::ShedFault);
        }
        finishStream(stream, StreamStatus::ShedFault, now);
        return true;
    }
    // The stream lives where its prefill ran (a fault failover in the
    // session may have moved it off the pinned rank).
    RankState& served = ranks[report.rank];
    stream.result.rank = served.rank;
    double serviceSeconds = report.timing.total;

    KvCharge kv;
    if (ResidencyManager* residency = session_.residency()) {
        kv = residency->acquireKv(
            stream.result.id, served.rank, options_.model.layers,
            options_.model.kvBytesPerTokenPerLayer(options_.kvBitsPerValue),
            stream.req.promptLen);
        serviceSeconds += kv.seconds();
    }

    const double start = std::max(now, served.freeAt);
    const double end = start + serviceSeconds;
    served.freeAt = end;
    stream.result.firstTokenSeconds = end;
    stream.result.ttftMet = end <= stream.ttftDeadline();
    stream.deadlineBase = std::isfinite(stream.req.ttftDeadlineSeconds)
                              ? stream.ttftDeadline()
                              : end;
    if (telemetry_ != nullptr) {
        telemetry_->recordTtft(DeadlineClass::Prefill,
                               end - stream.req.arrivalSeconds);
    }

    StepTrace trace;
    trace.decode = false;
    trace.rank = served.rank;
    trace.streams = 1;
    trace.startSeconds = start;
    trace.endSeconds = end;
    trace.lutBroadcastSeconds = report.lutBroadcastSeconds;
    trace.kvSeconds = kv.seconds();
    trace.kvResidentBytes = session_.residencyStats().kvResidentBytes;
    traces_.push_back(trace);
    recordKvGauges();

    if (kv.shed) {
        // The prompt alone can never fit the rank's MRAM: capacity shed.
        if (telemetry_ != nullptr) {
            telemetry_->recordAdmission(
                DeadlineClass::Decode,
                AdmissionOutcome::RejectedSaturated);
        }
        finishStream(stream, StreamStatus::ShedCapacity, end);
        return true;
    }
    served.active.push_back(&stream - streams.data());
    return true;
}

void
TokenEngine::runDecodeStep(RankState& rank, std::vector<RankState>& ranks,
                           std::vector<Stream>& streams)
{
    const double now = rank.freeAt;
    const auto batch = static_cast<unsigned>(rank.active.size());
    const unsigned tier = tierFor(batch);
    const InferenceSession::CompiledWorkload& graph = decodeGraph(tier);

    // The step's GEMMs run at the padded tier batch (stable table-set
    // identity) and keep the GEMM share the graph was priced with at
    // compile; the host attention work is the exact per-position sum
    // over the streams actually served.
    InferenceSession::CompiledWorkload step = graph;
    step.hostOps = 0;
    for (const std::size_t s : rank.active) {
        const Stream& stream = streams[s];
        step.hostOps += workloadHostOps(WorkloadSpec::decodeStep(
            options_.model, 1, stream.req.promptLen + stream.step));
    }
    InferenceReport report;
    try {
        report = session_.run(step,
                              SubmitOptions{static_cast<int>(rank.rank)});
    } catch (const FaultShedError&) {
        // The batched step could not land on any live rank: fault-shed
        // every stream it was serving.
        for (const std::size_t s : rank.active) {
            if (telemetry_ != nullptr) {
                telemetry_->recordAdmission(DeadlineClass::Decode,
                                            AdmissionOutcome::ShedFault);
            }
            finishStream(streams[s], StreamStatus::ShedFault, now);
        }
        rank.active.clear();
        return;
    }
    // The batch moves with the step to the rank that served it, and the
    // new rank pays the full context.  A live old rank (transient
    // failover, quarantine) discards its KV (free), so the new rank
    // admits it afresh; a dead one already displaced it
    // (ResidencyManager::invalidateRank), so the new rank refills it.
    RankState& served = ranks[report.rank];
    ResidencyManager* residency = session_.residency();
    if (&served != &rank) {
        const FaultInjector* injector = session_.options().faultInjector;
        const bool oldRankDead =
            injector != nullptr &&
            injector->health(rank.rank) == RankHealth::Dead;
        for (const std::size_t s : rank.active) {
            streams[s].result.rank = served.rank;
            if (residency != nullptr && !oldRankDead) {
                residency->releaseKv(streams[s].result.id);
            }
        }
    }
    double serviceSeconds = report.timing.total;

    double kvSeconds = 0;
    std::vector<std::size_t> capacityShed;
    if (residency != nullptr) {
        const std::uint64_t perToken =
            options_.model.kvBytesPerTokenPerLayer(options_.kvBitsPerValue);
        for (const std::size_t s : rank.active) {
            Stream& stream = streams[s];
            const KvCharge kv = residency->acquireKv(
                stream.result.id, served.rank, options_.model.layers,
                perToken, stream.req.promptLen + stream.step + 1);
            if (kv.shed) {
                capacityShed.push_back(s);
                continue;
            }
            kvSeconds += kv.seconds();
        }
        serviceSeconds += kvSeconds;
    }

    const double start = std::max(now, served.freeAt);
    const double end = start + serviceSeconds;
    served.freeAt = end;

    for (const std::size_t s : capacityShed) {
        if (telemetry_ != nullptr) {
            telemetry_->recordAdmission(
                DeadlineClass::Decode,
                AdmissionOutcome::RejectedSaturated);
        }
        finishStream(streams[s], StreamStatus::ShedCapacity, end);
    }

    std::vector<std::size_t> survivors;
    survivors.reserve(rank.active.size());
    for (const std::size_t s : rank.active) {
        Stream& stream = streams[s];
        if (stream.done) {
            continue; // capacity-shed above
        }
        const double previous = stream.result.tokenSeconds.empty()
                                    ? stream.result.firstTokenSeconds
                                    : stream.result.tokenSeconds.back();
        const double deadline = stream.tokenDeadline(stream.step);
        const bool met = end <= deadline;
        stream.result.tokenSeconds.push_back(end);
        stream.result.tokenDeadlines.push_back(deadline);
        if (met) {
            ++stream.result.tokensMet;
        } else {
            ++stream.result.tokensMissed;
        }
        if (telemetry_ != nullptr) {
            telemetry_->recordToken(DeadlineClass::Decode, end - previous,
                                    met);
        }
        ++stream.step;
        if (stream.step >= stream.req.decodeSteps) {
            finishStream(stream, StreamStatus::Completed, end);
        } else {
            survivors.push_back(s);
        }
    }
    rank.active.clear();
    served.active.insert(served.active.end(), survivors.begin(),
                         survivors.end());

    StepTrace trace;
    trace.decode = true;
    trace.rank = served.rank;
    trace.streams = batch;
    trace.tier = tier;
    trace.startSeconds = start;
    trace.endSeconds = end;
    trace.lutBroadcastSeconds = report.lutBroadcastSeconds;
    trace.kvSeconds = kvSeconds;
    trace.kvResidentBytes = session_.residencyStats().kvResidentBytes;
    traces_.push_back(trace);
    recordKvGauges();
}

void
TokenEngine::runLocked(std::vector<Stream>& streams)
{
    FaultInjector* injector = session_.options().faultInjector;
    std::vector<RankState> ranks(rankFreeAt_.size());
    for (std::size_t r = 0; r < ranks.size(); ++r) {
        ranks[r].rank = static_cast<unsigned>(r);
        ranks[r].freeAt = rankFreeAt_[r];
    }

    // Quarantined and dead ranks take no *new* placements.  A stream
    // already on a rank that becomes quarantined or dies is moved by its
    // next step: the session's settle() fails the pinned step over to a
    // schedulable rank, and the step's streams, KV and clock follow the
    // rank InferenceReport::rank names.
    const auto placeable = [&](const RankState& rank) {
        return injector == nullptr || injector->schedulable(rank.rank);
    };

    std::size_t nextPlacement = 0; // streams are in arrival order
    const auto anyWork = [&] {
        return std::any_of(ranks.begin(), ranks.end(),
                           [](const RankState& r) { return r.hasWork(); });
    };

    while (nextPlacement < streams.size() || anyWork()) {
        const double tArrival =
            nextPlacement < streams.size()
                ? streams[nextPlacement].req.arrivalSeconds
                : std::numeric_limits<double>::infinity();
        RankState* next = nullptr;
        for (RankState& rank : ranks) {
            if (rank.hasWork() &&
                (next == nullptr || rank.freeAt < next->freeAt)) {
                next = &rank;
            }
        }
        if (next == nullptr || tArrival <= next->freeAt) {
            // Place the arrival first (ties included, so a prompt
            // arriving exactly at a step boundary can join that batch):
            // fewest streams, then earliest-free, then lowest rank.
            Stream& stream = streams[nextPlacement];
            if (injector != nullptr) {
                injector->advanceTo(stream.req.arrivalSeconds);
            }
            RankState* best = nullptr;
            for (RankState& rank : ranks) {
                if (!placeable(rank)) {
                    continue;
                }
                const auto load = rank.pending.size() + rank.active.size();
                if (best == nullptr ||
                    std::make_tuple(load, rank.freeAt, rank.rank) <
                        std::make_tuple(best->pending.size() +
                                            best->active.size(),
                                        best->freeAt, best->rank)) {
                    best = &rank;
                }
            }
            if (best == nullptr) {
                // Faults left no rank accepting placements: shed on
                // arrival rather than queueing onto a dead replica.
                injector->noteShedFault();
                if (telemetry_ != nullptr) {
                    telemetry_->recordAdmission(DeadlineClass::Prefill,
                                                AdmissionOutcome::ShedFault);
                }
                finishStream(stream, StreamStatus::ShedFault,
                             stream.req.arrivalSeconds);
                ++nextPlacement;
                continue;
            }
            stream.result.rank = best->rank;
            best->freeAt = std::max(best->freeAt,
                                    stream.req.arrivalSeconds);
            best->pending.push_back(nextPlacement);
            ++nextPlacement;
            continue;
        }

        RankState& rank = *next;
        const double now = rank.freeAt;
        if (injector != nullptr) {
            injector->advanceTo(now);
        }
        if (options_.policy == SchedulerPolicy::Slo) {
            // Shed pass: anything already past its next bound cannot be
            // served in time no matter what this rank does now.
            for (auto it = rank.pending.begin();
                 it != rank.pending.end();) {
                Stream& stream = streams[*it];
                if (stream.ttftDeadline() < now) {
                    if (telemetry_ != nullptr) {
                        telemetry_->recordAdmission(
                            DeadlineClass::Prefill,
                            AdmissionOutcome::ShedDeadline);
                    }
                    stream.result.ttftMet = false;
                    finishStream(stream, StreamStatus::ShedDeadline, now);
                    it = rank.pending.erase(it);
                } else {
                    ++it;
                }
            }
            for (auto it = rank.active.begin(); it != rank.active.end();) {
                Stream& stream = streams[*it];
                if (stream.tokenDeadline(stream.step) < now) {
                    if (telemetry_ != nullptr) {
                        telemetry_->recordAdmission(
                            DeadlineClass::Decode,
                            AdmissionOutcome::ShedDeadline);
                    }
                    finishStream(stream, StreamStatus::ShedDeadline, now);
                    it = rank.active.erase(it);
                } else {
                    ++it;
                }
            }
            if (!rank.hasWork()) {
                continue;
            }
        }
        if (!admitPrefill(rank, ranks, streams) && !rank.active.empty()) {
            runDecodeStep(rank, ranks, streams);
        }
    }

    for (const RankState& rank : ranks) {
        rankFreeAt_[rank.rank] = rank.freeAt;
    }
    if (telemetry_ != nullptr && injector != nullptr) {
        telemetry_->recordFaults(injector->stats(),
                                 injector->capacityRatio());
    }
}

std::vector<StreamResult>
TokenEngine::run()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Stream> streams;
    streams.reserve(queued_.size());
    for (TokenRequest& req : queued_) {
        Stream stream;
        stream.req = std::move(req);
        stream.result.id = nextStream_++;
        stream.result.arrivalSeconds = stream.req.arrivalSeconds;
        streams.push_back(std::move(stream));
    }
    queued_.clear();

    runLocked(streams);

    std::vector<StreamResult> results;
    results.reserve(streams.size());
    for (Stream& stream : streams) {
        LOCALUT_ASSERT(stream.done, "stream left unserved");
        results.push_back(std::move(stream.result));
    }
    return results;
}

std::vector<StepTrace>
TokenEngine::stepTraces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return traces_;
}

} // namespace localut
