/**
 * @file fault.h
 * @brief Deterministic, seed-driven fault injection and rank health
 *        tracking for the serving stack.
 *
 * A FaultInjector is shared by an InferenceSession, the
 * RequestScheduler, and the TokenEngine.  Fault *decisions* are pure
 * functions of stable identifiers (seed, request id, attempt index, rank),
 * and the session makes every placement, retry and failover decision
 * when a request is submitted, so the same seed, fault plan and
 * submission sequence reproduce the same outcomes across runs and across
 * worker-thread counts.  *Scheduled* faults (rank deaths) fire when a
 * consumer advances to a virtual time at or past their instant
 * (advanceTo()); the consumers' own virtual clocks (scheduler arrivals,
 * token-engine steps) drive it.  Nothing here sleeps or touches wall clock: retries and
 * backoff are charged as modeled virtual-time seconds.
 */
#ifndef LOCALUT_SERVING_FAULT_H_
#define LOCALUT_SERVING_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace localut {

/** Kinds of fault a FaultPlan can inject. */
enum class FaultKind {
    TransientExecute,  ///< a rank's execute attempt fails (retryable)
    RankDeath,         ///< a rank dies permanently at a virtual time
};

/** Stable lower-case name of @p kind (used as a Prometheus label). */
const char* faultKindName(FaultKind kind);

/** One fault specification inside a FaultPlan. */
struct FaultSpec {
    /** Matches any rank (TransientExecute) when used as FaultSpec::rank. */
    static constexpr unsigned kAnyRank = ~0u;

    /** What kind of fault this spec injects. */
    FaultKind kind = FaultKind::TransientExecute;
    /** Target rank (TransientExecute / RankDeath); kAnyRank = all. */
    unsigned rank = kAnyRank;
    /** Per-attempt probability (TransientExecute only). */
    double rate = 0.0;
    /** Virtual fire time in seconds (RankDeath only). */
    double atSeconds = 0.0;
};

/**
 * A seeded list of fault specs.  Build one with the chainable helpers and
 * hand it to a FaultInjector:
 *
 * @code
 *   FaultPlan plan;
 *   plan.seed = 42;
 *   plan.transientExecute(0.2)      // 20% of attempts fail, any rank
 *       .rankDeath(3, 0.5);         // rank 3 dies at t = 0.5 s
 * @endcode
 */
struct FaultPlan {
    /** Seed mixed into every deterministic fault decision. */
    std::uint64_t seed = 0;
    /** The fault specs; order matters only for same-time scheduled specs. */
    std::vector<FaultSpec> specs;

    /** Add a transient execute-failure spec at @p rate on @p rank. */
    FaultPlan& transientExecute(double rate,
                                unsigned rank = FaultSpec::kAnyRank);
    /** Add a permanent death of @p rank at virtual time @p atSeconds. */
    FaultPlan& rankDeath(unsigned rank, double atSeconds);
};

/**
 * How a session reacts to injected faults.  All durations are virtual-time
 * seconds charged into the request's TimingReport.
 */
struct FaultPolicy {
    /** Execute attempts per rank before the rank is given up on. */
    unsigned maxAttempts = 5;
    /** Backoff before the first retry (doubles per attempt). */
    double backoffBaseSeconds = 100e-6;
    /** Cap on a single backoff interval. */
    double backoffCapSeconds = 10e-3;
    /**
     * Transient failures on a rank before it is quarantined (removed
     * from placement; resident state kept).  0 disables quarantine.
     */
    std::uint64_t quarantineThreshold = 16;
    /**
     * When true, work re-routes around dead/quarantined ranks (pinned
     * requests re-home, sharded GEMMs re-shard over the survivor set).
     * When false the stack models a fault-oblivious baseline: any fault
     * that exhausts retries, or a dead home rank, sheds the request.
     */
    bool failover = true;
};

/** Health of one rank. */
enum class RankHealth : std::uint8_t {
    Healthy = 0,     ///< schedulable
    Quarantined = 1, ///< too many transient failures; no new placements
    Dead = 2,        ///< permanently lost; resident state invalidated
};

/** Stable lower-case name of @p health. */
const char* rankHealthName(RankHealth health);

/** Cumulative fault/recovery counters (all monotone except gauges). */
struct FaultStats {
    std::uint64_t transientFaults = 0;    ///< injected execute failures
    std::uint64_t retries = 0;            ///< retried attempts (charged)
    std::uint64_t quarantines = 0;        ///< ranks ever quarantined
    std::uint64_t failovers = 0;          ///< re-homes + re-shards
    std::uint64_t shedFault = 0;          ///< requests shed by faults
    std::uint64_t ranksDead = 0;          ///< gauge: currently dead
    std::uint64_t ranksQuarantined = 0;   ///< gauge: currently quarantined
    double backoffSeconds = 0.0;          ///< virtual backoff charged
};

/** Thrown when a request is shed because of injected faults. */
class FaultShedError : public std::runtime_error {
public:
    /** Build a shed error for @p rank with human-readable @p what. */
    FaultShedError(unsigned rank, const std::string& what)
        : std::runtime_error(what), rank_(rank)
    {
    }

    /** Rank the request was bound to when it was shed. */
    unsigned rank() const { return rank_; }

private:
    unsigned rank_;
};

/**
 * Deterministic fault source + rank health registry.
 *
 * Thread-safe.  The decision method (executeFails) is a pure hash over
 * stable ids plus a relaxed stat counter, so it never serializes hot
 * paths.  advanceTo() fires due scheduled faults exactly
 * once; rank-loss listeners run outside the injector's lock so they may
 * take their own locks (e.g. ResidencyManager::invalidateRank).
 */
class FaultInjector {
public:
    /** Sentinel returned by firstSchedulable() when every rank is down. */
    static constexpr unsigned kNoRank = ~0u;

    /** Create an injector for @p plan over @p numRanks ranks. */
    FaultInjector(FaultPlan plan, unsigned numRanks);

    /** Ranks the injector tracks health for. */
    unsigned numRanks() const { return numRanks_; }

    /** The plan this injector replays. */
    const FaultPlan& plan() const { return plan_; }

    /**
     * Deterministically decide whether attempt @p attempt of request
     * @p requestId on rank @p rank (below numRanks()) fails.  @p salt
     * distinguishes concurrent units of the same request (e.g. shard
     * index + 1).  Counts an injected fault when it returns true.
     */
    bool executeFails(std::uint64_t requestId, unsigned attempt,
                      unsigned rank, std::uint64_t salt = 0);

    /**
     * Fire every scheduled fault not yet fired whose time is at or
     * before @p seconds, exactly once; a stale (smaller) time fires
     * nothing new.  Rank deaths invoke the registered rank-loss
     * listeners after the injector's lock is released.
     */
    void advanceTo(double seconds);

    /** Health of @p rank (below numRanks()). */
    RankHealth health(unsigned rank) const;

    /** True when @p rank may receive new work (Healthy). */
    bool schedulable(unsigned rank) const
    {
        return health(rank) == RankHealth::Healthy;
    }

    /** All currently schedulable ranks, ascending. */
    std::vector<unsigned> schedulableRanks() const;

    /** Number of currently schedulable ranks. */
    unsigned aliveCount() const;

    /** Fraction of ranks still schedulable in [0, 1] (capacity gauge). */
    double capacityRatio() const;

    /**
     * First schedulable rank at or after @p from (wrapping), or kNoRank.
     * Deterministic survivor pick for failover.
     */
    unsigned firstSchedulable(unsigned from = 0) const;

    /**
     * Kill @p rank immediately (also used by advanceTo for scheduled
     * deaths).  Fires rank-loss listeners outside the lock; a second
     * kill of the same rank is a no-op.
     */
    void killRank(unsigned rank);

    /**
     * Record a transient failure on @p rank (below numRanks()).  Once
     * the per-rank count
     * reaches @p quarantineThreshold (> 0) a Healthy rank moves to
     * Quarantined.
     */
    void recordFailure(unsigned rank, std::uint64_t quarantineThreshold);

    /**
     * Register @p listener to run whenever a rank dies.  Listeners run
     * outside the injector's lock.  Register before serving starts;
     * registration is not synchronized against concurrent kills.
     */
    void onRankLoss(std::function<void(unsigned)> listener);

    /** Note @p count retried attempts (stats only). */
    void noteRetries(std::uint64_t count);

    /** Note @p seconds of virtual backoff charged (stats only). */
    void noteBackoff(double seconds);

    /** Note one failover (re-home or re-shard; stats only). */
    void noteFailover();

    /** Note one request shed for fault reasons (stats only). */
    void noteShedFault();

    /** Snapshot of the cumulative counters and health gauges. */
    FaultStats stats() const;

private:
    struct Scheduled {
        FaultSpec spec;
        bool fired = false;
    };

    bool decide(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                double rate) const;
    std::vector<std::function<void(unsigned)>>
    markDeadLocked(unsigned rank);

    FaultPlan plan_;
    unsigned numRanks_;
    std::vector<double> transientRate_; ///< per rank, immutable

    mutable std::mutex mutex_;
    std::vector<Scheduled> scheduled_;
    std::vector<std::function<void(unsigned)>> listeners_;

    std::unique_ptr<std::atomic<std::uint8_t>[]> health_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> failures_;

    mutable std::atomic<std::uint64_t> transientFaults_{0};
    std::atomic<std::uint64_t> retries_{0};
    std::atomic<std::uint64_t> quarantines_{0};
    std::atomic<std::uint64_t> failovers_{0};
    std::atomic<std::uint64_t> shedFault_{0};
    std::atomic<double> backoffSeconds_{0.0};
};

} // namespace localut

#endif // LOCALUT_SERVING_FAULT_H_
