#include "serving/fault.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace localut {

namespace {

/// SplitMix64 finalizer: a high-quality 64-bit mixer.
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Deterministic hash of (seed, a, b, c) — thread/interleaving independent.
std::uint64_t
faultHash(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
          std::uint64_t c)
{
    std::uint64_t h = mix64(seed + kGolden);
    h = mix64(h + kGolden + a);
    h = mix64(h + kGolden + b);
    h = mix64(h + kGolden + c);
    return h;
}

} // namespace

FaultPlan&
FaultPlan::transientExecute(double rate, unsigned rank)
{
    FaultSpec spec;
    spec.kind = FaultKind::TransientExecute;
    spec.rank = rank;
    spec.rate = rate;
    specs.push_back(spec);
    return *this;
}

FaultPlan&
FaultPlan::rankDeath(unsigned rank, double atSeconds)
{
    FaultSpec spec;
    spec.kind = FaultKind::RankDeath;
    spec.rank = rank;
    spec.atSeconds = atSeconds;
    specs.push_back(spec);
    return *this;
}

FaultInjector::FaultInjector(FaultPlan plan, unsigned numRanks)
    : plan_(std::move(plan)), numRanks_(numRanks)
{
    LOCALUT_REQUIRE(numRanks_ >= 1, "FaultInjector needs at least one rank");
    transientRate_.assign(numRanks_, 0.0);
    health_ = std::make_unique<std::atomic<std::uint8_t>[]>(numRanks_);
    failures_ = std::make_unique<std::atomic<std::uint64_t>[]>(numRanks_);
    for (unsigned r = 0; r < numRanks_; ++r) {
        health_[r].store(static_cast<std::uint8_t>(RankHealth::Healthy),
                         std::memory_order_relaxed);
        failures_[r].store(0, std::memory_order_relaxed);
    }

    for (const FaultSpec& spec : plan_.specs) {
        switch (spec.kind) {
        case FaultKind::TransientExecute:
            LOCALUT_REQUIRE(spec.rate >= 0.0 && spec.rate <= 1.0,
                            "transient fault rate must be in [0, 1]");
            if (spec.rank == FaultSpec::kAnyRank) {
                for (unsigned r = 0; r < numRanks_; ++r) {
                    transientRate_[r] =
                        std::min(1.0, transientRate_[r] + spec.rate);
                }
            } else {
                LOCALUT_REQUIRE(spec.rank < numRanks_,
                                "transient fault rank out of range");
                transientRate_[spec.rank] =
                    std::min(1.0, transientRate_[spec.rank] + spec.rate);
            }
            break;
        case FaultKind::RankDeath:
            LOCALUT_REQUIRE(spec.rank < numRanks_,
                            "rank death target out of range");
            scheduled_.push_back({spec, false});
            break;
        }
    }
    std::stable_sort(scheduled_.begin(), scheduled_.end(),
                     [](const Scheduled& a, const Scheduled& b) {
                         return a.spec.atSeconds < b.spec.atSeconds;
                     });
}

bool
FaultInjector::decide(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                      double rate) const
{
    if (rate <= 0.0) {
        return false;
    }
    if (rate >= 1.0) {
        return true;
    }
    const std::uint64_t h = faultHash(plan_.seed, a, b, c);
    // Compare against rate * 2^64 without overflowing: scale the hash
    // down into [0, 1) instead.
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < rate;
}

bool
FaultInjector::executeFails(std::uint64_t requestId, unsigned attempt,
                            unsigned rank, std::uint64_t salt)
{
    LOCALUT_REQUIRE(rank < numRanks_, "executeFails rank ", rank,
                    " outside the ", numRanks_, "-rank grid");
    const double rate = transientRate_[rank];
    const std::uint64_t unit = (salt << 32) | rank;
    if (decide(requestId, attempt, unit, rate)) {
        transientFaults_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

std::vector<std::function<void(unsigned)>>
FaultInjector::markDeadLocked(unsigned rank)
{
    const auto dead = static_cast<std::uint8_t>(RankHealth::Dead);
    if (health_[rank].exchange(dead, std::memory_order_acq_rel) == dead) {
        return {};
    }
    return listeners_;
}

void
FaultInjector::advanceTo(double seconds)
{
    std::vector<std::pair<std::function<void(unsigned)>, unsigned>> fire;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (Scheduled& event : scheduled_) {
            if (event.fired || event.spec.atSeconds > seconds) {
                continue;
            }
            event.fired = true;
            for (auto& listener : markDeadLocked(event.spec.rank)) {
                fire.emplace_back(listener, event.spec.rank);
            }
        }
    }
    for (auto& [listener, rank] : fire) {
        listener(rank);
    }
}

RankHealth
FaultInjector::health(unsigned rank) const
{
    LOCALUT_REQUIRE(rank < numRanks_, "health rank ", rank,
                    " outside the ", numRanks_, "-rank grid");
    return static_cast<RankHealth>(
        health_[rank].load(std::memory_order_acquire));
}

std::vector<unsigned>
FaultInjector::schedulableRanks() const
{
    std::vector<unsigned> alive;
    for (unsigned r = 0; r < numRanks_; ++r) {
        if (schedulable(r)) {
            alive.push_back(r);
        }
    }
    return alive;
}

unsigned
FaultInjector::aliveCount() const
{
    unsigned alive = 0;
    for (unsigned r = 0; r < numRanks_; ++r) {
        alive += schedulable(r) ? 1u : 0u;
    }
    return alive;
}

double
FaultInjector::capacityRatio() const
{
    return static_cast<double>(aliveCount()) /
           static_cast<double>(numRanks_);
}

void
FaultInjector::killRank(unsigned rank)
{
    LOCALUT_REQUIRE(rank < numRanks_, "killRank target out of range");
    std::vector<std::function<void(unsigned)>> listeners;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        listeners = markDeadLocked(rank);
    }
    for (auto& listener : listeners) {
        listener(rank);
    }
}

void
FaultInjector::recordFailure(unsigned rank, std::uint64_t quarantineThreshold)
{
    LOCALUT_REQUIRE(rank < numRanks_, "recordFailure rank ", rank,
                    " outside the ", numRanks_, "-rank grid");
    const std::uint64_t count =
        failures_[rank].fetch_add(1, std::memory_order_acq_rel) + 1;
    if (quarantineThreshold == 0 || count < quarantineThreshold) {
        return;
    }
    auto expected = static_cast<std::uint8_t>(RankHealth::Healthy);
    const auto quarantined =
        static_cast<std::uint8_t>(RankHealth::Quarantined);
    if (health_[rank].compare_exchange_strong(expected, quarantined,
                                              std::memory_order_acq_rel)) {
        quarantines_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
FaultInjector::onRankLoss(std::function<void(unsigned)> listener)
{
    std::lock_guard<std::mutex> lock(mutex_);
    listeners_.push_back(std::move(listener));
}

void
FaultInjector::noteRetries(std::uint64_t count)
{
    retries_.fetch_add(count, std::memory_order_relaxed);
}

void
FaultInjector::noteBackoff(double seconds)
{
    backoffSeconds_.fetch_add(seconds, std::memory_order_relaxed);
}

void
FaultInjector::noteFailover()
{
    failovers_.fetch_add(1, std::memory_order_relaxed);
}

void
FaultInjector::noteShedFault()
{
    shedFault_.fetch_add(1, std::memory_order_relaxed);
}

FaultStats
FaultInjector::stats() const
{
    FaultStats out;
    out.transientFaults = transientFaults_.load(std::memory_order_relaxed);
    out.retries = retries_.load(std::memory_order_relaxed);
    out.quarantines = quarantines_.load(std::memory_order_relaxed);
    out.failovers = failovers_.load(std::memory_order_relaxed);
    out.shedFault = shedFault_.load(std::memory_order_relaxed);
    out.backoffSeconds = backoffSeconds_.load(std::memory_order_relaxed);
    for (unsigned r = 0; r < numRanks_; ++r) {
        switch (health(r)) {
        case RankHealth::Dead:
            ++out.ranksDead;
            break;
        case RankHealth::Quarantined:
            ++out.ranksQuarantined;
            break;
        case RankHealth::Healthy:
            break;
        }
    }
    return out;
}

} // namespace localut
