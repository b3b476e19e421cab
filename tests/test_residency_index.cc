/**
 * @file
 * The residency manager's victim choice against a plain linear scan, and
 * its invariants under concurrent use.
 *
 * ResidencyVictimOrder replays long seeded traces of table-set and KV
 * traffic through the ResidencyManager and, in lockstep, through
 * LinearScanResidency below: a test-local copy of the manager in which
 * every victim search walks every table set and every KV stream and
 * keeps the minimum (score, lastUse, admitOrder) key.  After every
 * operation both must agree bit for bit on each charge, on the counters,
 * on the per-rank ledgers and on which keys are resident.
 *
 * ResidencyStress drives one manager from four threads while a fifth
 * invalidates ranks, then checks the budget and the counters against
 * what the threads left resident.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "lut/capacity.h"
#include "nn/inference.h"
#include "serving/residency.h"
#include "serving/sharding.h"

namespace localut {
namespace {

// ------------------------------------------------------ linear-scan copy

constexpr std::uint64_t kNoStream = std::numeric_limits<std::uint64_t>::max();

/**
 * The residency manager with a linear-scan victim search: the oracle the
 * per-rank index must match.  Single-threaded; costs and counters follow
 * the manager's formulas operation for operation.
 */
class LinearScanResidency
{
  public:
    LinearScanResidency(const Backend& backend, unsigned numRanks,
                        std::uint64_t budget)
        : profile_(backend.memoryProfile()),
          budget_(budget != 0 ? budget : profile_.lutBytesPerUnit),
          lut_(numRanks, 0), kv_(numRanks, 0)
    {}

    ResidencyCharge
    acquire(const ResolvedTableSet& resolved, unsigned homeRank)
    {
        if (resolved.empty()) {
            return {};
        }
        std::vector<std::pair<unsigned, std::uint64_t>> rankBytes =
            resolved.shardBytes;
        if (!resolved.sharded()) {
            rankBytes = {{homeRank, resolved.bytes}};
        }
        SpillCost spill;
        return acquireSet(resolved.keyOn(homeRank), std::move(rankBytes),
                          spill);
    }

    KvCharge
    acquireKv(std::uint64_t stream, unsigned rank, unsigned layers,
              std::uint64_t bytesPerTokenPerLayer,
              std::uint64_t contextTokens)
    {
        ++clock_;
        auto [it, inserted] = streams_.try_emplace(stream);
        KvEntry& entry = it->second;
        if (inserted) {
            entry.rank = rank;
            entry.layers = layers;
            entry.bytesPerTokenPerLayer = bytesPerTokenPerLayer;
        } else if (entry.displaced) {
            entry.rank = rank;
            entry.displaced = false;
        }
        entry.lastUse = clock_;

        const std::uint64_t targetRaw = satMulU64(
            satMulU64(layers, bytesPerTokenPerLayer), contextTokens);
        const std::uint64_t targetFootprint = footprint(targetRaw);
        if (lutBytesSaturated(targetRaw) || targetFootprint > budget_) {
            if (entry.resident) {
                const std::uint64_t raw = entry.rawBytes();
                kv_[rank] -= footprint(raw);
                --stats_.kvStreams;
                stats_.kvResidentBytes -= raw;
            }
            streams_.erase(it);
            ++stats_.kvSheds;
            KvCharge charge;
            charge.shed = true;
            return charge;
        }

        const std::uint64_t oldRaw = entry.rawBytes();
        const bool wasResident = entry.resident;
        const std::uint64_t moveRaw =
            wasResident ? targetRaw - oldRaw : targetRaw;
        if (wasResident && moveRaw == 0) {
            return {};
        }
        if (wasResident) {
            kv_[rank] -= footprint(oldRaw);
        }
        SpillCost spill;
        const bool admitted =
            makeRoomOnRank(rank, targetFootprint, nullptr, stream, spill);
        EXPECT_TRUE(admitted);
        kv_[rank] += targetFootprint;
        if (!wasResident) {
            entry.resident = true;
            if (entry.admitOrder == 0) {
                entry.admitOrder = ++admissions_;
            }
            ++stats_.kvStreams;
            if (oldRaw > 0) {
                ++stats_.kvRefills;
            }
        }
        stats_.kvResidentBytes += targetRaw - (wasResident ? oldRaw : 0);
        entry.tokens = contextTokens;

        KvCharge charge;
        charge.refill = !wasResident && oldRaw > 0;
        charge.appendBytes = static_cast<double>(moveRaw);
        charge.appendSeconds = transferSeconds(charge.appendBytes);
        charge.spillBytes = spill.bytes;
        charge.spillSeconds = spill.seconds;
        charge.joules =
            profile_.pjPerBroadcastByte * charge.appendBytes * 1e-12 +
            spill.joules;
        stats_.kvMovedBytes += charge.appendBytes;
        stats_.kvMovedSeconds += charge.appendSeconds;
        return charge;
    }

    void
    releaseKv(std::uint64_t stream)
    {
        const auto it = streams_.find(stream);
        if (it == streams_.end()) {
            return;
        }
        if (it->second.resident) {
            const std::uint64_t raw = it->second.rawBytes();
            kv_[it->second.rank] -= footprint(raw);
            --stats_.kvStreams;
            stats_.kvResidentBytes -= raw;
        }
        streams_.erase(it);
    }

    ResidencyManager::RankLoss
    invalidateRank(unsigned rank)
    {
        ResidencyManager::RankLoss loss;
        for (auto& [key, set] : sets_) {
            if (!set.resident || !onRank(set, rank)) {
                continue;
            }
            for (const auto& [r, bytes] : set.rankBytes) {
                loss.lutBytesDropped += bytes;
            }
            evict(set);
            ++loss.lutSetsDropped;
        }
        for (auto& [stream, entry] : streams_) {
            if (entry.rank != rank) {
                continue;
            }
            if (entry.resident) {
                const std::uint64_t raw = entry.rawBytes();
                kv_[rank] -= footprint(raw);
                entry.resident = false;
                --stats_.kvStreams;
                stats_.kvResidentBytes -= raw;
            }
            if (!entry.displaced) {
                entry.displaced = true;
                ++stats_.kvDisplaced;
                loss.displacedStreams.push_back(stream);
            }
        }
        std::sort(loss.displacedStreams.begin(),
                  loss.displacedStreams.end());
        ++stats_.rankInvalidations;
        return loss;
    }

    void
    clear()
    {
        for (auto& [key, set] : sets_) {
            set.resident = false;
        }
        for (auto& [stream, entry] : streams_) {
            entry.resident = false;
        }
        std::fill(lut_.begin(), lut_.end(), 0);
        std::fill(kv_.begin(), kv_.end(), 0);
        stats_.tableSets = 0;
        stats_.kvStreams = 0;
        stats_.kvResidentBytes = 0;
    }

    const ResidencyStats& stats() const { return stats_; }
    std::uint64_t lutBytes(unsigned rank) const { return lut_[rank]; }
    std::uint64_t kvBytes(unsigned rank) const { return kv_[rank]; }

    bool
    isResident(const TableSetKey& key) const
    {
        const auto it = sets_.find(key);
        return it != sets_.end() && it->second.resident;
    }

    bool
    kvResident(const KvCacheKey& key) const
    {
        const auto it = streams_.find(key.stream);
        return it != streams_.end() && it->second.resident &&
               key.layer < it->second.layers;
    }

  private:
    struct TableSet {
        std::vector<std::pair<unsigned, std::uint64_t>> rankBytes;
        double broadcastBytes = 0;
        double broadcastSeconds = 0;
        double broadcastJoules = 0;
        std::uint64_t uses = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t admitOrder = 0;
        bool resident = false;
        bool everResident = false;
    };

    struct KvEntry {
        unsigned rank = 0;
        unsigned layers = 1;
        std::uint64_t bytesPerTokenPerLayer = 0;
        std::uint64_t tokens = 0;
        bool resident = false;
        bool displaced = false;
        std::uint64_t lastUse = 0;
        std::uint64_t admitOrder = 0;

        std::uint64_t rawBytes() const
        {
            return layers * bytesPerTokenPerLayer * tokens;
        }
    };

    struct SpillCost {
        double bytes = 0;
        double seconds = 0;
        double joules = 0;
    };

    static bool
    onRank(const TableSet& set, unsigned rank)
    {
        return std::any_of(set.rankBytes.begin(), set.rankBytes.end(),
                           [rank](const auto& rb) {
                               return rb.first == rank;
                           });
    }

    ResidencyCharge
    acquireSet(TableSetKey key,
               std::vector<std::pair<unsigned, std::uint64_t>> rankBytes,
               SpillCost& spill)
    {
        ++clock_;
        auto [it, inserted] = sets_.try_emplace(std::move(key));
        TableSet& set = it->second;
        if (inserted) {
            set.rankBytes = std::move(rankBytes);
            std::uint64_t bytes = 0;
            for (const auto& [rank, share] : set.rankBytes) {
                bytes = satAddU64(bytes, share);
            }
            set.broadcastBytes = static_cast<double>(bytes);
            set.broadcastSeconds = broadcastSeconds(bytes);
            set.broadcastJoules =
                profile_.pjPerBroadcastByte * set.broadcastBytes * 1e-12;
        }
        set.lastUse = clock_;
        ++set.uses;
        if (set.resident) {
            ++stats_.hits;
            return {};
        }
        ++stats_.misses;
        if (set.everResident) {
            ++stats_.rebroadcasts;
        }
        if (makeRoom(set, spill)) {
            set.resident = true;
            set.everResident = true;
            set.admitOrder = ++admissions_;
            for (const auto& [rank, bytes] : set.rankBytes) {
                lut_[rank] += bytes;
            }
            ++stats_.tableSets;
        }
        stats_.broadcastBytes += set.broadcastBytes;
        stats_.broadcastSeconds += set.broadcastSeconds;
        ResidencyCharge charge;
        charge.hit = false;
        charge.bytes = set.broadcastBytes;
        charge.seconds = set.broadcastSeconds;
        charge.joules = set.broadcastJoules;
        charge.kvSpillBytes = spill.bytes;
        charge.kvSpillSeconds = spill.seconds;
        charge.kvSpillJoules = spill.joules;
        return charge;
    }

    bool
    makeRoom(const TableSet& incoming, SpillCost& spill)
    {
        for (const auto& [rank, bytes] : incoming.rankBytes) {
            if (bytes > budget_) {
                return false;
            }
        }
        for (const auto& [rank, bytes] : incoming.rankBytes) {
            if (!makeRoomOnRank(rank, bytes, &incoming, kNoStream, spill)) {
                return false;
            }
        }
        return true;
    }

    /** The linear scan: every set and every stream, every round. */
    bool
    makeRoomOnRank(unsigned rank, std::uint64_t needed,
                   const TableSet* keepSet, std::uint64_t keepStream,
                   SpillCost& spill)
    {
        while (lut_[rank] + kv_[rank] + needed > budget_) {
            TableSet* lutVictim = nullptr;
            for (auto& [key, candidate] : sets_) {
                if (!candidate.resident || &candidate == keepSet ||
                    !onRank(candidate, rank)) {
                    continue;
                }
                if (lutVictim == nullptr ||
                    std::make_tuple(score(candidate), candidate.lastUse,
                                    candidate.admitOrder) <
                        std::make_tuple(score(*lutVictim),
                                        lutVictim->lastUse,
                                        lutVictim->admitOrder)) {
                    lutVictim = &candidate;
                }
            }
            KvEntry* kvVictim = nullptr;
            for (auto& [stream, candidate] : streams_) {
                if (!candidate.resident || candidate.rank != rank ||
                    stream == keepStream) {
                    continue;
                }
                if (kvVictim == nullptr ||
                    std::make_tuple(scoreKv(candidate), candidate.lastUse,
                                    candidate.admitOrder) <
                        std::make_tuple(scoreKv(*kvVictim),
                                        kvVictim->lastUse,
                                        kvVictim->admitOrder)) {
                    kvVictim = &candidate;
                }
            }
            if (lutVictim != nullptr && kvVictim != nullptr) {
                if (std::make_tuple(score(*lutVictim), lutVictim->lastUse,
                                    lutVictim->admitOrder) <=
                    std::make_tuple(scoreKv(*kvVictim), kvVictim->lastUse,
                                    kvVictim->admitOrder)) {
                    evict(*lutVictim);
                } else {
                    spillKv(*kvVictim, spill);
                }
            } else if (lutVictim != nullptr) {
                evict(*lutVictim);
            } else if (kvVictim != nullptr) {
                spillKv(*kvVictim, spill);
            } else {
                return false;
            }
        }
        return true;
    }

    void
    evict(TableSet& victim)
    {
        for (const auto& [rank, bytes] : victim.rankBytes) {
            lut_[rank] -= bytes;
        }
        victim.resident = false;
        ++stats_.evictions;
        --stats_.tableSets;
    }

    void
    spillKv(KvEntry& victim, SpillCost& spill)
    {
        const std::uint64_t raw = victim.rawBytes();
        kv_[victim.rank] -= footprint(raw);
        victim.resident = false;
        ++stats_.kvSpills;
        --stats_.kvStreams;
        stats_.kvResidentBytes -= raw;
        const double seconds = transferSeconds(static_cast<double>(raw));
        const double joules =
            profile_.pjPerBroadcastByte * static_cast<double>(raw) * 1e-12;
        spill.bytes += static_cast<double>(raw);
        spill.seconds += seconds;
        spill.joules += joules;
        stats_.kvMovedBytes += static_cast<double>(raw);
        stats_.kvMovedSeconds += seconds;
    }

    static double
    score(const TableSet& set)
    {
        return set.broadcastSeconds * static_cast<double>(set.uses);
    }

    double
    scoreKv(const KvEntry& entry) const
    {
        return 2.0 * transferSeconds(static_cast<double>(entry.rawBytes()));
    }

    std::uint64_t
    footprint(std::uint64_t rawBytes) const
    {
        const std::uint64_t units = std::max(1u, profile_.unitsPerRank);
        return (rawBytes + units - 1) / units;
    }

    double
    transferSeconds(double rawBytes) const
    {
        if (rawBytes <= 0) {
            return 0.0;
        }
        return profile_.broadcastLatencyUs * 1e-6 +
               rawBytes / (profile_.broadcastGBs * 1e9);
    }

    double
    broadcastSeconds(std::uint64_t bytes) const
    {
        if (bytes == 0) {
            return 0.0;
        }
        return profile_.broadcastLatencyUs * 1e-6 +
               static_cast<double>(bytes) / (profile_.broadcastGBs * 1e9);
    }

    MemoryProfile profile_;
    std::uint64_t budget_ = 0;
    std::unordered_map<TableSetKey, TableSet, TableSetKeyHash> sets_;
    std::unordered_map<std::uint64_t, KvEntry> streams_;
    std::vector<std::uint64_t> lut_;
    std::vector<std::uint64_t> kv_;
    std::uint64_t clock_ = 0;
    std::uint64_t admissions_ = 0;
    ResidencyStats stats_;
};

// ---------------------------------------------------------- trace parts

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

/** Unsharded LoCaLUT table sets from 544 B to 70 KiB per copy. */
std::vector<GemmPlan>
unshardedPlans()
{
    const std::vector<std::pair<const char*, unsigned>> shapes = {
        {"W1A3", 3}, {"W1A3", 4}, {"W2A2", 3},
        {"W2A2", 4}, {"W2A4", 2}, {"W4A4", 2},
    };
    std::vector<GemmPlan> plans;
    for (const auto& [preset, p] : shapes) {
        GemmPlan plan(DesignPoint::LoCaLut, QuantConfig::preset(preset));
        plan.p = p;
        plan.m = 768;
        plan.k = 768;
        plan.n = 32;
        plans.push_back(plan);
    }
    return plans;
}

/** Column cuts over 2, 3 and 4 ranks of three table-set sizes. */
std::vector<ShardPlan>
shardedPlans(const Backend& backend)
{
    std::vector<ShardPlan> plans;
    for (const char* preset : {"W1A3", "W2A2", "W4A4"}) {
        const GemmProblem problem =
            makeShapeOnlyProblem(256, 256, 16, QuantConfig::preset(preset));
        for (unsigned ranks = 2; ranks <= 4; ++ranks) {
            ShardSpec spec;
            spec.numRanks = ranks;
            plans.push_back(makeShardPlan(backend, problem,
                                          DesignPoint::LoCaLut, spec));
        }
    }
    return plans;
}

const std::vector<std::string> kScopes = {"qkv", "out", "ffn_up",
                                          "ffn_down"};

/** What the trace knows about a live stream. */
struct StreamState {
    unsigned rank = 0;
    unsigned layers = 1;
    std::uint64_t bytesPerToken = 0; ///< per layer
    std::uint64_t tokens = 0;
    bool displaced = false;
};

void
expectSameCharge(const ResidencyCharge& got, const ResidencyCharge& want)
{
    EXPECT_EQ(got.hit, want.hit);
    EXPECT_EQ(bits(got.bytes), bits(want.bytes));
    EXPECT_EQ(bits(got.seconds), bits(want.seconds));
    EXPECT_EQ(bits(got.joules), bits(want.joules));
    EXPECT_EQ(bits(got.kvSpillBytes), bits(want.kvSpillBytes));
    EXPECT_EQ(bits(got.kvSpillSeconds), bits(want.kvSpillSeconds));
    EXPECT_EQ(bits(got.kvSpillJoules), bits(want.kvSpillJoules));
}

void
expectSameCharge(const KvCharge& got, const KvCharge& want)
{
    EXPECT_EQ(got.shed, want.shed);
    EXPECT_EQ(got.refill, want.refill);
    EXPECT_EQ(bits(got.appendBytes), bits(want.appendBytes));
    EXPECT_EQ(bits(got.appendSeconds), bits(want.appendSeconds));
    EXPECT_EQ(bits(got.spillBytes), bits(want.spillBytes));
    EXPECT_EQ(bits(got.spillSeconds), bits(want.spillSeconds));
    EXPECT_EQ(bits(got.joules), bits(want.joules));
}

void
expectSameStats(const ResidencyStats& got, const ResidencyStats& want)
{
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.rebroadcasts, want.rebroadcasts);
    EXPECT_EQ(got.tableSets, want.tableSets);
    EXPECT_EQ(bits(got.broadcastBytes), bits(want.broadcastBytes));
    EXPECT_EQ(bits(got.broadcastSeconds), bits(want.broadcastSeconds));
    EXPECT_EQ(got.kvStreams, want.kvStreams);
    EXPECT_EQ(got.kvSpills, want.kvSpills);
    EXPECT_EQ(got.kvRefills, want.kvRefills);
    EXPECT_EQ(got.kvSheds, want.kvSheds);
    EXPECT_EQ(got.kvResidentBytes, want.kvResidentBytes);
    EXPECT_EQ(bits(got.kvMovedBytes), bits(want.kvMovedBytes));
    EXPECT_EQ(bits(got.kvMovedSeconds), bits(want.kvMovedSeconds));
    EXPECT_EQ(got.rankInvalidations, want.rankInvalidations);
    EXPECT_EQ(got.kvDisplaced, want.kvDisplaced);
}

constexpr unsigned kMaxLayers = 4;
constexpr std::uint64_t kStreamIds = 16;

/**
 * Replays @p ops seeded operations through both managers on
 * @p backendName with @p numRanks ranks, comparing after each.  The
 * budget holds a handful of sets, so most acquisitions evict or spill.
 */
void
replayTrace(const std::string& backendName, unsigned numRanks,
            std::uint64_t seed, int ops)
{
    if (::testing::Test::HasFailure()) {
        return; // an earlier trace already diverged; report that one
    }
    const BackendPtr backend = makeBackend(backendName);
    const std::vector<GemmPlan> plans = unshardedPlans();
    const std::vector<ShardPlan> shards = shardedPlans(*backend);
    const std::uint64_t budget = 150000;
    const std::uint64_t units =
        std::max(1u, backend->memoryProfile().unitsPerRank);
    ResidencyManager manager(backend, numRanks, budget);
    LinearScanResidency oracle(*backend, numRanks, budget);

    Rng rng(seed);
    std::vector<TableSetKey> keys;
    std::map<std::uint64_t, StreamState> streams;
    std::uint64_t sheds = 0, displaced = 0;
    auto remember = [&keys](TableSetKey key) {
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
            keys.push_back(std::move(key));
        }
    };

    for (int op = 0; op < ops; ++op) {
        const std::uint64_t pick = rng.nextBounded(100);
        std::string what;
        if (pick < 36) {
            const GemmPlan& plan = plans[rng.nextBounded(plans.size())];
            const std::string& scope = kScopes[rng.nextBounded(4)];
            const double instances = 1.0 + rng.nextBounded(3);
            const unsigned home =
                static_cast<unsigned>(rng.nextBounded(numRanks));
            what = "acquire " + scope;
            const ResolvedTableSet set =
                resolveTableSet(plan, scope, instances);
            expectSameCharge(manager.acquire(set, home),
                             oracle.acquire(set, home));
            remember(set.keyOn(home));
        } else if (pick < 48) {
            const ShardPlan& plan = shards[rng.nextBounded(shards.size())];
            const std::string& scope = kScopes[rng.nextBounded(4)];
            const double instances = 1.0 + rng.nextBounded(2);
            what = "sharded acquire " + scope;
            const ResolvedTableSet set =
                resolveTableSet(plan, scope, instances, numRanks);
            expectSameCharge(manager.acquire(set), oracle.acquire(set, 0));
            remember(set.keyOn(0));
        } else if (pick < 89) {
            const std::uint64_t id = 1 + rng.nextBounded(kStreamIds);
            auto [it, fresh] = streams.try_emplace(id);
            StreamState& s = it->second;
            if (fresh) {
                s.rank = static_cast<unsigned>(rng.nextBounded(numRanks));
                s.layers = 1 + static_cast<unsigned>(
                                   rng.nextBounded(kMaxLayers));
                s.bytesPerToken = units * (4 + rng.nextBounded(252));
                s.tokens = 4 + rng.nextBounded(60);
            } else {
                if (s.displaced) {
                    // Re-home on a survivor of the rank that died.
                    s.rank = static_cast<unsigned>(
                        (s.rank + 1 + rng.nextBounded(numRanks - 1)) %
                        numRanks);
                    s.displaced = false;
                }
                s.tokens += rng.nextBounded(100) < 3 ? 150
                                                     : rng.nextBounded(4);
            }
            what = "acquireKv " + std::to_string(id);
            const KvCharge got = manager.acquireKv(
                id, s.rank, s.layers, s.bytesPerToken, s.tokens);
            expectSameCharge(got, oracle.acquireKv(id, s.rank, s.layers,
                                                   s.bytesPerToken,
                                                   s.tokens));
            if (got.shed) {
                streams.erase(it);
                ++sheds;
            }
        } else if (pick < 97) {
            const std::uint64_t id = 1 + rng.nextBounded(kStreamIds);
            what = "releaseKv " + std::to_string(id);
            manager.releaseKv(id);
            oracle.releaseKv(id);
            streams.erase(id);
        } else if (pick < 98) {
            what = "clear";
            manager.clear();
            oracle.clear();
        } else {
            const unsigned rank =
                static_cast<unsigned>(rng.nextBounded(numRanks));
            what = "invalidateRank " + std::to_string(rank);
            const ResidencyManager::RankLoss got =
                manager.invalidateRank(rank);
            const ResidencyManager::RankLoss want =
                oracle.invalidateRank(rank);
            EXPECT_EQ(got.lutSetsDropped, want.lutSetsDropped);
            EXPECT_EQ(got.lutBytesDropped, want.lutBytesDropped);
            EXPECT_EQ(got.displacedStreams, want.displacedStreams);
            for (const std::uint64_t id : got.displacedStreams) {
                streams.at(id).displaced = numRanks > 1;
                ++displaced;
            }
        }

        expectSameStats(manager.stats(), oracle.stats());
        for (unsigned r = 0; r < numRanks; ++r) {
            EXPECT_EQ(manager.lutBytes(r), oracle.lutBytes(r)) << r;
            EXPECT_EQ(manager.kvBytes(r), oracle.kvBytes(r)) << r;
            EXPECT_LE(manager.residentBytes(r), budget) << r;
        }
        for (const TableSetKey& key : keys) {
            EXPECT_EQ(manager.isResident(key), oracle.isResident(key))
                << key.scope;
        }
        for (std::uint64_t id = 1; id <= kStreamIds; ++id) {
            for (unsigned layer = 0; layer <= kMaxLayers; ++layer) {
                EXPECT_EQ(manager.kvResident({id, layer}),
                          oracle.kvResident({id, layer}))
                    << id << "/" << layer;
            }
        }
        if (::testing::Test::HasFailure()) {
            ADD_FAILURE() << "diverged at op " << op << " (" << what
                          << "), seed " << seed;
            return;
        }
    }
    // The trace must actually exercise both eviction classes, sheds and
    // rank loss, or agreement would prove little.
    const ResidencyStats stats = manager.stats();
    EXPECT_GT(stats.evictions, static_cast<std::uint64_t>(ops) / 20);
    EXPECT_GT(stats.kvSpills, static_cast<std::uint64_t>(ops) / 50);
    EXPECT_GT(sheds, 0u);
    EXPECT_GT(stats.rebroadcasts, 0u);
    if (numRanks > 1) {
        EXPECT_GT(displaced, 0u);
    }
}

TEST(ResidencyVictimOrder, UpmemTraceMatchesLinearScan)
{
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        replayTrace("upmem", 3, seed, 6000);
    }
}

TEST(ResidencyVictimOrder, HostTraceMatchesLinearScan)
{
    replayTrace("host-cpu", 4, 11, 6000);
}

TEST(ResidencyVictimOrder, OneRankTraceMatchesLinearScan)
{
    replayTrace("upmem", 1, 5, 4000);
}

// ------------------------------------------------------------- stress

TEST(ResidencyStress, ConcurrentTrafficWithRankLossKeepsTheBooks)
{
    // host-cpu: one unit per rank, so a stream's per-unit footprint is
    // its raw byte count and the KV ledgers must sum to kvResidentBytes.
    const BackendPtr backend = makeBackend("host-cpu");
    constexpr unsigned kRanks = 4;
    constexpr unsigned kWorkers = 4;
    constexpr int kOpsPerWorker = 20000;
    constexpr unsigned kStreamsPerWorker = 4;
    const std::uint64_t budget = 150000;
    ResidencyManager manager(backend, kRanks, budget);
    const std::vector<GemmPlan> plans = unshardedPlans();
    const std::vector<ShardPlan> shards = shardedPlans(*backend);

    std::atomic<unsigned> running{kWorkers};
    std::atomic<std::uint64_t> acquires{0};
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < kWorkers; ++w) {
        threads.emplace_back([&, w] {
            Rng rng(100 + w);
            // Disjoint stream ids; each stream keeps one home rank.
            std::vector<std::uint64_t> tokens(kStreamsPerWorker, 0);
            for (int op = 0; op < kOpsPerWorker; ++op) {
                const std::uint64_t pick = rng.nextBounded(100);
                if (pick < 40) {
                    const GemmPlan& plan =
                        plans[rng.nextBounded(plans.size())];
                    manager.acquire(
                        resolveTableSet(plan, kScopes[rng.nextBounded(4)]),
                        static_cast<unsigned>(rng.nextBounded(kRanks)));
                    acquires.fetch_add(1, std::memory_order_relaxed);
                } else if (pick < 50) {
                    manager.acquire(resolveTableSet(
                        shards[rng.nextBounded(shards.size())],
                        kScopes[rng.nextBounded(4)], 1.0, kRanks));
                    acquires.fetch_add(1, std::memory_order_relaxed);
                } else {
                    const unsigned j = static_cast<unsigned>(
                        rng.nextBounded(kStreamsPerWorker));
                    const std::uint64_t id = 1000 * (w + 1) + j;
                    if (pick == 99) {
                        manager.releaseKv(id);
                        tokens[j] = 0;
                        continue;
                    }
                    tokens[j] += tokens[j] == 0 ? 8 + rng.nextBounded(32)
                                                : rng.nextBounded(6);
                    const KvCharge charge = manager.acquireKv(
                        id, (w + j) % kRanks, 2, 1024, tokens[j]);
                    if (charge.shed) {
                        tokens[j] = 0;
                    }
                }
            }
            running.fetch_sub(1, std::memory_order_release);
        });
    }
    std::uint64_t invalidations = 0;
    threads.emplace_back([&] {
        Rng rng(99);
        while (running.load(std::memory_order_acquire) > 0 ||
               invalidations < 16) {
            manager.invalidateRank(
                static_cast<unsigned>(rng.nextBounded(kRanks)));
            ++invalidations;
            std::this_thread::yield();
        }
    });
    for (std::thread& thread : threads) {
        thread.join();
    }

    // Recount what is resident from the keys the workers used.
    std::vector<std::uint64_t> lut(kRanks, 0);
    std::uint64_t sets = 0;
    for (const GemmPlan& plan : plans) {
        for (const std::string& scope : kScopes) {
            for (unsigned home = 0; home < kRanks; ++home) {
                if (manager.isResident(
                        resolveTableSet(plan, scope).keyOn(home))) {
                    ++sets;
                    lut[home] += tableSetBytes(plan);
                }
            }
        }
    }
    for (const ShardPlan& plan : shards) {
        for (const std::string& scope : kScopes) {
            if (manager.isResident(
                    resolveTableSet(plan, scope, 1.0, kRanks).keyOn(0))) {
                ++sets;
                for (const GemmShard& shard : plan.shards) {
                    lut[shard.rank % kRanks] += tableSetBytes(shard.plan);
                }
            }
        }
    }
    std::uint64_t streams = 0;
    for (unsigned w = 0; w < kWorkers; ++w) {
        for (unsigned j = 0; j < kStreamsPerWorker; ++j) {
            streams += manager.kvResident({1000 * (w + 1) + j, 0}) ? 1 : 0;
        }
    }

    const ResidencyStats stats = manager.stats();
    std::uint64_t kvTotal = 0;
    for (unsigned r = 0; r < kRanks; ++r) {
        EXPECT_LE(manager.residentBytes(r), budget) << r;
        EXPECT_EQ(manager.lutBytes(r), lut[r]) << r;
        kvTotal += manager.kvBytes(r);
    }
    EXPECT_EQ(stats.hits + stats.misses, acquires.load());
    EXPECT_EQ(stats.tableSets, sets);
    EXPECT_EQ(stats.kvStreams, streams);
    EXPECT_EQ(stats.kvResidentBytes, kvTotal);
    EXPECT_EQ(stats.rankInvalidations, invalidations);
    EXPECT_LE(stats.evictions, stats.misses);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.kvSpills, 0u);
    EXPECT_GT(stats.kvSheds, 0u);
}

} // namespace
} // namespace localut
