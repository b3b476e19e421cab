#include "serving/residency.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/saturate.h"
#include "lut/capacity.h"

namespace localut {

namespace {

/** Sentinel "no stream is protected" id for makeRoomOnRankLocked (stream
 * ids are engine-assigned and never this value). */
constexpr std::uint64_t kNoProtectedStream =
    std::numeric_limits<std::uint64_t>::max();

std::uint64_t
roundInstances(double instances)
{
    return static_cast<std::uint64_t>(
        std::llround(std::max(1.0, instances)));
}

} // namespace

std::size_t
KvCacheKeyHash::operator()(const KvCacheKey& key) const
{
    std::size_t seed = 0;
    hashCombine(seed, static_cast<std::size_t>(key.stream));
    hashCombine(seed, key.layer);
    return seed;
}

std::size_t
TableSetKeyHash::operator()(const TableSetKey& key) const
{
    std::size_t seed = 0;
    hashCombine(seed, std::hash<std::string>{}(key.scope));
    hashCombine(seed, key.m);
    hashCombine(seed, key.k);
    hashCombine(seed, key.n);
    hashCombine(seed,
                static_cast<std::size_t>(key.config.weightCodec.kind()));
    hashCombine(seed, key.config.weightCodec.bits());
    hashCombine(seed, static_cast<std::size_t>(key.config.actCodec.kind()));
    hashCombine(seed, key.config.actCodec.bits());
    hashCombine(seed, static_cast<std::size_t>(key.design));
    hashCombine(seed, key.p);
    hashCombine(seed, key.shard.numRanks);
    hashCombine(seed, static_cast<std::size_t>(key.shard.strategy));
    hashCombine(seed, key.shard.align);
    hashCombine(seed, static_cast<std::size_t>(key.instances));
    hashCombine(seed, key.homeRank);
    return seed;
}

TableSetKey
tableSetKeyFor(const GemmPlan& plan, const std::string& scope,
               double instances, unsigned homeRank)
{
    TableSetKey key;
    key.scope = scope;
    key.m = plan.m;
    key.k = plan.k;
    key.n = plan.n;
    key.config = plan.config;
    key.design = plan.design;
    key.p = std::max(1u, plan.p);
    key.instances = roundInstances(instances);
    key.homeRank = homeRank;
    return key;
}

std::uint64_t
tableSetBytes(const GemmPlan& plan)
{
    const LutShape shape(plan.config, std::max(1u, plan.p));
    switch (plan.design) {
      case DesignPoint::NaivePim:
        return 0; // arithmetic MACs: no tables at all
      case DesignPoint::Ltc:
        return 0; // tables are built on-device at run time (TableBuild)
      case DesignPoint::OpLutDram:
      case DesignPoint::OpLut:
        return opPackedLutBytes(shape);
      case DesignPoint::OpLc:
        return canonicalLutBytes(shape);
      case DesignPoint::OpLcRc:
      case DesignPoint::LoCaLut:
        return localutBytes(shape);
    }
    LOCALUT_PANIC("invalid design point");
}

void
ResidencyCharge::apply(TimingReport& timing, EnergyReport& energy,
                       KernelCost* cost) const
{
    if (!hit && (bytes > 0 || seconds > 0)) {
        timing.linkSeconds += seconds;
        timing.total += seconds;
        timing.seconds.add(phaseName(Phase::LutBroadcast), seconds);
        energy.total += joules;
        energy.joules.add(phaseName(Phase::LutBroadcast), joules);
        if (cost != nullptr) {
            cost->addLinkBytes(Phase::LutBroadcast, bytes);
        }
    }
    if (kvSpillBytes > 0 || kvSpillSeconds > 0) {
        timing.linkSeconds += kvSpillSeconds;
        timing.total += kvSpillSeconds;
        timing.seconds.add(phaseName(Phase::LinkOut), kvSpillSeconds);
        energy.total += kvSpillJoules;
        energy.joules.add(phaseName(Phase::LinkOut), kvSpillJoules);
        if (cost != nullptr) {
            cost->addLinkBytes(Phase::LinkOut, kvSpillBytes);
        }
    }
}

ResidencyManager::ResidencyManager(BackendPtr backend, unsigned numRanks,
                                   std::uint64_t budgetBytesPerUnit,
                                   ResidencyPolicy policy)
    : backend_(std::move(backend)), policy_(policy)
{
    LOCALUT_REQUIRE(backend_ != nullptr,
                    "ResidencyManager needs a backend");
    LOCALUT_REQUIRE(numRanks >= 1,
                    "ResidencyManager needs at least one rank");
    profile_ = backend_->memoryProfile();
    budget_ = budgetBytesPerUnit != 0 ? budgetBytesPerUnit
                                      : profile_.lutBytesPerUnit;
    residentBytes_.assign(numRanks, 0);
    kvFootprint_.assign(numRanks, 0);
}

unsigned
ResidencyManager::numRanks() const
{
    return static_cast<unsigned>(residentBytes_.size());
}

ResidencyCharge
ResidencyManager::acquire(const GemmPlan& plan, const std::string& scope,
                          double instances, unsigned homeRank)
{
    const std::uint64_t perCopy = tableSetBytes(plan);
    if (policy_ == ResidencyPolicy::Disabled || perCopy == 0) {
        return {}; // nothing to place; nothing charged
    }
    LOCALUT_REQUIRE(homeRank < numRanks(), "table-set home rank ",
                    homeRank, " outside the ", numRanks(), "-rank grid");
    TableSetKey key = tableSetKeyFor(plan, scope, instances, homeRank);
    const std::uint64_t bytes = satMulU64(perCopy, key.instances);
    if (lutBytesSaturated(bytes)) {
        // The real byte count overflowed 64 bits: such a plan is not
        // physically executable, and charging the sentinel as a size
        // would report a nonsense multi-year broadcast.  Leave it
        // untracked (the capacity.h contract: saturated counts must
        // never enter budget arithmetic).
        return {};
    }
    std::lock_guard<std::mutex> lock(mutex_);
    SpillCost spill;
    return acquireLocked(std::move(key), {{homeRank, bytes}}, spill);
}

ResidencyCharge
ResidencyManager::acquire(const ShardPlan& plan, const std::string& scope,
                          double instances)
{
    if (policy_ == ResidencyPolicy::Disabled || plan.shards.empty()) {
        return {};
    }
    TableSetKey key;
    key.scope = scope;
    key.m = plan.m;
    key.k = plan.k;
    key.n = plan.n;
    key.config = plan.config;
    key.design = plan.design;
    key.p = std::max(1u, plan.shards.front().plan.p);
    key.shard = plan.spec;
    const std::uint64_t inst = roundInstances(instances);
    key.instances = inst;
    // Coalesce per rank: when the plan carries more shards than this
    // manager has ranks, the wrapped entries must be budget-checked as
    // one aggregate — per-entry checks would admit a rank over budget.
    std::vector<std::uint64_t> perRank(numRanks(), 0);
    double total = 0;
    for (const GemmShard& shard : plan.shards) {
        const std::uint64_t bytes =
            satMulU64(tableSetBytes(shard.plan), inst);
        if (lutBytesSaturated(bytes)) {
            return {}; // unrepresentably large: untracked (see above)
        }
        const unsigned rank = shard.rank % numRanks();
        perRank[rank] = satAddU64(perRank[rank], bytes);
        total += static_cast<double>(bytes);
    }
    if (total == 0) {
        return {}; // design without host-built tables
    }
    std::vector<std::pair<unsigned, std::uint64_t>> rankBytes;
    rankBytes.reserve(perRank.size());
    for (unsigned rank = 0; rank < perRank.size(); ++rank) {
        if (perRank[rank] > 0) {
            rankBytes.emplace_back(rank, perRank[rank]);
        }
    }
    std::lock_guard<std::mutex> lock(mutex_);
    SpillCost spill;
    return acquireLocked(std::move(key), std::move(rankBytes), spill);
}

ResidencyCharge
ResidencyManager::acquireLocked(
    TableSetKey key,
    std::vector<std::pair<unsigned, std::uint64_t>> rankBytes,
    SpillCost& spill)
{
    ++clock_;
    auto [it, inserted] = sets_.try_emplace(std::move(key));
    TableSet& set = it->second;
    if (inserted) {
        set.rankBytes = std::move(rankBytes);
        // One broadcast moves every rank's share over the rank-parallel
        // broadcast link.
        std::uint64_t bytes = 0;
        for (const auto& [rank, rankShare] : set.rankBytes) {
            bytes = satAddU64(bytes, rankShare);
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

    // Miss: broadcast the tables, then try to admit them (an oversized
    // set streams through without ever becoming resident — every access
    // pays the transfer).
    ++stats_.misses;
    if (set.everResident) {
        ++stats_.rebroadcasts;
    }
    if (makeRoomLocked(set, spill)) {
        set.resident = true;
        set.everResident = true;
        set.admitOrder = ++admissions_;
        for (const auto& [rank, bytes] : set.rankBytes) {
            residentBytes_[rank] += bytes;
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

double
ResidencyManager::scoreLocked(const TableSet& set) const
{
    // What re-fetching this set would cost, weighted by how often it has
    // actually been used — the expected rebroadcast debt.
    return set.broadcastSeconds * static_cast<double>(set.uses);
}

bool
ResidencyManager::makeRoomLocked(const TableSet& incoming, SpillCost& spill)
{
    for (const auto& [rank, bytes] : incoming.rankBytes) {
        LOCALUT_REQUIRE(rank < residentBytes_.size(),
                        "table-set rank out of range");
        if (bytes > budget_) {
            return false; // can never fit, even on an empty rank
        }
    }
    for (const auto& [rank, bytes] : incoming.rankBytes) {
        if (!makeRoomOnRankLocked(rank, bytes, &incoming,
                                  kNoProtectedStream, spill)) {
            return false;
        }
    }
    return true;
}

bool
ResidencyManager::makeRoomOnRankLocked(unsigned rank, std::uint64_t needed,
                                       const TableSet* keepSet,
                                       std::uint64_t keepStream,
                                       SpillCost& spill)
{
    while (residentBytes_[rank] + kvFootprint_[rank] + needed > budget_) {
        // Victim: lowest score across *both* resource classes occupying
        // this rank — evicting a LUT set costs its future rebroadcast,
        // spilling a stream's KV costs its writeback + refill round
        // trip.  Ties break toward least-recent, then oldest admission,
        // so the choice is deterministic.
        TableSet* lutVictim = nullptr;
        for (auto& [key, candidate] : sets_) {
            if (!candidate.resident || &candidate == keepSet) {
                continue;
            }
            const bool onRank = std::any_of(
                candidate.rankBytes.begin(), candidate.rankBytes.end(),
                [rank](const auto& rb) { return rb.first == rank; });
            if (!onRank) {
                continue;
            }
            if (lutVictim == nullptr ||
                std::make_tuple(scoreLocked(candidate), candidate.lastUse,
                                candidate.admitOrder) <
                    std::make_tuple(scoreLocked(*lutVictim),
                                    lutVictim->lastUse,
                                    lutVictim->admitOrder)) {
                lutVictim = &candidate;
            }
        }
        KvEntry* kvVictim = nullptr;
        for (auto& [stream, candidate] : kvStreams_) {
            if (!candidate.resident || candidate.rank != rank ||
                stream == keepStream) {
                continue;
            }
            if (kvVictim == nullptr ||
                std::make_tuple(scoreKvLocked(candidate), candidate.lastUse,
                                candidate.admitOrder) <
                    std::make_tuple(scoreKvLocked(*kvVictim),
                                    kvVictim->lastUse,
                                    kvVictim->admitOrder)) {
                kvVictim = &candidate;
            }
        }
        if (lutVictim != nullptr && kvVictim != nullptr) {
            const bool lutFirst =
                std::make_tuple(scoreLocked(*lutVictim), lutVictim->lastUse,
                                lutVictim->admitOrder) <=
                std::make_tuple(scoreKvLocked(*kvVictim), kvVictim->lastUse,
                                kvVictim->admitOrder);
            if (lutFirst) {
                evictLocked(*lutVictim);
            } else {
                spillLocked(*kvVictim, spill);
            }
        } else if (lutVictim != nullptr) {
            evictLocked(*lutVictim);
        } else if (kvVictim != nullptr) {
            spillLocked(*kvVictim, spill);
        } else {
            return false; // nothing left to evict on this rank
        }
    }
    return true;
}

void
ResidencyManager::evictLocked(TableSet& victim)
{
    LOCALUT_ASSERT(victim.resident, "evicting a non-resident table set");
    for (const auto& [rank, bytes] : victim.rankBytes) {
        LOCALUT_ASSERT(residentBytes_[rank] >= bytes,
                       "resident-byte ledger underflow");
        residentBytes_[rank] -= bytes;
    }
    victim.resident = false;
    ++stats_.evictions;
    LOCALUT_ASSERT(stats_.tableSets > 0, "eviction with no resident sets");
    --stats_.tableSets;
}

void
ResidencyManager::spillLocked(KvEntry& victim, SpillCost& spill)
{
    LOCALUT_ASSERT(victim.resident, "spilling a non-resident KV stream");
    const std::uint64_t raw = victim.rawBytes();
    const std::uint64_t footprint = kvFootprint(raw);
    LOCALUT_ASSERT(kvFootprint_[victim.rank] >= footprint,
                   "KV footprint ledger underflow");
    kvFootprint_[victim.rank] -= footprint;
    victim.resident = false;
    ++stats_.kvSpills;
    LOCALUT_ASSERT(stats_.kvStreams > 0, "spill with no resident streams");
    --stats_.kvStreams;
    LOCALUT_ASSERT(stats_.kvResidentBytes >= raw,
                   "KV resident-byte counter underflow");
    stats_.kvResidentBytes -= raw;
    const double seconds = kvTransferSeconds(static_cast<double>(raw));
    const double joules =
        profile_.pjPerBroadcastByte * static_cast<double>(raw) * 1e-12;
    spill.bytes += static_cast<double>(raw);
    spill.seconds += seconds;
    spill.joules += joules;
    stats_.kvMovedBytes += static_cast<double>(raw);
    stats_.kvMovedSeconds += seconds;
}

double
ResidencyManager::scoreKvLocked(const KvEntry& entry) const
{
    // Spilling costs the PIM -> host writeback now plus the host -> PIM
    // refill the stream's next decode step must pay — a round trip of
    // the whole context.
    return 2.0 * kvTransferSeconds(static_cast<double>(entry.rawBytes()));
}

std::uint64_t
ResidencyManager::kvFootprint(std::uint64_t rawBytes) const
{
    // KV state is bank-interleaved across a rank's units (unlike LUT
    // tables, which every unit replicates), so the per-unit footprint
    // divides by the unit count.
    const std::uint64_t units = std::max(1u, profile_.unitsPerRank);
    return (rawBytes + units - 1) / units;
}

double
ResidencyManager::kvTransferSeconds(double rawBytes) const
{
    if (rawBytes <= 0) {
        return 0.0;
    }
    return profile_.broadcastLatencyUs * 1e-6 +
           rawBytes / (profile_.broadcastGBs * 1e9);
}

KvCharge
ResidencyManager::acquireKv(std::uint64_t stream, unsigned rank,
                            unsigned layers,
                            std::uint64_t bytesPerTokenPerLayer,
                            std::uint64_t contextTokens)
{
    if (policy_ == ResidencyPolicy::Disabled) {
        return {}; // nothing tracked; nothing charged
    }
    LOCALUT_REQUIRE(stream != kNoProtectedStream, "reserved stream id");
    LOCALUT_REQUIRE(layers >= 1 && bytesPerTokenPerLayer >= 1 &&
                        contextTokens >= 1,
                    "degenerate KV shape");
    LOCALUT_REQUIRE(rank < numRanks(), "KV rank ", rank, " outside the ",
                    numRanks(), "-rank grid");
    std::lock_guard<std::mutex> lock(mutex_);
    ++clock_;
    auto [it, inserted] = kvStreams_.try_emplace(stream);
    KvEntry& entry = it->second;
    if (inserted) {
        entry.rank = rank;
        entry.layers = layers;
        entry.bytesPerTokenPerLayer = bytesPerTokenPerLayer;
    } else {
        if (entry.displaced) {
            // The stream's home rank died.  invalidateRank() already
            // dropped its residency, so adopting the caller's rank here
            // charges the full-context refill on the survivor — the one
            // sanctioned way a stream changes rank mid-flight.
            entry.rank = rank;
            entry.displaced = false;
        }
        LOCALUT_REQUIRE(entry.rank == rank && entry.layers == layers &&
                            entry.bytesPerTokenPerLayer ==
                                bytesPerTokenPerLayer,
                        "KV stream changed shape or rank mid-flight");
        LOCALUT_REQUIRE(contextTokens >= entry.tokens,
                        "KV context must grow monotonically");
    }
    entry.lastUse = clock_;

    const std::uint64_t targetRaw =
        satMulU64(satMulU64(layers, bytesPerTokenPerLayer), contextTokens);
    const std::uint64_t targetFootprint = kvFootprint(targetRaw);
    if (lutBytesSaturated(targetRaw) || targetFootprint > budget_) {
        // This stream's KV alone can never fit the rank, even with every
        // other resident evicted: shed it (release all state).
        if (entry.resident) {
            const std::uint64_t raw = entry.rawBytes();
            kvFootprint_[rank] -= kvFootprint(raw);
            --stats_.kvStreams;
            stats_.kvResidentBytes -= raw;
        }
        kvStreams_.erase(it);
        ++stats_.kvSheds;
        KvCharge charge;
        charge.shed = true;
        return charge;
    }

    const std::uint64_t oldRaw = entry.rawBytes();
    const bool wasResident = entry.resident;
    // Bytes that must move host -> PIM: the appended tokens when the
    // context is resident, the whole context on first touch or refill.
    const std::uint64_t moveRaw = wasResident ? targetRaw - oldRaw
                                              : targetRaw;
    if (wasResident && moveRaw == 0) {
        KvCharge charge; // resident, unchanged: a free hit
        return charge;
    }

    // Take the stream's old footprint off the ledger while making room
    // for the new one, so growth is charged on the delta, not double-
    // counted; the stream itself is protected from victim selection.
    if (wasResident) {
        kvFootprint_[rank] -= kvFootprint(oldRaw);
    }
    SpillCost spill;
    const bool admitted = makeRoomOnRankLocked(
        rank, targetFootprint, /*keepSet=*/nullptr, stream, spill);
    LOCALUT_ASSERT(admitted,
                   "KV admission failed despite fitting the budget");
    kvFootprint_[rank] += targetFootprint;
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
    charge.appendSeconds = kvTransferSeconds(charge.appendBytes);
    charge.spillBytes = spill.bytes;
    charge.spillSeconds = spill.seconds;
    charge.joules =
        profile_.pjPerBroadcastByte * charge.appendBytes * 1e-12 +
        spill.joules;
    stats_.kvMovedBytes += charge.appendBytes;
    stats_.kvMovedSeconds += charge.appendSeconds;
    return charge;
}

ResidencyManager::RankLoss
ResidencyManager::invalidateRank(unsigned rank)
{
    RankLoss loss;
    if (policy_ == ResidencyPolicy::Disabled) {
        return loss;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    LOCALUT_REQUIRE(rank < residentBytes_.size(), "rank out of range");
    // Every table set with bytes on the dead rank loses residency whole:
    // a partial set cannot serve a sharded GEMM, and the re-shard that
    // follows the death keys a different set anyway.  everResident is
    // kept so a later re-acquire counts as a rebroadcast.
    for (auto& [key, set] : sets_) {
        if (!set.resident) {
            continue;
        }
        const bool onRank = std::any_of(
            set.rankBytes.begin(), set.rankBytes.end(),
            [rank](const auto& rb) { return rb.first == rank; });
        if (!onRank) {
            continue;
        }
        for (const auto& [r, bytes] : set.rankBytes) {
            loss.lutBytesDropped += bytes;
        }
        evictLocked(set);
        ++loss.lutSetsDropped;
    }
    // KV streams homed on the rank lose their device-resident context
    // and become displaced: the next acquireKv() may re-home them to a
    // survivor at full-refill cost.
    for (auto& [stream, entry] : kvStreams_) {
        if (entry.rank != rank) {
            continue;
        }
        if (entry.resident) {
            const std::uint64_t raw = entry.rawBytes();
            LOCALUT_ASSERT(kvFootprint_[rank] >= kvFootprint(raw),
                           "KV footprint ledger underflow");
            kvFootprint_[rank] -= kvFootprint(raw);
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
    std::sort(loss.displacedStreams.begin(), loss.displacedStreams.end());
    ++stats_.rankInvalidations;
    return loss;
}

void
ResidencyManager::releaseKv(std::uint64_t stream)
{
    if (policy_ == ResidencyPolicy::Disabled) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = kvStreams_.find(stream);
    if (it == kvStreams_.end()) {
        return;
    }
    if (it->second.resident) {
        const std::uint64_t raw = it->second.rawBytes();
        kvFootprint_[it->second.rank] -= kvFootprint(raw);
        --stats_.kvStreams;
        stats_.kvResidentBytes -= raw;
    }
    kvStreams_.erase(it);
}

bool
ResidencyManager::kvResident(const KvCacheKey& key) const
{
    if (policy_ == ResidencyPolicy::Disabled) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = kvStreams_.find(key.stream);
    return it != kvStreams_.end() && it->second.resident &&
           key.layer < it->second.layers;
}

bool
ResidencyManager::isResident(const TableSetKey& key) const
{
    if (policy_ == ResidencyPolicy::Disabled) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sets_.find(key);
    return it != sets_.end() && it->second.resident;
}

double
ResidencyManager::broadcastSeconds(std::uint64_t bytes) const
{
    if (bytes == 0) {
        return 0.0;
    }
    return profile_.broadcastLatencyUs * 1e-6 +
           static_cast<double>(bytes) / (profile_.broadcastGBs * 1e9);
}

ResidencyStats
ResidencyManager::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::uint64_t
ResidencyManager::residentBytes(unsigned rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LOCALUT_REQUIRE(rank < residentBytes_.size(), "rank out of range");
    return residentBytes_[rank] + kvFootprint_[rank];
}

std::uint64_t
ResidencyManager::lutBytes(unsigned rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LOCALUT_REQUIRE(rank < residentBytes_.size(), "rank out of range");
    return residentBytes_[rank];
}

std::uint64_t
ResidencyManager::kvBytes(unsigned rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    LOCALUT_REQUIRE(rank < kvFootprint_.size(), "rank out of range");
    return kvFootprint_[rank];
}

void
ResidencyManager::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Keep the entries (usage and everResident history) so post-reset
    // misses on previously-broadcast sets still count as re-broadcasts;
    // only the residency itself is dropped.  KV streams lose residency
    // too (their contexts survive on the host: the next acquireKv pays
    // a refill).
    for (auto& [key, set] : sets_) {
        set.resident = false;
    }
    for (auto& [stream, entry] : kvStreams_) {
        entry.resident = false;
    }
    std::fill(residentBytes_.begin(), residentBytes_.end(), 0);
    std::fill(kvFootprint_.begin(), kvFootprint_.end(), 0);
    stats_.tableSets = 0;
    stats_.kvStreams = 0;
    stats_.kvResidentBytes = 0;
}

} // namespace localut
