#ifndef LOCALUT_SERVING_RESIDENCY_H_
#define LOCALUT_SERVING_RESIDENCY_H_

/**
 * @file
 * The MRAM residency manager: table capacity *and* KV-cache state as
 * first-class, cost-charged serving resources.
 *
 * The paper's whole thesis trades LUT *capacity* for *computation*, but a
 * serving loop that re-dispatches the same GEMMs every decode step only
 * enjoys that tradeoff if the tables are actually resident: the first
 * execution of a (layer, LutShape, DesignPoint) table set must broadcast
 * the canonical + reordering (or op-packed) tables host -> PIM, and every
 * later execution should find them already in MRAM and skip the transfer.
 * The ResidencyManager models exactly that:
 *
 *  - Per logical rank it tracks an MRAM byte budget — from
 *    Backend::memoryProfile() (per-unit LUT bytes; every DPU/bank of a
 *    rank holds its own copy of each resident set, so residency is
 *    tracked in per-copy bytes) or overridden by
 *    SessionOptions::mramBudgetBytes — and the table sets currently
 *    resident against it, sized by the capacity model
 *    (localutBytes() / opPackedLutBytes() in lut/capacity.h).
 *  - acquire() on a missing set charges an explicit host -> PIM broadcast
 *    (Phase::LutBroadcast; seconds/Joules from the backend's memory
 *    profile, analogous to the sharded collective charging) and admits
 *    the set; on a hit it charges nothing.  A 32-step decode loop thus
 *    pays table transfer once per layer instead of 32x.
 *  - When a rank's budget is full, eviction is cost-model-driven: the
 *    resident set with the lowest (rebroadcast cost x observed reuse)
 *    score goes first (ResidencyPolicy::CostAware).
 *  - Sharded executions compose naturally: each shard's table set
 *    consumes its own rank's budget, and the ShardSpec is part of the
 *    table-set key so re-cut tables never alias.
 *
 * Token-level serving (serving/token_engine.h) adds a second resource
 * class to the same per-rank budgets: the **KV-cache** of each decode
 * stream.  A stream's KV state (KvCacheKey per stream x layer; sized
 * from model dims x current context length, growing by one token per
 * decode step) is bank-interleaved across a rank's units, so b raw
 * bytes of KV occupy ceil(b / unitsPerRank) per-unit bytes against the
 * same budget LUT table sets replicate into.  acquireKv() charges the
 * host -> PIM write of the newly appended tokens each step; under
 * pressure the manager arbitrates *across classes* with the same
 * cost-driven score: evicting a cold LUT set costs a future
 * Phase::LutBroadcast rebroadcast, spilling a stream's KV costs its
 * PIM -> host writeback now plus the host -> PIM refill its next step
 * must pay — whichever debt is smaller goes first.  A stream whose KV
 * alone exceeds the rank budget is shed (KvCharge::shed), which the
 * token engine surfaces as a capacity shed.
 *
 * Residency only ever affects *costs* (timing, energy, link bytes) —
 * never functional values: a session with residency enabled is bit-exact
 * with one where it is disabled, on every backend (the differential
 * invariant tests/test_residency.cc pins).
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/backend.h"
#include "serving/sharding.h"

namespace localut {

/** How the manager behaves when a table set must be admitted. */
enum class ResidencyPolicy {
    /** No tracking: nothing is charged and nothing is resident (the
     * pre-residency cost model; the serving default for back-compat). */
    Disabled,
    /** Evict the resident set with the lowest
     * (rebroadcast cost x observed reuse) score. */
    CostAware,
};

/**
 * Identity of one table set: the owning GEMM (shape + role scope), its
 * quantization config, design point, resolved packing degree, and the
 * shard cut.  Two GEMMs with the same shape but different roles (e.g. the
 * QKV and output projections of a transformer layer) keep distinct table
 * sets — tables are stored interleaved with each owner's weight
 * partitions, the way a real deployment fuses them.
 */
struct TableSetKey {
    std::string scope;             ///< owner id ("qkv", "ffn_up", ...)
    std::size_t m = 0, k = 0, n = 0; ///< owning GEMM shape
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()}; ///< quantization
    DesignPoint design = DesignPoint::LoCaLut; ///< design point
    unsigned p = 1;                ///< resolved packing degree (sizing)
    ShardSpec shard;               ///< default = unsharded
    /** Per-layer instance count the set aggregates: two owner groups
     * that agree on everything else but span different layer counts are
     * different table sets (different bytes, different broadcast). */
    std::uint64_t instances = 1;
    /**
     * The rank an *unsharded* acquisition places the set on (data-
     * parallel serving keeps one replica of a layer's tables per rank,
     * so rank 0's copy and rank 2's copy are distinct sets).  Always 0
     * for sharded sets (their ranks live in the per-shard ledger).
     */
    unsigned homeRank = 0;

    bool operator==(const TableSetKey&) const = default; ///< field-wise
};

/** Hash over every TableSetKey field. */
struct TableSetKeyHash {
    /** Combines every key field into one hash. */
    std::size_t operator()(const TableSetKey& key) const;
};

/**
 * Bytes of the table set @p plan executes from, per unit copy: the
 * capacity model's count for the plan's LUT variant (canonical +
 * reordering for LoCaLUT / OP+LC+RC, canonical for OP+LC, op-packed for
 * OP).  Zero for designs without host-built tables (NaivePIM computes,
 * LTC builds its tables on-device).
 */
std::uint64_t tableSetBytes(const GemmPlan& plan);

/**
 * The residency identity an unsharded acquire() of @p plan would use
 * (scoped by @p scope, aggregating @p instances per-layer copies, homed
 * on @p homeRank).  Exposed so serving layers — the SLO scheduler's
 * cold-start-aware placement — can reason about table-set identity
 * without mutating the manager.
 */
TableSetKey tableSetKeyFor(const GemmPlan& plan,
                           const std::string& scope = "",
                           double instances = 1.0, unsigned homeRank = 0);

/** The cost acquire() charged for one table-set access. */
struct ResidencyCharge {
    bool hit = true;   ///< tables were resident; nothing was transferred
    double bytes = 0;   ///< host -> PIM broadcast bytes (0 on a hit)
    double seconds = 0; ///< modeled broadcast seconds (0 on a hit)
    double joules = 0;  ///< modeled broadcast Joules (0 on a hit)
    /** Raw KV-cache bytes the admission spilled PIM -> host to make
     * room (cross-class arbitration; 0 when no stream was spilled). */
    double kvSpillBytes = 0;
    double kvSpillSeconds = 0; ///< modeled writeback seconds of the spill
    double kvSpillJoules = 0;  ///< modeled writeback Joules of the spill

    /** Folds the broadcast into a result's reports (and, when @p cost is
     * given, its Phase::LutBroadcast link-byte accounting); any KV
     * spill the admission forced lands under Phase::LinkOut. */
    void apply(TimingReport& timing, EnergyReport& energy,
               KernelCost* cost = nullptr) const;
};

/**
 * Identity of one stream x layer slice of MRAM-resident KV-cache state.
 * The layers of one stream gang together — a decode step touches every
 * layer's K and V, so spill/refill granularity is the whole stream —
 * but the per-layer identity is what queries and tests reason about.
 */
struct KvCacheKey {
    std::uint64_t stream = 0; ///< token-engine stream id
    unsigned layer = 0;       ///< transformer layer index

    bool operator==(const KvCacheKey&) const = default; ///< field-wise
};

/** Hash over both KvCacheKey fields. */
struct KvCacheKeyHash {
    /** Combines stream id and layer into one hash. */
    std::size_t operator()(const KvCacheKey& key) const;
};

/** The cost acquireKv() charged for one decode-step KV access. */
struct KvCharge {
    /** The stream's KV alone can never fit the rank budget: the caller
     * must shed the stream (its state has been released). */
    bool shed = false;
    /** The existing context had been spilled and was transferred back
     * host -> PIM before appending (counted in appendBytes). */
    bool refill = false;
    /** Raw host -> PIM bytes moved: the newly appended tokens plus any
     * refill of previously spilled context. */
    double appendBytes = 0;
    double appendSeconds = 0; ///< modeled host -> PIM transfer seconds
    /** Raw PIM -> host bytes of *other* streams spilled to make room. */
    double spillBytes = 0;
    double spillSeconds = 0;  ///< modeled writeback seconds of the spills
    double joules = 0;        ///< modeled Joules of all KV movement

    /** Total modeled transfer seconds this access charged. */
    double seconds() const { return appendSeconds + spillSeconds; }

    /** True when no bytes moved (context resident, no growth). */
    bool hit() const
    {
        return !shed && appendBytes <= 0 && spillBytes <= 0;
    }
};

/** Counters for serving code and tests. */
struct ResidencyStats {
    std::uint64_t hits = 0;          ///< acquires that found tables resident
    std::uint64_t misses = 0;        ///< acquires that broadcast
    std::uint64_t evictions = 0;     ///< table sets pushed out of MRAM
    std::uint64_t rebroadcasts = 0;  ///< misses on previously-evicted sets
    std::uint64_t tableSets = 0;     ///< currently resident sets
    double broadcastBytes = 0;       ///< total host -> PIM table bytes
    double broadcastSeconds = 0;     ///< total modeled broadcast time
    std::uint64_t kvStreams = 0;     ///< KV streams currently resident
    std::uint64_t kvSpills = 0;      ///< streams spilled out under pressure
    std::uint64_t kvRefills = 0;     ///< spilled streams transferred back
    std::uint64_t kvSheds = 0;       ///< streams whose KV could never fit
    std::uint64_t kvResidentBytes = 0; ///< raw KV bytes currently resident
    double kvMovedBytes = 0;         ///< host <-> PIM KV traffic (raw)
    double kvMovedSeconds = 0;       ///< modeled KV transfer seconds
    std::uint64_t rankInvalidations = 0; ///< invalidateRank() calls
    /** KV streams whose home rank died; their next acquireKv() may
     * re-home them to a survivor at full-refill cost. */
    std::uint64_t kvDisplaced = 0;

    /** Fraction of acquires that found tables resident. */
    double
    hitRate() const
    {
        const std::uint64_t lookups = hits + misses;
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
    }
};

/**
 * Tracks which LUT table sets are MRAM-resident on each logical rank and
 * charges host -> PIM broadcasts for the ones that are not.
 *
 * Thread-safety: acquire() and the accessors are internally locked; the
 * InferenceSession's worker pool calls them concurrently.  Under
 * concurrent acquisition of a *tight* budget the eviction order depends
 * on arrival order — costs may differ run to run — but functional values
 * never do (the manager never touches them).
 */
class ResidencyManager
{
  public:
    /**
     * @p budgetBytesPerUnit overrides the backend memory profile's
     * per-unit LUT budget when non-zero.  @p numRanks mirrors the
     * session's logical ranks (each gets its own ledger).
     */
    ResidencyManager(BackendPtr backend, unsigned numRanks,
                     std::uint64_t budgetBytesPerUnit,
                     ResidencyPolicy policy);

    /** Per-unit MRAM byte budget each rank's ledger enforces. */
    std::uint64_t budgetBytesPerUnit() const { return budget_; }
    /** Logical ranks tracked (one ledger each). */
    unsigned numRanks() const;

    /**
     * Ensures the table set of @p plan (scoped by @p scope; @p instances
     * per-layer copies, e.g. one per transformer layer the owning
     * workload node aggregates) is resident on rank @p homeRank —
     * rank 0 by default; the scheduler passes its placement rank so
     * data-parallel replicas consume their own rank's budget — charging
     * a broadcast when it is not.  @p homeRank must be below numRanks().
     * With ResidencyPolicy::Disabled this returns a zero charge every
     * time (the pre-residency model: tables are neither charged nor
     * retained).
     */
    ResidencyCharge acquire(const GemmPlan& plan,
                            const std::string& scope = "",
                            double instances = 1.0,
                            unsigned homeRank = 0);

    /** Sharded counterpart: each shard's table set consumes its own
     * rank's budget; the broadcast moves every rank's tables (scatter
     * over the rank-parallel broadcast link, one launch). */
    ResidencyCharge acquire(const ShardPlan& plan,
                            const std::string& scope = "",
                            double instances = 1.0);

    /**
     * Ensures @p stream's KV-cache — @p layers layers of
     * @p bytesPerTokenPerLayer raw bytes per token, covering
     * @p contextTokens tokens — is resident on rank @p rank (below
     * numRanks()), charging
     * the host -> PIM write of the newly appended tokens (and, when the
     * stream had been spilled, the refill of its whole context).  The
     * context is monotone: a decode step grows it by one token; an
     * unchanged, resident context is a free hit.  Under pressure other
     * streams' KV or LUT table sets are evicted cost-aware (see the
     * file comment); when the stream's KV alone exceeds the rank
     * budget, the stream is shed (state released, KvCharge::shed set).
     * With ResidencyPolicy::Disabled this returns a zero charge and
     * tracks nothing.
     */
    KvCharge acquireKv(std::uint64_t stream, unsigned rank,
                       unsigned layers,
                       std::uint64_t bytesPerTokenPerLayer,
                       std::uint64_t contextTokens);

    /** Drops @p stream's KV state (the stream finished or was shed);
     * discarding KV is free — nothing transfers. */
    void releaseKv(std::uint64_t stream);

    /** True when @p key's (stream, layer) KV slice is MRAM-resident
     * (always false under ResidencyPolicy::Disabled). */
    bool kvResident(const KvCacheKey& key) const;

    /** A consistent copy of the hit/miss/eviction counters. */
    ResidencyStats stats() const;

    /**
     * True when @p key's table set is currently MRAM-resident (always
     * false under ResidencyPolicy::Disabled).  Const and side-effect
     * free: no use is counted, nothing is charged — the query the
     * scheduler's cold-start-aware placement runs per candidate rank.
     */
    bool isResident(const TableSetKey& key) const;

    /**
     * The modeled host -> PIM broadcast seconds of moving @p bytes of
     * tables: one launch plus the bytes over the rank-parallel
     * broadcast link.  Every miss is charged exactly this, and the
     * scheduler's cold-start projection calls it per candidate rank.
     */
    double broadcastSeconds(std::uint64_t bytes) const;

    /** Per-unit bytes currently resident on @p rank across both
     * resource classes (lutBytes + kvBytes; the budget invariant is
     * residentBytes(rank) <= budgetBytesPerUnit() for every rank). */
    std::uint64_t residentBytes(unsigned rank) const;

    /** Per-unit bytes of LUT table sets resident on @p rank. */
    std::uint64_t lutBytes(unsigned rank) const;

    /** Per-unit footprint of KV-cache state resident on @p rank (raw
     * stream bytes are interleaved across the rank's units, so each
     * stream occupies ceil(raw / unitsPerRank) here). */
    std::uint64_t kvBytes(unsigned rank) const;

    /** Drops all residency (a device reset).  Counters and per-set
     * history survive, so post-reset misses on previously-broadcast
     * sets still count as re-broadcasts. */
    void clear();

    /** What invalidateRank() dropped or displaced. */
    struct RankLoss {
        std::uint64_t lutSetsDropped = 0;  ///< table sets losing residency
        std::uint64_t lutBytesDropped = 0; ///< per-unit LUT bytes freed
        /** KV streams homed on the lost rank, now displaced: their next
         * acquireKv() may name a survivor rank and pays a full refill
         * there (or sheds when no survivor has budget). */
        std::vector<std::uint64_t> displacedStreams;
    };

    /**
     * Invalidates everything resident on @p rank after it died:
     * every table set with bytes there loses residency whole (its next
     * acquire() re-broadcasts, charged as usual), and every KV stream
     * homed there becomes non-resident and *displaced* — the one case
     * acquireKv() accepts a changed rank, charging the survivor a full
     * context refill.  Wired as a FaultInjector rank-loss listener by
     * the session.  No-op under ResidencyPolicy::Disabled.
     */
    RankLoss invalidateRank(unsigned rank);

  private:
    struct TableSet {
        /** (rank, per-copy bytes x instances) this set occupies. */
        std::vector<std::pair<unsigned, std::uint64_t>> rankBytes;
        double broadcastBytes = 0;   ///< rebroadcast size
        double broadcastSeconds = 0; ///< rebroadcast cost (the score input)
        double broadcastJoules = 0;
        std::uint64_t uses = 0;      ///< touches while resident (reuse)
        std::uint64_t lastUse = 0;   ///< logical clock (tie-break)
        std::uint64_t admitOrder = 0;///< deterministic tie-break
        bool resident = false;
        bool everResident = false;   ///< a later miss is a re-broadcast
    };

    /** One stream's ganged KV state (all layers live and die together). */
    struct KvEntry {
        unsigned rank = 0;            ///< home rank of the stream's KV
        unsigned layers = 1;          ///< layers ganged in this entry
        std::uint64_t bytesPerTokenPerLayer = 0; ///< raw bytes per token
        std::uint64_t tokens = 0;     ///< context tokens tracked
        bool resident = false;        ///< false = spilled to host
        /** Home rank died: the next acquireKv() may re-home the stream
         * to a different rank at full-refill cost. */
        bool displaced = false;
        std::uint64_t lastUse = 0;    ///< logical clock (tie-break)
        std::uint64_t admitOrder = 0; ///< deterministic tie-break

        /** Raw bytes of the whole context across all layers. */
        std::uint64_t rawBytes() const
        {
            return layers * bytesPerTokenPerLayer * tokens;
        }
    };

    /** KV spill traffic one admission forced (folded into its charge). */
    struct SpillCost {
        double bytes = 0;   ///< raw PIM -> host bytes written back
        double seconds = 0; ///< modeled writeback seconds
        double joules = 0;  ///< modeled writeback Joules
    };

    ResidencyCharge acquireLocked(TableSetKey key,
                                  std::vector<std::pair<unsigned,
                                                        std::uint64_t>>
                                      rankBytes,
                                  SpillCost& spill);
    bool makeRoomLocked(const TableSet& incoming, SpillCost& spill);
    /**
     * Frees rank capacity until @p needed more per-unit bytes fit on
     * @p rank, evicting the cheapest victim across both classes each
     * round (@p keepSet / @p keepStream are never victims); KV spill
     * traffic accumulates into @p spill.  False only when nothing
     * evictable remains.
     */
    bool makeRoomOnRankLocked(unsigned rank, std::uint64_t needed,
                              const TableSet* keepSet,
                              std::uint64_t keepStream, SpillCost& spill);
    void evictLocked(TableSet& victim);
    void spillLocked(KvEntry& victim, SpillCost& spill);
    double scoreLocked(const TableSet& set) const;
    /** The spill + refill round trip a victim stream's next decode
     * step would pay. */
    double scoreKvLocked(const KvEntry& entry) const;
    /** Per-unit footprint of @p rawBytes interleaved across a rank. */
    std::uint64_t kvFootprint(std::uint64_t rawBytes) const;
    /** Modeled seconds of moving @p rawBytes of KV over the host link. */
    double kvTransferSeconds(double rawBytes) const;

    BackendPtr backend_;
    MemoryProfile profile_;
    std::uint64_t budget_ = 0; ///< per-unit bytes each rank may hold
    ResidencyPolicy policy_;

    mutable std::mutex mutex_;
    std::unordered_map<TableSetKey, TableSet, TableSetKeyHash> sets_;
    std::unordered_map<std::uint64_t, KvEntry> kvStreams_;
    std::vector<std::uint64_t> residentBytes_; ///< per-rank LUT ledgers
    std::vector<std::uint64_t> kvFootprint_;   ///< per-rank KV ledgers
    std::uint64_t clock_ = 0;
    std::uint64_t admissions_ = 0;
    ResidencyStats stats_;
};

} // namespace localut

#endif // LOCALUT_SERVING_RESIDENCY_H_
