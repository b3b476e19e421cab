#include "serving/plan_cache.h"

#include "common/hash.h"
#include "common/lru.h"

namespace localut {

PlanKey
PlanKey::of(const Backend& backend, const GemmProblem& problem,
            DesignPoint design, const PlanOverrides& overrides,
            const ShardSpec& shard)
{
    PlanKey key;
    key.m = problem.m();
    key.k = problem.k();
    key.n = problem.n();
    key.config = problem.config();
    key.design = design;
    key.overrides = overrides;
    key.shard = shard;
    key.backend = backend.name();
    key.fingerprint = backend.configFingerprint();
    return key;
}

std::size_t
PlanKeyHash::operator()(const PlanKey& key) const
{
    std::size_t seed = 0;
    hashCombine(seed, key.m);
    hashCombine(seed, key.k);
    hashCombine(seed, key.n);
    hashCombine(seed,
                static_cast<std::size_t>(key.config.weightCodec.kind()));
    hashCombine(seed, key.config.weightCodec.bits());
    hashCombine(seed,
                static_cast<std::size_t>(key.config.actCodec.kind()));
    hashCombine(seed, key.config.actCodec.bits());
    hashCombine(seed, static_cast<std::size_t>(key.design));
    hashCombine(seed, key.overrides.p);
    hashCombine(seed, key.overrides.kSlices);
    hashCombine(seed, static_cast<std::size_t>(key.overrides.streaming + 1));
    hashCombine(seed, key.overrides.gM);
    hashCombine(seed, key.overrides.gN);
    hashCombine(seed, key.shard.numRanks);
    hashCombine(seed, static_cast<std::size_t>(key.shard.strategy));
    hashCombine(seed, key.shard.align);
    hashCombine(seed, std::hash<std::string>{}(key.backend));
    hashCombine(seed, static_cast<std::size_t>(key.fingerprint));
    return seed;
}

GemmPlan
PlanCache::planForCounted(const Backend& backend,
                          const GemmProblem& problem, DesignPoint design,
                          const PlanOverrides& overrides,
                          std::uint64_t& hits, std::uint64_t& misses)
{
    const PlanKey key = PlanKey::of(backend, problem, design, overrides);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = plans_.find(key);
        if (it != plans_.end()) {
            ++hits;
            return it->second;
        }
    }
    // Plan outside the lock: planning is the expensive part, and two
    // threads racing on the same key deterministically produce the same
    // plan, so last-insert-wins is harmless.
    const GemmPlan plan = backend.plan(problem, design, overrides);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++misses;
        plans_.insert_or_assign(key, plan);
    }
    return plan;
}

GemmPlan
PlanCache::planFor(const Backend& backend, const GemmProblem& problem,
                   DesignPoint design, const PlanOverrides& overrides)
{
    return planForCounted(backend, problem, design, overrides, hits_,
                          misses_);
}

GemmPlan
PlanCache::shardSubPlanFor(const Backend& backend,
                           const GemmProblem& problem, DesignPoint design,
                           const PlanOverrides& overrides)
{
    return planForCounted(backend, problem, design, overrides, shardHits_,
                          shardMisses_);
}

ShardPlan
PlanCache::shardPlanFor(const Backend& backend, const GemmProblem& problem,
                        DesignPoint design, const ShardSpec& spec,
                        const PlanOverrides& overrides)
{
    const PlanKey key =
        PlanKey::of(backend, problem, design, overrides, spec);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = shardPlans_.find(key);
        if (it != shardPlans_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Cut and plan outside the lock (makeShardPlan re-enters this cache
    // for the per-shard sub-plans); racing threads produce the same
    // ShardPlan deterministically, so last-insert-wins is harmless.
    const ShardPlan plan =
        makeShardPlan(backend, problem, design, spec, overrides, this);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++misses_;
        shardPlans_.insert_or_assign(key, plan);
    }
    return plan;
}

std::size_t
PlanCache::PreparedKeyHash::operator()(const PreparedKey& key) const
{
    std::size_t seed = PlanKeyHash{}(key.plan);
    hashCombine(seed, static_cast<std::size_t>(key.weights));
    return seed;
}

std::shared_ptr<const PreparedGemm>
PlanCache::preparedFor(const Backend& backend, const GemmProblem& problem,
                       const GemmPlan& plan,
                       const PlanOverrides& overrides)
{
    PreparedKey key;
    key.plan = PlanKey::of(backend, problem, plan.design, overrides);
    key.weights = weightsFingerprint(problem.w);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = prepared_.find(key);
        // The plan-resolution check guards callers that pass hand-built
        // plans (overrides outside the key): a cached operand only
        // serves executions it actually fits.
        if (it != prepared_.end() &&
            it->second.prepared->matches(problem, plan)) {
            ++preparedHits_;
            it->second.lastUse = ++preparedClock_;
            return it->second.prepared;
        }
    }
    // Build outside the lock (packing + tables are the expensive part);
    // racing threads build identical operands, last-insert-wins.
    std::shared_ptr<const PreparedGemm> prepared =
        prepareGemm(problem, plan);
    const std::uint64_t bytes = prepared->bytes();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++preparedMisses_;
        // An operand larger than the whole budget would only flush
        // everything else and then be evicted itself: serve, don't keep.
        if (bytes <= maxPreparedBytes_) {
            auto [it, inserted] = prepared_.try_emplace(key);
            if (!inserted) {
                preparedBytes_ -= it->second.prepared->bytes();
            }
            it->second = PreparedEntry{prepared, ++preparedClock_};
            preparedBytes_ += bytes;
            evictPreparedLocked();
        }
    }
    return prepared;
}

std::shared_ptr<const PreparedGemm>
PlanCache::operandFor(const Backend& backend, const GemmProblem& problem,
                      const GemmPlan& plan, bool computeValues,
                      const PlanOverrides& overrides)
{
    if (!computeValues || backend.capabilities().referenceFunctionalOnly ||
        problem.w.codes.empty()) {
        return nullptr;
    }
    return preparedFor(backend, problem, plan, overrides);
}

void
PlanCache::evictPreparedLocked()
{
    // The newest entry fits the budget on its own and carries the
    // highest stamp, so it is never the victim.
    while (!prepared_.empty() && preparedBytes_ > maxPreparedBytes_) {
        const PreparedEntry victim = takeLeastRecentlyUsed(prepared_);
        preparedBytes_ -= victim.prepared->bytes();
    }
}

void
PlanCache::setMaxPreparedBytes(std::uint64_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    maxPreparedBytes_ = maxBytes;
    evictPreparedLocked();
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.shardHits = shardHits_;
    s.shardMisses = shardMisses_;
    s.preparedHits = preparedHits_;
    s.preparedMisses = preparedMisses_;
    s.entries = plans_.size() + shardPlans_.size();
    s.preparedEntries = prepared_.size();
    s.preparedBytes = preparedBytes_;
    return s;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return plans_.size() + shardPlans_.size();
}

void
PlanCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    plans_.clear();
    shardPlans_.clear();
    prepared_.clear();
    preparedBytes_ = 0;
}

void
PlanCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mutex_);
    hits_ = 0;
    misses_ = 0;
    shardHits_ = 0;
    shardMisses_ = 0;
    preparedHits_ = 0;
    preparedMisses_ = 0;
}

} // namespace localut
