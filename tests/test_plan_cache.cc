/**
 * @file
 * PlanCache tests: a second plan() with an identical key returns the
 * cached plan (hit counter increments), while any key-field change — the
 * shape, the quantization config, the design point, the overrides, the
 * shard configuration, or the backend — misses.  Prepared operands stay
 * under a byte budget, least recently used first, with a running byte
 * total that matches the kept operands, and operandFor() serves them
 * only to value-computing executions on LUT backends.  The concurrency
 * stress tests hammer a shared cache (and a shared session) from many
 * threads; run them under -fsanitize=thread locally to verify lock
 * discipline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "backend/backend.h"
#include "backend/upmem_backend.h"
#include "nn/inference.h"
#include "serving/plan_cache.h"
#include "serving/session.h"

namespace localut {
namespace {

/** Field-by-field plan equality (GemmPlan has no operator==). */
void
expectSamePlan(const GemmPlan& a, const GemmPlan& b)
{
    EXPECT_EQ(a.design, b.design);
    EXPECT_EQ(a.p, b.p);
    EXPECT_EQ(a.kSlices, b.kSlices);
    EXPECT_EQ(a.streaming, b.streaming);
    EXPECT_EQ(a.gM, b.gM);
    EXPECT_EQ(a.gN, b.gN);
    EXPECT_EQ(a.tileM, b.tileM);
    EXPECT_EQ(a.tileN, b.tileN);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_DOUBLE_EQ(a.predictedSeconds, b.predictedSeconds);
    EXPECT_EQ(a.lutWramBytes, b.lutWramBytes);
    EXPECT_EQ(a.lutMramBytes, b.lutMramBytes);
}

TEST(PlanCache, SecondIdenticalLookupHits)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const GemmProblem problem = makeShapeOnlyProblem(
        768, 768, 32, QuantConfig::preset("W1A3"));

    const GemmPlan first =
        cache.planFor(*backend, problem, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    const GemmPlan second =
        cache.planFor(*backend, problem, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    expectSamePlan(first, second);

    // The cached plan is what the backend would have planned.
    expectSamePlan(second, backend->plan(problem, DesignPoint::LoCaLut));
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(PlanCache, EveryKeyFieldDiscriminates)
{
    const BackendPtr upmem = makeBackend("upmem");
    const BackendPtr host = makeBackend("host-cpu");
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    const GemmProblem base = makeShapeOnlyProblem(768, 768, 32, cfg);

    cache.planFor(*upmem, base, DesignPoint::LoCaLut);

    // Different shape.
    cache.planFor(*upmem, makeShapeOnlyProblem(768, 768, 64, cfg),
                  DesignPoint::LoCaLut);
    // Different quantization config.
    cache.planFor(*upmem,
                  makeShapeOnlyProblem(768, 768, 32,
                                       QuantConfig::preset("W4A4")),
                  DesignPoint::LoCaLut);
    // Different design point.
    cache.planFor(*upmem, base, DesignPoint::OpLut);
    // Different overrides.
    PlanOverrides forced;
    forced.p = 2;
    cache.planFor(*upmem, base, DesignPoint::LoCaLut, forced);
    // Different backend, same everything else.
    cache.planFor(*host, base, DesignPoint::LoCaLut);

    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 6u);
    EXPECT_EQ(cache.stats().entries, 6u);

    // And each of them hits on re-lookup.
    cache.planFor(*upmem, base, DesignPoint::LoCaLut, forced);
    cache.planFor(*host, base, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PlanCache, ClearDropsEntriesAndResetStatsZeroesCounters)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const GemmProblem problem = makeShapeOnlyProblem(
        256, 256, 16, QuantConfig::preset("W2A2"));

    cache.planFor(*backend, problem, DesignPoint::LoCaLut);
    cache.planFor(*backend, problem, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 1u); // counters survive clear()

    cache.resetStats();
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);

    cache.planFor(*backend, problem, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PlanCache, SameNameDifferentConfigDoesNotAlias)
{
    // Two backends named "upmem" with different device configurations
    // must not share plans: the config fingerprint is part of the key.
    PimSystemConfig small = PimSystemConfig::upmemServer();
    small.ranks = 2;
    const UpmemBackend server;
    const UpmemBackend tiny(small);

    PlanCache cache;
    const GemmProblem problem = makeShapeOnlyProblem(
        768, 768, 128, QuantConfig::preset("W1A3"));
    const GemmPlan serverPlan =
        cache.planFor(server, problem, DesignPoint::LoCaLut);
    const GemmPlan tinyPlan =
        cache.planFor(tiny, problem, DesignPoint::LoCaLut);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_LE(tinyPlan.dpusUsed(), small.totalDpus());
    EXPECT_GT(serverPlan.dpusUsed(), small.totalDpus());
}

TEST(PlanCache, ShardedLookupCountsOneLogicalGemmNotNRankHits)
{
    // One sharded lookup is ONE logical GEMM.  A 4-rank column cut of
    // M = 256 produces four equal 64-row slices that share a single
    // sub-plan key, so the cold cut is 1 logical miss + 1 shard miss +
    // 3 shard hits — the per-shard reuse must not inflate the logical
    // hit counters (the pre-split accounting reported it as 3 hits).
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const GemmProblem problem = makeShapeOnlyProblem(
        256, 256, 16, QuantConfig::preset("W1A3"));
    ShardSpec spec;
    spec.numRanks = 4;

    const ShardPlan plan =
        cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, spec);
    ASSERT_EQ(plan.shards.size(), 4u);
    PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.shardMisses, 1u);
    EXPECT_EQ(stats.shardHits, 3u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.0);
    EXPECT_DOUBLE_EQ(stats.shardHitRate(), 0.75);

    // A warm logical lookup is one logical hit; no shard traffic at all.
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, spec);
    stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.shardHits, 3u);
    EXPECT_EQ(stats.shardMisses, 1u);
}

TEST(PlanCache, ShardConfigIsPartOfTheKey)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const GemmProblem problem = makeShapeOnlyProblem(
        256, 256, 16, QuantConfig::preset("W1A3"));

    ShardSpec two;
    two.numRanks = 2;
    ShardSpec four;
    four.numRanks = 4;
    ShardSpec fourAligned = four;
    fourAligned.align = 64;

    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, two);
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, four);
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut,
                       fourAligned);
    const auto cold = cache.stats();

    // Re-lookups of each distinct shard config hit.
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut, two);
    cache.shardPlanFor(*backend, problem, DesignPoint::LoCaLut,
                       fourAligned);
    EXPECT_EQ(cache.stats().misses, cold.misses);
    EXPECT_EQ(cache.stats().hits, cold.hits + 2);
}

/** Small W1A4 problems of one shape, distinct weights per seed. */
std::vector<GemmProblem>
distinctWeightProblems(std::size_t count)
{
    std::vector<GemmProblem> problems;
    problems.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        problems.push_back(makeRandomProblem(
            16, 32, 2, QuantConfig::preset("W1A4"), 500 + i));
    }
    return problems;
}

TEST(PlanCache, CyclicWorkingSetUnderBudgetHitsEveryLookup)
{
    // A sharded decode step revisits its operands (288 for a 4-rank
    // OPT-125M step) in the same order every step, and an LRU holding
    // fewer than the cycle misses every lookup.  160 small operands sit
    // far under the byte budget, so the second sweep must hit every
    // time.
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const std::vector<GemmProblem> problems = distinctWeightProblems(160);
    const GemmPlan plan =
        cache.planFor(*backend, problems[0], DesignPoint::LoCaLut);

    for (const GemmProblem& problem : problems) {
        cache.preparedFor(*backend, problem, plan);
    }
    const PlanCache::Stats cold = cache.stats();
    EXPECT_EQ(cold.preparedMisses, problems.size());
    EXPECT_EQ(cold.preparedEntries, problems.size());
    EXPECT_LE(cold.preparedBytes, PlanCache::kDefaultMaxPreparedBytes);

    for (const GemmProblem& problem : problems) {
        const std::uint64_t hitsBefore = cache.stats().preparedHits;
        cache.preparedFor(*backend, problem, plan);
        EXPECT_EQ(cache.stats().preparedHits, hitsBefore + 1);
    }
    EXPECT_EQ(cache.stats().preparedMisses, cold.preparedMisses);
}

TEST(PlanCache, PreparedBudgetEvictsLeastRecentlyUsedBytesFirst)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const std::vector<GemmProblem> problems = distinctWeightProblems(4);
    const GemmPlan plan =
        cache.planFor(*backend, problems[0], DesignPoint::LoCaLut);
    const std::uint64_t each = prepareGemm(problems[0], plan)->bytes();
    ASSERT_GT(each, 0u);
    // Room for three same-shaped operands, not four.
    const std::uint64_t budget = 3 * each + each / 2;
    cache.setMaxPreparedBytes(budget);

    auto lookupHits = [&](std::size_t which) {
        const std::uint64_t hits = cache.stats().preparedHits;
        cache.preparedFor(*backend, problems[which], plan);
        EXPECT_LE(cache.stats().preparedBytes, budget);
        return cache.stats().preparedHits == hits + 1;
    };

    EXPECT_FALSE(lookupHits(0));
    EXPECT_FALSE(lookupHits(1));
    EXPECT_FALSE(lookupHits(2));
    EXPECT_TRUE(lookupHits(0)); // 1 is now the least recently used
    EXPECT_FALSE(lookupHits(3)); // evicts 1
    EXPECT_EQ(cache.stats().preparedEntries, 3u);
    EXPECT_EQ(cache.stats().preparedBytes, 3 * each);
    EXPECT_TRUE(lookupHits(0));
    EXPECT_TRUE(lookupHits(2));
    EXPECT_TRUE(lookupHits(3));
    EXPECT_FALSE(lookupHits(1));

    // Shrinking the budget evicts at once, oldest first: 1 is the most
    // recently used and stays.
    cache.setMaxPreparedBytes(each);
    EXPECT_EQ(cache.stats().preparedEntries, 1u);
    EXPECT_EQ(cache.stats().preparedBytes, each);
    EXPECT_TRUE(lookupHits(1));
}

TEST(PlanCache, OversizedOperandIsServedButNotKept)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    const GemmProblem small = makeRandomProblem(16, 32, 2, cfg, 7);
    const GemmProblem big = makeRandomProblem(256, 256, 4, cfg, 8);
    const GemmPlan smallPlan =
        cache.planFor(*backend, small, DesignPoint::LoCaLut);
    const GemmPlan bigPlan =
        cache.planFor(*backend, big, DesignPoint::LoCaLut);
    const std::uint64_t smallBytes = prepareGemm(small, smallPlan)->bytes();
    const std::uint64_t bigBytes = prepareGemm(big, bigPlan)->bytes();
    ASSERT_LT(2 * smallBytes, bigBytes);
    cache.setMaxPreparedBytes(2 * smallBytes);

    cache.preparedFor(*backend, small, smallPlan);
    const auto prepared = cache.preparedFor(*backend, big, bigPlan);
    ASSERT_NE(prepared, nullptr);
    EXPECT_TRUE(prepared->matches(big, bigPlan));
    ExecOptions options;
    options.prepared = prepared.get();
    EXPECT_EQ(backend->execute(big, bigPlan, options).outInt,
              referenceGemmInt(big.w, big.a));

    // Not kept, and it did not flush the operand that fits.
    PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.preparedEntries, 1u);
    EXPECT_EQ(stats.preparedBytes, smallBytes);
    cache.preparedFor(*backend, big, bigPlan);
    cache.preparedFor(*backend, small, smallPlan);
    stats = cache.stats();
    EXPECT_EQ(stats.preparedMisses, 3u);
    EXPECT_EQ(stats.preparedHits, 1u);
}

TEST(PlanCache, PreparedBytesTrackKeptOperandsThroughEvictionAndClear)
{
    // Mixed operand sizes against a byte-LRU model: after every insert
    // the running total is the sum of bytes() over exactly the
    // operands the model keeps.
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    struct Operand {
        GemmProblem problem;
        GemmPlan plan;
        std::uint64_t bytes = 0;
    };
    std::vector<Operand> operands;
    for (unsigned i = 0; i < 12; ++i) {
        GemmProblem problem = makeRandomProblem(
            16 + 24 * (i % 4), 32 + 32 * (i % 3), 2, cfg, 900 + i);
        const GemmPlan plan =
            cache.planFor(*backend, problem, DesignPoint::LoCaLut);
        const std::uint64_t bytes = prepareGemm(problem, plan)->bytes();
        operands.push_back({std::move(problem), plan, bytes});
    }
    std::uint64_t largest = 0;
    for (const Operand& op : operands) {
        largest = std::max(largest, op.bytes);
    }
    const std::uint64_t budget = 3 * largest;
    cache.setMaxPreparedBytes(budget);

    std::vector<std::size_t> model; // least recently used first
    auto modelBytes = [&] {
        std::uint64_t total = 0;
        for (const std::size_t i : model) {
            total += operands[i].bytes;
        }
        return total;
    };
    for (unsigned round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < operands.size(); ++i) {
            const std::size_t which = (i * 5 + round) % operands.size();
            cache.preparedFor(*backend, operands[which].problem,
                              operands[which].plan);
            std::erase(model, which);
            model.push_back(which);
            while (modelBytes() > budget) {
                model.erase(model.begin());
            }
            const PlanCache::Stats stats = cache.stats();
            EXPECT_EQ(stats.preparedBytes, modelBytes());
            EXPECT_EQ(stats.preparedEntries, model.size());
            EXPECT_LE(stats.preparedBytes, budget);
        }
    }

    cache.clear();
    EXPECT_EQ(cache.stats().preparedBytes, 0u);
    EXPECT_EQ(cache.stats().preparedEntries, 0u);
    const auto rebuilt = cache.preparedFor(*backend, operands[0].problem,
                                           operands[0].plan);
    EXPECT_EQ(cache.stats().preparedBytes, rebuilt->bytes());
}

TEST(PlanCache, OperandForServesOnlyValueExecutionsOnLutBackends)
{
    // The one "does this execution get a prepared operand" decision:
    // none for the reference-only host backend, for a pass that
    // computes no values, or for shape-only weights — and those
    // lookups touch no counter.  Otherwise it is preparedFor().
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    const GemmProblem problem = makeRandomProblem(16, 32, 2, cfg, 11);
    const GemmProblem shapeOnly = makeShapeOnlyProblem(16, 32, 2, cfg);
    const BackendPtr host = makeBackend("host-cpu");
    const BackendPtr upmem = makeBackend("upmem");
    const GemmPlan hostPlan =
        cache.planFor(*host, problem, DesignPoint::LoCaLut);
    const GemmPlan plan =
        cache.planFor(*upmem, problem, DesignPoint::LoCaLut);
    auto lookups = [&] {
        const PlanCache::Stats stats = cache.stats();
        return stats.preparedHits + stats.preparedMisses;
    };

    EXPECT_EQ(cache.operandFor(*host, problem, hostPlan, true), nullptr);
    EXPECT_EQ(cache.operandFor(*upmem, problem, plan, false), nullptr);
    EXPECT_EQ(cache.operandFor(*upmem, shapeOnly, plan, true), nullptr);
    EXPECT_EQ(lookups(), 0u);

    const auto first = cache.operandFor(*upmem, problem, plan, true);
    ASSERT_NE(first, nullptr);
    EXPECT_TRUE(first->matches(problem, plan));
    EXPECT_EQ(cache.stats().preparedMisses, 1u);
    EXPECT_EQ(cache.operandFor(*upmem, problem, plan, true), first);
    EXPECT_EQ(cache.stats().preparedHits, 1u);
    EXPECT_EQ(lookups(), 2u);
}

TEST(PlanCacheStress, ManyThreadsHammeringSharedShapes)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A3");
    // Six distinct keys (three shapes, sharded and unsharded).
    const std::size_t shapes[3][3] = {
        {96, 96, 8}, {192, 96, 8}, {96, 192, 16}};
    constexpr unsigned kThreads = 8;
    constexpr unsigned kIters = 120;

    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
            }
            for (unsigned i = 0; i < kIters; ++i) {
                const auto& s = shapes[(t + i) % 3];
                const GemmProblem problem =
                    makeShapeOnlyProblem(s[0], s[1], s[2], cfg);
                if ((t + i) % 2 == 0) {
                    cache.planFor(*backend, problem, DesignPoint::LoCaLut);
                } else {
                    ShardSpec spec;
                    spec.numRanks = 4;
                    cache.shardPlanFor(*backend, problem,
                                       DesignPoint::LoCaLut, spec);
                }
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }

    const PlanCache::Stats stats = cache.stats();
    // planFor() deliberately plans outside the lock, so concurrent
    // workers racing on a cold key may each count a miss — but never
    // more than one per (thread, key), and every other lookup hits.
    // Logical lookups count exactly the top-level calls; per-shard
    // sub-plan traffic lands in the separate shard counters.
    EXPECT_EQ(stats.hits + stats.misses, kThreads * kIters);
    const std::uint64_t logicalKeys = 3 /*plain*/ + 3 /*sharded*/;
    EXPECT_LE(stats.misses, kThreads * logicalKeys);
    // Each sharded shape cuts into equal slices, so it adds at most one
    // slice sub-plan key; sub-plan lookups happen only on cold cuts
    // (at most one per thread per sharded shape, 4 slice lookups each).
    EXPECT_LE(stats.shardMisses, kThreads * 3);
    EXPECT_LE(stats.shardHits + stats.shardMisses, 4 * kThreads * 3);
    const std::uint64_t distinctKeys = logicalKeys +
                                       3 /*shard slice sub-plans*/;
    EXPECT_GE(stats.entries, 6u);
    EXPECT_LE(stats.entries, distinctKeys);
    EXPECT_GT(stats.hits, 0u);
}

/**
 * Concurrent PreparedGemm cache stress (run under -fsanitize=thread to
 * verify lock discipline): many threads hammer preparedFor() on a
 * handful of shared problems while executing through the returned
 * operands; every execution stays bit-exact, eviction races are
 * harmless, and outstanding shared_ptrs survive eviction.
 */
TEST(PlanCacheStress, ConcurrentPreparedOperands)
{
    const BackendPtr backend = makeBackend("upmem");
    PlanCache cache;
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    constexpr unsigned kProblems = 4;
    std::vector<GemmProblem> problems;
    std::vector<GemmPlan> plans;
    std::vector<std::vector<std::int32_t>> references;
    std::uint64_t allBytes = 0;
    for (unsigned i = 0; i < kProblems; ++i) {
        problems.push_back(
            makeRandomProblem(24 + 8 * i, 48, 3 + i, cfg, 100 + i));
        plans.push_back(cache.planFor(*backend, problems[i],
                                      DesignPoint::LoCaLut));
        references.push_back(
            referenceGemmInt(problems[i].w, problems[i].a));
        allBytes += prepareGemm(problems[i], plans[i])->bytes();
    }
    // Any three operands fit, all four never do: eviction churn under
    // load.
    const std::uint64_t budget = allBytes - 1;
    cache.setMaxPreparedBytes(budget);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kIters = 40;
    std::atomic<bool> go{false};
    std::atomic<unsigned> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
            }
            for (unsigned i = 0; i < kIters; ++i) {
                const unsigned which = (t + i) % kProblems;
                const auto prepared = cache.preparedFor(
                    *backend, problems[which], plans[which]);
                ExecOptions options;
                options.prepared = prepared.get();
                const GemmResult result = backend->execute(
                    problems[which], plans[which], options);
                if (result.outInt != references[which]) {
                    mismatches.fetch_add(1);
                }
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(mismatches.load(), 0u);

    const PlanCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.preparedHits + stats.preparedMisses,
              kThreads * kIters);
    EXPECT_GT(stats.preparedHits, 0u);
    EXPECT_LE(stats.preparedEntries, 3u);
    EXPECT_GT(stats.preparedBytes, 0u);
    EXPECT_LE(stats.preparedBytes, budget);

    // clear() drops the operands; the next lookup rebuilds.
    cache.clear();
    EXPECT_EQ(cache.stats().preparedEntries, 0u);
    EXPECT_EQ(cache.stats().preparedBytes, 0u);
    const auto rebuilt =
        cache.preparedFor(*backend, problems[0], plans[0]);
    EXPECT_TRUE(rebuilt->matches(problems[0], plans[0]));
}

TEST(PlanCacheStress, SharedSessionCompileAndSubmit)
{
    SessionOptions options;
    options.numRanks = 2;
    InferenceSession session(makeBackend("upmem"), options);
    const TransformerConfig model = TransformerConfig::opt125m();
    const QuantConfig cfg = QuantConfig::preset("W4A4");

    constexpr unsigned kThreads = 6;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            while (!go.load()) {
            }
            for (unsigned i = 0; i < 8; ++i) {
                const auto workload = session.compile(
                    WorkloadSpec::decode(model, 8, 32, 1 + (t + i) % 3),
                    cfg, DesignPoint::LoCaLut);
                EXPECT_GT(session.run(workload).timing.total, 0.0);
            }
        });
    }
    go.store(true);
    for (std::thread& thread : threads) {
        thread.join();
    }
    session.drain();
    EXPECT_EQ(session.pendingRequests(), 0u);
    // All threads share three decode-step shard configs over four GEMM
    // shapes; after the cold misses everything hits.
    EXPECT_GT(session.planCacheStats().hitRate(), 0.5);
}

TEST(PlanKey, EqualityAndHashAgree)
{
    const BackendPtr backend = makeBackend("upmem");
    const GemmProblem problem = makeShapeOnlyProblem(
        64, 128, 8, QuantConfig::preset("W1A4"));
    const PlanKey a =
        PlanKey::of(*backend, problem, DesignPoint::LoCaLut, {});
    const PlanKey b =
        PlanKey::of(*backend, problem, DesignPoint::LoCaLut, {});
    EXPECT_EQ(a, b);
    EXPECT_EQ(PlanKeyHash{}(a), PlanKeyHash{}(b));

    PlanKey c = a;
    c.design = DesignPoint::OpLut;
    EXPECT_FALSE(a == c);
}

} // namespace
} // namespace localut
