/**
 * @file
 * The prepared-operand execution engine (kernels/exec_engine.h):
 *
 *  - prepared vs unprepared bit-exactness on every design point, int
 *    and float, serial and tile-parallel;
 *  - the zero-allocation steady state: with a prepared operand, a warm
 *    arena, and a warm output vector, executing a GEMM performs ZERO
 *    heap allocations — asserted with a counting global allocator;
 *  - ExecArena growth semantics, weight fingerprinting, the shared
 *    LUT table cache, and TilePool determinism/exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "kernels/exec_engine.h"
#include "kernels/functional.h"
#include "kernels/gemm.h"
#include "lut/table_cache.h"

// ------------------------------------------------- counting allocator
//
// Binary-wide operator new/delete replacement counting this thread's
// allocations.  Only deltas around a measured region are asserted, so
// gtest's own allocations elsewhere are harmless.

namespace {

thread_local std::uint64_t tlsAllocations = 0;

void*
countedAlloc(std::size_t size)
{
    ++tlsAllocations;
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

void*
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    ++tlsAllocations;
    const std::size_t alignment = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + alignment - 1) & ~(alignment - 1);
    if (void* p = std::aligned_alloc(alignment, rounded)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace localut {
namespace {

GemmPlan
syntheticPlan(const GemmProblem& problem, DesignPoint design, unsigned p,
              bool streaming = false, unsigned kSlices = 1)
{
    GemmPlan plan(design, problem.config());
    plan.m = problem.m();
    plan.k = problem.k();
    plan.n = problem.n();
    plan.p = p;
    plan.streaming = streaming;
    plan.kSlices = kSlices;
    plan.groups = static_cast<unsigned>(
        (plan.k + plan.p - 1) / std::size_t{plan.p});
    return plan;
}

TEST(ExecEngine, PreparedMatchesUnpreparedOnEveryDesignPoint)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(37, 53, 9, cfg, 7);
    const auto reference = referenceGemmInt(problem.w, problem.a);

    struct Case {
        DesignPoint design;
        unsigned p;
        bool streaming;
        unsigned kSlices;
    };
    const Case cases[] = {
        {DesignPoint::NaivePim, 1, false, 1},
        {DesignPoint::Ltc, 1, false, 1},
        {DesignPoint::OpLut, 2, false, 1},
        {DesignPoint::OpLutDram, 2, false, 1},
        {DesignPoint::OpLc, 2, false, 1},
        {DesignPoint::OpLcRc, 2, false, 1},
        {DesignPoint::LoCaLut, 2, false, 1},
        {DesignPoint::LoCaLut, 2, true, 4},
        {DesignPoint::LoCaLut, 3, true, 2},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(designPointName(c.design));
        const GemmPlan plan = syntheticPlan(problem, c.design, c.p,
                                            c.streaming, c.kSlices);
        std::vector<std::int32_t> unprepared;
        executeGemmInt(problem, plan, {}, unprepared);
        EXPECT_EQ(unprepared, reference);

        const auto prepared = prepareGemm(problem, plan);
        ExecOptions options;
        options.prepared = prepared.get();
        std::vector<std::int32_t> out;
        executeGemmInt(problem, plan, options, out);
        EXPECT_EQ(out, unprepared);

        // Tile-parallel execution is bit-identical too.
        TilePool pool(3);
        options.tiles = &pool;
        std::vector<std::int32_t> tiled;
        executeGemmInt(problem, plan, options, tiled);
        EXPECT_EQ(tiled, unprepared);
    }
}

TEST(ExecEngine, FloatPathsMatchLegacySemantics)
{
    const QuantConfig cfg = QuantConfig::fpPreset(1, 8);
    const GemmProblem problem = makeRandomProblem(21, 40, 5, cfg, 11);
    const auto reference = referenceGemmFloat(problem.w, problem.a);

    // The naive float path replicates the reference exactly.
    {
        const GemmPlan plan =
            syntheticPlan(problem, DesignPoint::NaivePim, 1);
        std::vector<float> out;
        executeGemmFloat(problem, plan, {}, out);
        EXPECT_EQ(out, reference);
    }
    // Prepared == unprepared bit-for-bit on the LUT float paths
    // (including the batched slice-stream accumulation order).
    for (bool streaming : {false, true}) {
        const GemmPlan plan = syntheticPlan(
            problem, DesignPoint::LoCaLut, 2, streaming, 4);
        std::vector<float> unprepared;
        executeGemmFloat(problem, plan, {}, unprepared);

        const auto prepared = prepareGemm(problem, plan);
        ExecOptions options;
        options.prepared = prepared.get();
        TilePool pool(2);
        options.tiles = &pool;
        std::vector<float> out;
        executeGemmFloat(problem, plan, options, out);
        EXPECT_EQ(out, unprepared);
    }
}

TEST(ExecEngine, SteadyStateExecutionPerformsZeroAllocations)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(64, 96, 12, cfg, 3);
    const GemmPlan plan =
        syntheticPlan(problem, DesignPoint::LoCaLut, 2, true, 4);
    const auto prepared = prepareGemm(problem, plan);

    ExecArena arena;
    ExecOptions options;
    options.prepared = prepared.get();
    options.arena = &arena;

    // Warm-up: grows the arena buffers and the output vector.
    std::vector<std::int32_t> out;
    executeGemmInt(problem, plan, options, out);
    const auto reference = out;
    const std::uint64_t grownBuffers = arena.allocations();
    EXPECT_GT(grownBuffers, 0u);

    // Steady state: repeated execution allocates NOTHING — no arena
    // growth and zero operator-new calls on this thread.
    for (int i = 0; i < 3; ++i) {
        const std::uint64_t before = tlsAllocations;
        executeGemmInt(problem, plan, options, out);
        EXPECT_EQ(tlsAllocations - before, 0u) << "iteration " << i;
    }
    EXPECT_EQ(arena.allocations(), grownBuffers);
    EXPECT_EQ(out, reference);
}

TEST(ExecEngine, ArenaBuffersGrowButNeverShrink)
{
    ExecArena arena;
    std::int32_t* big = arena.i32(0, 1000);
    ASSERT_NE(big, nullptr);
    const std::uint64_t allocs = arena.allocations();
    const std::uint64_t reserved = arena.bytesReserved();
    // Smaller and equal requests reuse the buffer.
    EXPECT_EQ(arena.i32(0, 10), big);
    EXPECT_EQ(arena.i32(0, 1000), big);
    EXPECT_EQ(arena.allocations(), allocs);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    // A different slot is a different buffer.
    EXPECT_NE(arena.i32(1, 10), big);
    // Growth allocates once and keeps the larger capacity.
    arena.i32(0, 100000);
    const std::uint64_t grown = arena.allocations();
    arena.i32(0, 50000);
    EXPECT_EQ(arena.allocations(), grown);
}

TEST(ExecEngine, WeightFingerprintSeparatesContent)
{
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem a = makeRandomProblem(16, 24, 4, cfg, 1);
    const GemmProblem b = makeRandomProblem(16, 24, 4, cfg, 2);
    EXPECT_EQ(weightsFingerprint(a.w), weightsFingerprint(a.w));
    EXPECT_NE(weightsFingerprint(a.w), weightsFingerprint(b.w));

    // One flipped code flips the fingerprint.
    GemmProblem c = a;
    c.w.codes[5] = static_cast<std::uint16_t>(c.w.codes[5] ^ 1u);
    EXPECT_NE(weightsFingerprint(a.w), weightsFingerprint(c.w));

    // The codes are hashed as 64-bit words (four codes) dealt across
    // four lanes, plus a tail of fewer than four codes.  Counts 1..40
    // cover empty, partial and full lane rounds with every tail length;
    // every code of each must reach the hash.
    std::vector<std::uint64_t> byCount;
    for (std::size_t count = 1; count <= 40; ++count) {
        const QuantizedMatrix w =
            makeRandomProblem(1, count, 1, cfg, 100 + count).w;
        const std::uint64_t base = weightsFingerprint(w);
        byCount.push_back(base);
        for (std::size_t i = 0; i < count; ++i) {
            QuantizedMatrix flipped = w;
            flipped.codes[i] = static_cast<std::uint16_t>(
                flipped.codes[i] ^ 1u);
            EXPECT_NE(weightsFingerprint(flipped), base)
                << "count " << count << ", code " << i;
        }
    }
    std::sort(byCount.begin(), byCount.end());
    EXPECT_EQ(std::adjacent_find(byCount.begin(), byCount.end()),
              byCount.end());

    // A 16x5 matrix (80 codes, five full lane rounds): every position.
    const QuantizedMatrix w = makeRandomProblem(16, 5, 1, cfg, 3).w;
    const std::uint64_t base = weightsFingerprint(w);
    for (std::size_t i = 0; i < w.codes.size(); ++i) {
        QuantizedMatrix flipped = w;
        flipped.codes[i] = static_cast<std::uint16_t>(flipped.codes[i] ^ 1u);
        EXPECT_NE(weightsFingerprint(flipped), base) << "code " << i;
    }

    // Swapping two distinct words in different lanes (word 1 feeds lane
    // 1, word 6 lane 2) moves content, not the multiset of words.
    QuantizedMatrix swapped = w;
    std::swap_ranges(swapped.codes.begin() + 4, swapped.codes.begin() + 8,
                     swapped.codes.begin() + 24);
    ASSERT_NE(swapped.codes, w.codes);
    EXPECT_NE(weightsFingerprint(swapped), base);

    // The header is hashed too: same codes, transposed shape or another
    // codec, hash differently.
    QuantizedMatrix transposed = w;
    std::swap(transposed.rows, transposed.cols);
    EXPECT_NE(weightsFingerprint(transposed), base);
    QuantizedMatrix recoded = w;
    recoded.codec = ValueCodec::unsignedInt(w.codec.bits());
    ASSERT_NE(recoded.codec, w.codec);
    EXPECT_NE(weightsFingerprint(recoded), base);

    // Equal content in a separate object hashes equal.
    QuantizedMatrix copy;
    copy.rows = w.rows;
    copy.cols = w.cols;
    copy.codec = w.codec;
    copy.codes.assign(w.codes.begin(), w.codes.end());
    EXPECT_EQ(weightsFingerprint(copy), base);
}

TEST(ExecEngine, TableCacheSharesTablesAcrossPreparations)
{
    LutTableCache cache(8);
    const LutShape shape(QuantConfig::preset("W2A2"), 2);
    const auto first = cache.canonicalLut(shape);
    const auto second = cache.canonicalLut(shape);
    EXPECT_EQ(first.get(), second.get());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);

    // Eviction keeps the cache bounded; outstanding pointers survive.
    for (unsigned p = 1; p <= 6; ++p) {
        cache.reorderingLut(LutShape(QuantConfig::preset("W1A3"), p));
        cache.opLut(LutShape(QuantConfig::preset("W1A3"), p));
    }
    EXPECT_LE(cache.stats().entries, 8u);
    EXPECT_EQ(first->rows(), shape.weightRows());
}

TEST(TilePool, RunsEveryTileExactlyOnceAndPropagatesExceptions)
{
    TilePool pool(4);
    EXPECT_EQ(pool.concurrency(), 4u);

    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }

    EXPECT_THROW(pool.run(64,
                          [&](std::size_t i) {
                              if (i == 17) {
                                  throw std::runtime_error("tile 17");
                              }
                          }),
                 std::runtime_error);

    // The pool survives an exception and keeps executing batches.
    std::atomic<int> count{0};
    pool.run(100, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

} // namespace
} // namespace localut
