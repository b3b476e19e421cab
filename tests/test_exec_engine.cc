/**
 * @file
 * The prepared-operand execution engine (kernels/exec_engine.h):
 *
 *  - prepared vs unprepared bit-exactness on every design point, int
 *    and float, serial and tile-parallel;
 *  - GEMMs above the per-tile work floor really cut into several tiles
 *    on a pool, and bit-equal to serial and reference output;
 *  - the OP and LoCaLUT sweeps bit-equal to a scalar oracle built from
 *    the LUT classes, on float data whose sums round differently in
 *    every order;
 *  - the zero-allocation steady state: with a prepared operand, a warm
 *    arena, and a warm output vector, executing a GEMM performs ZERO
 *    heap allocations — asserted with a counting global allocator;
 *  - ExecArena growth semantics, weight fingerprinting, the shared
 *    LUT table cache, and TilePool determinism/exception propagation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/exec_engine.h"
#include "kernels/functional.h"
#include "kernels/gemm.h"
#include "lut/canonical_lut.h"
#include "lut/canonicalizer.h"
#include "lut/packed_lut.h"
#include "lut/reordering_lut.h"
#include "lut/table_cache.h"

// ------------------------------------------------- counting allocator
//
// Binary-wide operator new/delete replacement counting this thread's
// allocations.  Only deltas around a measured region are asserted, so
// gtest's own allocations elsewhere are harmless.  The set is complete:
// the nothrow forms are replaced too, so every allocation the library
// makes through them (std::stable_sort's buffer, for one) is freed by
// the matching replaced delete rather than mixing allocators.

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

/** The nothrow forms' failure path: null instead of std::bad_alloc. */
template <typename Alloc>
void*
orNull(Alloc alloc) noexcept
{
    try {
        return alloc();
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
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

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return orNull([size] { return countedAlloc(size); });
}

void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return orNull([size] { return countedAlloc(size); });
}

void*
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t&) noexcept
{
    return orNull([=] { return countedAlignedAlloc(size, align); });
}

void*
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t&) noexcept
{
    return orNull([=] { return countedAlignedAlloc(size, align); });
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

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept
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

// ------------------------------------------------------------- tiling
//
// The engine cuts a GEMM into at most m * n * k / 2^20 tiles, so the
// small shapes above run as one tile even on a pool.  These cases are
// sized above that floor so a TilePool(4) really cuts them, and check
// the cut output against serial execution and the reference GEMM.

constexpr std::size_t kMinTileMacs = std::size_t{1} << 20;

/** A TilePool(4) that records the tile count of every run(). */
class CountingTiles final : public TileExecutor
{
  public:
    unsigned concurrency() const override { return pool_.concurrency(); }

    void
    run(std::size_t tiles,
        const std::function<void(std::size_t)>& fn) const override
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            runs_.push_back(tiles);
        }
        pool_.run(tiles, fn);
    }

    /** Tile counts of the run() calls since the last take(). */
    std::vector<std::size_t>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::exchange(runs_, {});
    }

  private:
    TilePool pool_{4};
    mutable std::mutex mutex_;
    mutable std::vector<std::size_t> runs_;
};

struct TiledCase {
    QuantConfig config;
    DesignPoint design;
    unsigned p;
    bool streaming;
    unsigned kSlices;
    std::size_t m, k, n;
};

/**
 * Runs @p c serially and on @p tiles, and asserts that the tiled run
 * was cut into more than one tile (none under the floor) and is
 * bit-equal to the serial run and to the reference GEMM.
 */
void
expectTiledMatchesSerialAndReference(const TiledCase& c,
                                     CountingTiles& tiles)
{
    SCOPED_TRACE(std::string(designPointName(c.design)) + " " +
                 c.config.name() + " p=" + std::to_string(c.p) +
                 (c.streaming ? " streaming" : "") + " " +
                 std::to_string(c.m) + "x" + std::to_string(c.k) + "x" +
                 std::to_string(c.n));
    const GemmProblem problem =
        makeRandomProblem(c.m, c.k, c.n, c.config, 0x711e + c.n);
    const GemmPlan plan = syntheticPlan(problem, c.design, c.p,
                                        c.streaming, c.kSlices);
    const auto prepared = prepareGemm(problem, plan);
    ExecOptions serial;
    serial.prepared = prepared.get();
    ExecOptions tiled = serial;
    tiled.tiles = &tiles;

    tiles.take();
    if (c.config.weightCodec.isInteger() && c.config.actCodec.isInteger()) {
        std::vector<std::int32_t> serialOut, tiledOut;
        executeGemmInt(problem, plan, serial, serialOut);
        executeGemmInt(problem, plan, tiled, tiledOut);
        EXPECT_EQ(tiledOut, serialOut);
        EXPECT_EQ(tiledOut, referenceGemmInt(problem.w, problem.a));
    } else {
        std::vector<float> serialOut, tiledOut;
        executeGemmFloat(problem, plan, serial, serialOut);
        executeGemmFloat(problem, plan, tiled, tiledOut);
        EXPECT_EQ(tiledOut, serialOut);
        EXPECT_EQ(tiledOut, referenceGemmFloat(problem.w, problem.a));
    }
    const std::vector<std::size_t> runs = tiles.take();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_GT(runs[0], 1u);
    EXPECT_LE(runs[0] * kMinTileMacs, c.m * c.k * c.n);
}

TEST(ExecTiling, IntTilesMatchSerialAndReferenceOnEveryDesignPoint)
{
    // n = 35 = 8 * 4 + 3: every column tile ends in a partial block.
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const TiledCase cases[] = {
        {cfg, DesignPoint::NaivePim, 1, false, 1, 160, 600, 35},
        {cfg, DesignPoint::Ltc, 1, false, 1, 160, 600, 35},
        {cfg, DesignPoint::OpLut, 2, false, 1, 160, 600, 35},
        {cfg, DesignPoint::OpLutDram, 2, false, 1, 160, 600, 35},
        {cfg, DesignPoint::OpLc, 2, false, 1, 160, 600, 35},
        {cfg, DesignPoint::OpLcRc, 2, false, 1, 160, 600, 35},
        {cfg, DesignPoint::LoCaLut, 2, false, 1, 160, 600, 35},
        {cfg, DesignPoint::LoCaLut, 2, true, 4, 160, 600, 35},
        {cfg, DesignPoint::LoCaLut, 3, true, 2, 160, 600, 35},
    };
    CountingTiles tiles;
    for (const TiledCase& c : cases) {
        expectTiledMatchesSerialAndReference(c, tiles);
    }
}

TEST(ExecTiling, UnmemoizedCombosTileBitExact)
{
    // W1A4 at p = 5: 32 weight rows but C(20, 5) = 15504 activation
    // multisets, too many combos to memoize fused slices per tile.
    const QuantConfig cfg = QuantConfig::preset("W1A4");
    CountingTiles tiles;
    for (bool streaming : {false, true}) {
        expectTiledMatchesSerialAndReference(
            {cfg, DesignPoint::LoCaLut, 5, streaming, 4, 160, 600, 35},
            tiles);
    }
}

TEST(ExecTiling, FloatStreamingTilesMatchSerialAndReference)
{
    // FP4 activations against binary weights: every partial sum is a
    // multiple of 0.5 far below 2^24, so any summation order is exact
    // and the LUT path must equal the reference MAC bit for bit.
    const QuantConfig cfg = QuantConfig::fpPreset(1, 4);
    CountingTiles tiles;
    for (bool streaming : {false, true}) {
        // Rows are cut when n < 8; columns when n = 8 * 2 + 3.
        expectTiledMatchesSerialAndReference(
            {cfg, DesignPoint::LoCaLut, 2, streaming, 4, 1024, 512, 5},
            tiles);
        expectTiledMatchesSerialAndReference(
            {cfg, DesignPoint::LoCaLut, 2, streaming, 4, 512, 256, 19},
            tiles);
    }
}

// -------------------------------------------------- scalar sweep oracle

/** @p rows x @p cols codes drawn uniformly from the codes of @p codec
 * that decode to a number (to a non-negative one if @p nonNegative). */
QuantizedMatrix
uniformCodes(std::size_t rows, std::size_t cols, ValueCodec codec,
             std::uint64_t seed, bool nonNegative = false)
{
    QuantizedMatrix x;
    x.rows = rows;
    x.cols = cols;
    x.codec = codec;
    x.codes.resize(rows * cols);
    Rng rng(seed);
    for (std::uint16_t& code : x.codes) {
        float value = 0.0f;
        do {
            code = static_cast<std::uint16_t>(
                rng.nextBounded(codec.cardinality()));
            value = codec.decode(code);
        } while (std::isnan(value) || (nonNegative && std::signbit(value)));
    }
    return x;
}

/** The LUT classes the oracle reads, built apart from the engine's
 * table cache. */
struct OracleTables {
    explicit OracleTables(const LutShape& shape)
        : op(shape), canon(shape), reorder(shape), canonicalizer(shape)
    {}

    OperationPackedLut op;
    CanonicalLut canon;
    ReorderingLut reorder;
    ActivationCanonicalizer canonicalizer;
};

/**
 * Scalar oracle of the LUT sweep: out(mm, nn) sums one table entry per
 * activation group — the operation-packed entry at (packed weights,
 * packed activations) for OP, else the canonical entry at the group's
 * multiset rank and reordering-LUT row — in ascending group order.
 * @p window > 0 sums each window of that many groups into a zeroed
 * partial and folds the partials in window order (float slice
 * streaming).  Codes past K pad with code 0, as the engine packs them.
 */
template <typename T>
std::vector<T>
lutSweepOracle(const GemmProblem& problem, const OracleTables& tables,
               DesignPoint design, unsigned window)
{
    const QuantizedMatrix& w = problem.w;
    const QuantizedMatrix& a = problem.a;
    const std::size_t m = problem.m(), k = problem.k(), n = problem.n();
    const unsigned p = tables.op.shape().p;
    const unsigned groups = static_cast<unsigned>((k + p - 1) / p);
    const bool op = design == DesignPoint::OpLut;
    std::vector<std::uint16_t> codes(p);
    auto groupCodes = [&](const QuantizedMatrix& x, std::size_t other,
                          unsigned g, bool weights) {
        for (unsigned i = 0; i < p; ++i) {
            const std::size_t kk = std::size_t{g} * p + i;
            codes[i] = kk >= k      ? std::uint16_t{0}
                       : weights    ? x.at(other, kk)
                                    : x.at(kk, other);
        }
        return std::span<const std::uint16_t>(codes);
    };

    std::vector<std::uint64_t> wIdx(m * groups);
    for (std::size_t mm = 0; mm < m; ++mm) {
        for (unsigned g = 0; g < groups; ++g) {
            wIdx[mm * groups + g] =
                packCodes(groupCodes(w, mm, g, true), w.codec.bits());
        }
    }
    // Per (column, group): the table column, and for canonical tables
    // the reordering-LUT column.
    std::vector<std::uint64_t> column(n * groups);
    std::vector<std::uint32_t> perm(n * groups);
    for (std::size_t nn = 0; nn < n; ++nn) {
        for (unsigned g = 0; g < groups; ++g) {
            const auto acts = groupCodes(a, nn, g, false);
            const std::size_t at = nn * groups + g;
            if (op) {
                column[at] = packCodes(acts, a.codec.bits());
            } else {
                const CanonicalGroup cg =
                    tables.canonicalizer.canonicalize(acts);
                column[at] = cg.multisetRank;
                perm[at] = cg.permRank;
            }
        }
    }
    auto entry = [&](std::size_t mm, std::size_t nn, unsigned g) -> T {
        const std::size_t at = nn * groups + g;
        const std::uint64_t wi = wIdx[mm * groups + g];
        const std::uint64_t row =
            op ? wi : tables.reorder.lookup(perm[at], wi);
        if constexpr (std::is_same_v<T, float>) {
            return op ? tables.op.lookupFloat(row, column[at])
                      : tables.canon.lookupFloat(column[at], row);
        } else {
            return op ? tables.op.lookupInt(row, column[at])
                      : tables.canon.lookupInt(column[at], row);
        }
    };

    std::vector<T> out(m * n);
    for (std::size_t mm = 0; mm < m; ++mm) {
        for (std::size_t nn = 0; nn < n; ++nn) {
            T acc{};
            if (window == 0) {
                for (unsigned g = 0; g < groups; ++g) {
                    acc += entry(mm, nn, g);
                }
            } else {
                for (unsigned g0 = 0; g0 < groups; g0 += window) {
                    T partial{};
                    const unsigned gEnd = std::min(groups, g0 + window);
                    for (unsigned g = g0; g < gEnd; ++g) {
                        partial += entry(mm, nn, g);
                    }
                    acc += partial;
                }
            }
            out[mm * n + nn] = acc;
        }
    }
    return out;
}

/** The bit patterns of @p values (floats compared without ==). */
template <typename T>
std::vector<std::uint32_t>
bitsOf(const std::vector<T>& values)
{
    static_assert(sizeof(T) == sizeof(std::uint32_t));
    std::vector<std::uint32_t> bits(values.size());
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(T));
    return bits;
}

template <typename T>
void
executeGemmAs(const GemmProblem& problem, const GemmPlan& plan,
              const ExecOptions& options, std::vector<T>& out)
{
    if constexpr (std::is_same_v<T, float>) {
        executeGemmFloat(problem, plan, options, out);
    } else {
        executeGemmInt(problem, plan, options, out);
    }
}

/**
 * OP and LoCaLUT (direct, and slice-streamed with kSlices 1, 3 and 5)
 * on @p problem, serial and on @p tiles, each bit-equal to the scalar
 * oracle.  OP tables are not streamed by slice window, so kSlices
 * leaves their order alone; integer sums are order-free.
 */
template <typename T>
void
expectSweepMatchesOracle(const GemmProblem& problem,
                         const OracleTables& tables, CountingTiles& tiles)
{
    struct Run {
        DesignPoint design;
        bool streaming;
        unsigned kSlices;
    };
    const Run runs[] = {
        {DesignPoint::OpLut, false, 1},  {DesignPoint::OpLut, true, 3},
        {DesignPoint::OpLut, true, 5},   {DesignPoint::LoCaLut, false, 1},
        {DesignPoint::LoCaLut, true, 1}, {DesignPoint::LoCaLut, true, 3},
        {DesignPoint::LoCaLut, true, 5},
    };
    for (const Run& r : runs) {
        SCOPED_TRACE(std::string(designPointName(r.design)) +
                     (r.streaming ? " streaming kSlices=" +
                                        std::to_string(r.kSlices)
                                  : ""));
        const bool windowed = std::is_same_v<T, float> &&
                              r.design == DesignPoint::LoCaLut &&
                              r.streaming;
        const std::vector<std::uint32_t> expected =
            bitsOf(lutSweepOracle<T>(problem, tables, r.design,
                                     windowed ? r.kSlices : 0));
        const GemmPlan plan = syntheticPlan(
            problem, r.design, tables.op.shape().p, r.streaming,
            r.kSlices);
        const auto prepared = prepareGemm(problem, plan);
        ExecOptions serial;
        serial.prepared = prepared.get();
        ExecOptions tiled = serial;
        tiled.tiles = &tiles;
        std::vector<T> out;
        executeGemmAs(problem, plan, serial, out);
        EXPECT_EQ(bitsOf(out), expected) << "serial";
        tiles.take();
        executeGemmAs(problem, plan, tiled, out);
        EXPECT_EQ(bitsOf(out), expected) << "tiled";
        const std::vector<std::size_t> cut = tiles.take();
        ASSERT_EQ(cut.size(), 1u);
        EXPECT_GT(cut[0], 1u);
    }
}

TEST(ExecTiling, LutSweepMatchesScalarOracleBitForBit)
{
    // n = 19 = 8 * 2 + 3: the serial sweep ends in a partial column
    // block, and the pool's two column tiles (10 and 9 columns) in
    // blocks of 2 and 1.  K in {2000, 2001, 2003, 2006} at p = 2 gives
    // 1000..1003 groups, every group count mod 4, two of them ending in
    // a padded group.
    constexpr std::size_t m = 64, n = 19;
    constexpr unsigned p = 2;
    // FP8 products are multiples of 2^-9, so float sums stay exact, in
    // any order, below 2^15.  Non-negative FP8 activations against
    // 2-bit weights (mean -0.5) drive the sums of ~1000 groups past it
    // (to about -46k), where every order rounds differently.
    const QuantConfig fp8 = QuantConfig::fpPreset(2, 8);
    const QuantConfig w4a4 = QuantConfig::preset("W4A4");
    const OracleTables fp8Tables(LutShape(fp8, p));
    const OracleTables w4a4Tables(LutShape(w4a4, p));
    CountingTiles tiles;
    for (const std::size_t k : {2000, 2001, 2003, 2006}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        GemmProblem problem;
        problem.w = uniformCodes(m, k, fp8.weightCodec, 0x5eed + k);
        problem.a = uniformCodes(k, n, fp8.actCodec, 0xac75 + k, true);
        // Regrouping the sums into slice windows moves output bits.
        EXPECT_NE(bitsOf(lutSweepOracle<float>(
                      problem, fp8Tables, DesignPoint::LoCaLut, 0)),
                  bitsOf(lutSweepOracle<float>(
                      problem, fp8Tables, DesignPoint::LoCaLut, 3)));
        expectSweepMatchesOracle<float>(problem, fp8Tables, tiles);

        problem.w = uniformCodes(m, k, w4a4.weightCodec, 0x5eed + k);
        problem.a = uniformCodes(k, n, w4a4.actCodec, 0xac75 + k);
        expectSweepMatchesOracle<std::int32_t>(problem, w4a4Tables,
                                               tiles);
    }
}

TEST(ExecTiling, NarrowOutputsCutRows)
{
    // n < 8: a single partial column block, so only row cuts feed the
    // pool (the fused kernel allows them once m >= 32 x weight rows).
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const TiledCase cases[] = {
        {cfg, DesignPoint::OpLut, 2, false, 1, 640, 768, 5},
        {cfg, DesignPoint::LoCaLut, 1, false, 1, 640, 768, 5},
        {cfg, DesignPoint::LoCaLut, 2, true, 4, 8192, 192, 3},
    };
    CountingTiles tiles;
    for (const TiledCase& c : cases) {
        expectTiledMatchesSerialAndReference(c, tiles);
    }
}

TEST(ExecTiling, GemmBelowTheFloorRunsAsOneTile)
{
    // 37 x 53 x 9 is ~17.6k MACs: the whole GEMM is one tile, run on
    // the calling thread without fanning a batch onto the pool.
    const QuantConfig cfg = QuantConfig::preset("W4A4");
    const GemmProblem problem = makeRandomProblem(37, 53, 9, cfg, 7);
    const GemmPlan plan =
        syntheticPlan(problem, DesignPoint::LoCaLut, 2, true, 4);
    const auto prepared = prepareGemm(problem, plan);
    CountingTiles tiles;
    ExecOptions options;
    options.prepared = prepared.get();
    options.tiles = &tiles;
    std::vector<std::int32_t> out;
    executeGemmInt(problem, plan, options, out);
    EXPECT_TRUE(tiles.take().empty());
    EXPECT_EQ(out, referenceGemmInt(problem.w, problem.a));
}

/**
 * Warms @p arena and @p out with one execution, then asserts that three
 * more perform zero arena growth and zero operator-new calls on this
 * thread, and leave the output unchanged.
 */
template <typename T, typename Execute>
void
expectZeroAllocationSteadyState(ExecArena& arena, std::vector<T>& out,
                                const Execute& execute)
{
    // Warm-up: grows the arena buffers and the output vector.
    execute();
    const std::vector<T> reference = out;
    const std::uint64_t grownBuffers = arena.allocations();
    EXPECT_GT(grownBuffers, 0u);

    for (int i = 0; i < 3; ++i) {
        const std::uint64_t before = tlsAllocations;
        execute();
        EXPECT_EQ(tlsAllocations - before, 0u) << "iteration " << i;
    }
    EXPECT_EQ(arena.allocations(), grownBuffers);
    EXPECT_EQ(out, reference);
}

TEST(ExecEngine, SteadyStateExecutionPerformsZeroAllocations)
{
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
        std::vector<std::int32_t> out;
        expectZeroAllocationSteadyState(arena, out, [&] {
            executeGemmInt(problem, plan, options, out);
        });
    }
    // Float LoCaLUT streaming holds the most scratch at once: the
    // accumulator, the window partials, the fused slices and the
    // interleaved table.  n = 13 ends in a partial column block.
    {
        const QuantConfig cfg = QuantConfig::fpPreset(1, 8);
        const GemmProblem problem = makeRandomProblem(64, 96, 13, cfg, 5);
        const GemmPlan plan =
            syntheticPlan(problem, DesignPoint::LoCaLut, 2, true, 4);
        const auto prepared = prepareGemm(problem, plan);
        ExecArena arena;
        ExecOptions options;
        options.prepared = prepared.get();
        options.arena = &arena;
        std::vector<float> out;
        expectZeroAllocationSteadyState(arena, out, [&] {
            executeGemmFloat(problem, plan, options, out);
        });
    }
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
