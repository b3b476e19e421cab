#include "kernels/exec_engine.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <type_traits>

#include "common/bitops.h"
#include "common/logging.h"
#include "kernels/cost_tables.h"
#include "lut/table_cache.h"

// Portable vectorization hints for the fused lookup-accumulate loops.
// LOCALUT_SIMD_PRAGMA is defined by the build when the compiler accepts
// -fopenmp-simd (the pragma alone, no OpenMP runtime); without it the
// same loops compile unhinted.  Correctness never depends on the
// pragma: the vectorized dimension is independent output elements.
#if defined(LOCALUT_SIMD_PRAGMA)
#define LOCALUT_OMP_SIMD _Pragma("omp simd")
#else
#define LOCALUT_OMP_SIMD
#endif
#if defined(__GNUC__) || defined(__clang__)
#define LOCALUT_RESTRICT __restrict__
#define LOCALUT_NOINLINE __attribute__((noinline))
#else
#define LOCALUT_RESTRICT
#define LOCALUT_NOINLINE
#endif

namespace localut {

// ---------------------------------------------------------------- arena

ExecArena::Buffer::~Buffer()
{
    if (data != nullptr) {
        ::operator delete(data, std::align_val_t{64});
    }
}

void*
ExecArena::raw(Buffer& buffer, std::size_t bytes)
{
    if (bytes <= buffer.bytes) {
        return buffer.data;
    }
    // Round up to a page so repeated slightly-growing requests do not
    // churn; buffers never shrink (that is the steady-state guarantee).
    const std::size_t rounded = (bytes + 4095) & ~std::size_t{4095};
    if (buffer.data != nullptr) {
        ::operator delete(buffer.data, std::align_val_t{64});
        bytesReserved_ -= buffer.bytes;
        // Cleared before the new allocation: if it throws, the buffer
        // must not keep a dangling pointer with a stale size.
        buffer.data = nullptr;
        buffer.bytes = 0;
    }
    buffer.data = ::operator new(rounded, std::align_val_t{64});
    buffer.bytes = rounded;
    ++allocations_;
    bytesReserved_ += rounded;
    return buffer.data;
}

std::int32_t*
ExecArena::i32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::int32_t>(i32_, slot, n);
}

float*
ExecArena::f32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<float>(f32_, slot, n);
}

std::uint64_t*
ExecArena::u64(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint64_t>(u64_, slot, n);
}

std::uint32_t*
ExecArena::u32(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint32_t>(u32_, slot, n);
}

std::uint16_t*
ExecArena::u16(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint16_t>(u16_, slot, n);
}

std::uint8_t*
ExecArena::u8(unsigned slot, std::size_t n)
{
    LOCALUT_ASSERT(slot < kSlots, "arena slot out of range");
    return typed<std::uint8_t>(u8_, slot, n);
}

ExecArena&
ExecArena::threadLocal()
{
    static thread_local ExecArena arena;
    return arena;
}

// ---------------------------------------------------------- fingerprint

namespace {

constexpr std::uint64_t kFpSeed = 0x51'7a'b1'e0'0c'a1'07'00ull;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t
weightsFingerprint(const QuantizedMatrix& w)
{
    std::uint64_t h = splitmix64(kFpSeed ^ w.rows);
    h = splitmix64(h ^ w.cols);
    h = splitmix64(h ^ static_cast<std::uint64_t>(w.codec.kind()));
    h = splitmix64(h ^ w.codec.bits());
    // One splitmix64 chain is bound by the latency of each step, so the
    // 64-bit words (four codes each) are dealt to four independent
    // chains — word j feeds lane j % 4, lane l starts from the header
    // hash plus l — that the core runs side by side.  The lanes fold
    // into h in lane order, so a word's lane and its position within
    // the lane both reach the result.
    constexpr std::size_t kLanes = 4;
    constexpr std::size_t kCodesPerWord = 4;
    std::uint64_t lanes[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
        lanes[l] = splitmix64(h + l);
    }
    const std::uint16_t* codes = w.codes.data();
    const std::size_t count = w.codes.size();
    const std::size_t words = count / kCodesPerWord;
    std::size_t word = 0;
    for (; word + kLanes <= words; word += kLanes) {
        std::uint64_t chunk[kLanes];
        std::memcpy(chunk, codes + word * kCodesPerWord, sizeof chunk);
        for (std::size_t l = 0; l < kLanes; ++l) {
            lanes[l] = splitmix64(lanes[l] ^ chunk[l]);
        }
    }
    for (std::size_t l = 0; word < words; ++word, ++l) {
        std::uint64_t chunk;
        std::memcpy(&chunk, codes + word * kCodesPerWord, sizeof chunk);
        lanes[l] = splitmix64(lanes[l] ^ chunk);
    }
    for (const std::uint64_t lane : lanes) {
        h = splitmix64(h ^ lane);
    }
    std::uint64_t tail = 0;
    for (std::size_t i = words * kCodesPerWord; i < count; ++i) {
        tail = (tail << 16) | codes[i];
    }
    return splitmix64(splitmix64(h ^ tail) ^ count);
}

// ---------------------------------------------------------- preparation

namespace {

/** Padded code at a K offset (code 0 decodes to an annihilating value). */
std::uint16_t
wCodeAt(const QuantizedMatrix& w, std::size_t mm, std::size_t kk)
{
    return kk < w.cols ? w.at(mm, kk) : std::uint16_t{0};
}

std::uint16_t
actCodeAt(const QuantizedMatrix& a, std::size_t kk, std::size_t nn)
{
    return kk < a.rows ? a.at(kk, nn) : std::uint16_t{0};
}

/** Fatals unless every code of @p x decodes under its codec (a code at
 * or above cardinality() would index past the decode tables). */
void
requireCodesInRange(const QuantizedMatrix& x, const char* operand)
{
    std::uint16_t hi = 0;
    for (const std::uint16_t code : x.codes) {
        hi = std::max(hi, code);
    }
    LOCALUT_REQUIRE(hi < x.codec.cardinality(), operand, " code ", hi,
                    " out of range for a ", x.codec.bits(), "-bit codec");
}

/** Entry check of every functional execution: materialized operands of
 * the declared shapes and in-range activation codes (weight codes are
 * checked once, by prepareGemm()). */
void
requireFunctionalOperands(const GemmProblem& problem)
{
    LOCALUT_REQUIRE(!problem.w.codes.empty() && !problem.a.codes.empty(),
                    "functional execution needs materialized codes");
    requireOperandShapes(problem);
    requireCodesInRange(problem.a, "activation");
}

/** Functional reorder-mode resolution shared with the legacy API. */
enum class Mode { Naive, Ltc, Op, CanonExplicit, CanonReorder, CanonStream };

Mode
modeFor(DesignPoint design, bool streaming)
{
    switch (design) {
      case DesignPoint::NaivePim:  return Mode::Naive;
      case DesignPoint::Ltc:       return Mode::Ltc;
      case DesignPoint::OpLutDram:
      case DesignPoint::OpLut:     return Mode::Op;
      case DesignPoint::OpLc:      return Mode::CanonExplicit;
      case DesignPoint::OpLcRc:    return Mode::CanonReorder;
      case DesignPoint::LoCaLut:
        return streaming ? Mode::CanonStream : Mode::CanonReorder;
    }
    LOCALUT_PANIC("invalid design point");
}

std::vector<std::int32_t>
intCodebook(ValueCodec codec)
{
    std::vector<std::int32_t> book;
    if (!codec.isInteger()) {
        return book;
    }
    book.resize(codec.cardinality());
    for (std::uint64_t c = 0; c < book.size(); ++c) {
        book[c] = codec.decodeInt(static_cast<std::uint32_t>(c));
    }
    return book;
}

std::vector<float>
floatCodebook(ValueCodec codec)
{
    std::vector<float> book(codec.cardinality());
    for (std::uint64_t c = 0; c < book.size(); ++c) {
        book[c] = codec.decode(static_cast<std::uint32_t>(c));
    }
    return book;
}

} // namespace

bool
PreparedGemm::matches(const GemmProblem& problem, const GemmPlan& plan) const
{
    // Weight-content agreement is the caller's contract: the prepared
    // cache keys on weightsFingerprint(), and direct users hold one
    // PreparedGemm per problem.  Re-hashing here would put an O(M*K)
    // pass back on every call — the exact cost this engine removes.
    return m == problem.m() && k == problem.k() &&
           config == problem.config() && design == plan.design &&
           p == plan.p && kSlices == plan.kSlices &&
           streaming == plan.streaming;
}

std::uint64_t
PreparedGemm::bytes() const
{
    return wIdxT8.size() + wIdxT16.size() * sizeof(std::uint16_t) +
           wIdxT64.size() * sizeof(std::uint64_t) + ltcIdx.size() +
           ltcCoeff.size() * sizeof(std::int64_t) +
           msBinom.size() * sizeof(std::uint64_t) +
           (wDecode.size() + aDecode.size()) * sizeof(std::int32_t) +
           (wDecodeF.size() + aDecodeF.size()) * sizeof(float);
}

std::shared_ptr<PreparedGemm>
prepareGemm(const GemmProblem& problem, const GemmPlan& plan)
{
    LOCALUT_REQUIRE(problem.m() == plan.m && problem.k() == plan.k,
                    "prepareGemm: plan was resolved for a different shape");
    LOCALUT_REQUIRE(!problem.w.codes.empty(),
                    "prepareGemm needs materialized weight codes");
    requireOperandShapes(problem);
    // Once per prepared operand: a cached operand is never re-checked.
    requireCodesInRange(problem.w, "weight");

    auto prep = std::make_shared<PreparedGemm>();
    prep->design = plan.design;
    prep->config = problem.config();
    prep->p = plan.p;
    prep->kSlices = plan.kSlices;
    prep->streaming = plan.streaming;
    prep->m = problem.m();
    prep->k = problem.k();

    prep->wDecode = intCodebook(problem.w.codec);
    prep->wDecodeF = floatCodebook(problem.w.codec);
    prep->aDecode = intCodebook(problem.a.codec);
    prep->aDecodeF = floatCodebook(problem.a.codec);

    const QuantizedMatrix& w = problem.w;
    const std::size_t m = prep->m, k = prep->k;
    const Mode mode = modeFor(plan.design, plan.streaming);

    if (mode == Mode::Ltc) {
        LOCALUT_REQUIRE(prep->config.weightCodec.isInteger() &&
                            prep->config.actCodec.isInteger(),
                        "LTC functional path is integer-only");
        const unsigned g = cost::kLtcGroupSize;
        const unsigned groups =
            static_cast<unsigned>(ceilDiv(k, std::size_t{g}));
        prep->groups = groups;
        // Affine bit decomposition: decodeInt(code) =
        // sum_j coeff[j] * bit_j(code) + base.
        const ValueCodec codec = w.codec;
        prep->ltcBase = codec.decodeInt(0);
        prep->ltcCoeff.resize(codec.bits());
        for (unsigned j = 0; j < codec.bits(); ++j) {
            prep->ltcCoeff[j] = codec.decodeInt(1u << j) - prep->ltcBase;
        }
        // Per-(row, plane, group) table indices, hoisted out of the
        // executor's innermost loop.
        const unsigned bw = codec.bits();
        prep->ltcIdx.resize(m * bw * groups);
        for (std::size_t mm = 0; mm < m; ++mm) {
            for (unsigned j = 0; j < bw; ++j) {
                std::uint8_t* dst =
                    &prep->ltcIdx[(mm * bw + j) * groups];
                for (unsigned gg = 0; gg < groups; ++gg) {
                    unsigned idx = 0;
                    for (unsigned i = 0; i < g; ++i) {
                        const std::size_t kk =
                            static_cast<std::size_t>(gg) * g + i;
                        if (kk < k && ((w.at(mm, kk) >> j) & 1u)) {
                            idx |= 1u << i;
                        }
                    }
                    dst[gg] = static_cast<std::uint8_t>(idx);
                }
            }
        }
        return prep;
    }

    if (mode == Mode::Naive) {
        prep->groups = static_cast<unsigned>(ceilDiv(k, std::size_t{1}));
        return prep;
    }

    // LUT designs: packed (group-major) weight indices + shared tables.
    const unsigned p = plan.p;
    const unsigned groups =
        static_cast<unsigned>(ceilDiv(k, std::size_t{p}));
    prep->groups = groups;
    const unsigned bw = w.codec.bits();
    const unsigned idxBits = bw * p;
    std::uint16_t codes[64];
    LOCALUT_REQUIRE(p <= 64, "packing degree out of range");
    auto packInto = [&](auto& vec) {
        vec.resize(static_cast<std::size_t>(groups) * m);
        for (unsigned g = 0; g < groups; ++g) {
            auto* dst = &vec[static_cast<std::size_t>(g) * m];
            for (std::size_t mm = 0; mm < m; ++mm) {
                for (unsigned i = 0; i < p; ++i) {
                    codes[i] =
                        wCodeAt(w, mm, static_cast<std::size_t>(g) * p + i);
                }
                dst[mm] = static_cast<
                    typename std::decay_t<decltype(vec)>::value_type>(
                    packCodes({codes, p}, bw));
            }
        }
    };
    // Narrowest storage that holds the packed index: the row sweep is
    // memory-bound on this stream.
    if (idxBits <= 8) {
        packInto(prep->wIdxT8);
    } else if (idxBits <= 16) {
        packInto(prep->wIdxT16);
    } else {
        packInto(prep->wIdxT64);
    }

    const LutShape shape(prep->config, p);
    LutTableCache& cache = LutTableCache::global();
    switch (mode) {
      case Mode::Op:
        prep->opLut = cache.opLut(shape);
        break;
      case Mode::CanonReorder:
      case Mode::CanonStream:
        prep->reorderLut = cache.reorderingLut(shape);
        [[fallthrough]];
      case Mode::CanonExplicit:
        prep->canonicalLut = cache.canonicalLut(shape);
        break;
      default:
        LOCALUT_PANIC("unreachable");
    }

    if (mode != Mode::Op) {
        // Rank tables for the per-call activation canonicalization:
        // msBinom[i * span + z] = C(z, i + 1), so multiset ranking is a
        // table walk instead of repeated binomial evaluation.
        const std::uint64_t alphabet = prep->config.actCodec.cardinality();
        const std::size_t span = alphabet + p;
        prep->msBinom.resize(static_cast<std::size_t>(p) * span);
        for (unsigned i = 0; i < p; ++i) {
            for (std::size_t z = 0; z < span; ++z) {
                prep->msBinom[i * span + z] = binomial(z, i + 1);
            }
        }
    }
    return prep;
}

// ------------------------------------------------------------ execution

namespace {

// Arena slot conventions.  A tile's prepared activations and its kernel
// scratch use distinct slots per element type, so one tile arena holds
// both.  The i32/f32 tile slots are all live at once in the float
// streaming canonical sweep over a virtual canonical LUT: accumulator,
// fused slices, decoded column, window partials and the interleaved
// tables (ExecArena::kSlots = 5).
constexpr unsigned kSlotActA = 0;    ///< u64: aIdx / msRank (column-major)
constexpr unsigned kSlotPermRank = 0; ///< u32
constexpr unsigned kSlotPerm = 0;     ///< u8
constexpr unsigned kSlotAcc = 0;      ///< i32/f32: [span x 8] accumulator
constexpr unsigned kSlotFused = 1;    ///< i32/f32: fused slices / tables
constexpr unsigned kSlotCol = 2;      ///< i32/f32: decoded column scratch
constexpr unsigned kSlotBatch = 3;    ///< f32: per-window partial sums
constexpr unsigned kSlotTable = 4;    ///< i32/f32: 4 x [rows x 8] interleave
constexpr unsigned kSlotBuilt = 1;    ///< u8: fused-combo built flags

/** One output tile: rows [m0, m1) x columns [n0, n1). */
struct TileRange {
    std::size_t m0, m1, n0, n1;
};

/**
 * Column tiles are never cut finer than one cache line of the
 * row-major output (16 x 4-byte columns = 64 bytes): slivered column
 * tiles — the historical bug on fig09-class shapes, which emitted
 * 4-column tiles — put four concurrent writers on every output line,
 * and the resulting false sharing erased the entire tile-parallel
 * speedup.
 */
constexpr std::size_t kMinColChunk = 16;

/**
 * Work per tile below which a GEMM is not cut further, in MACs (tile
 * rows x tile columns x k): a GEMM gets at most m * n * k / kMinTileMacs
 * tiles.  On a 4-vCPU Xeon, waking a parked TilePool(4), claiming a
 * batch of empty tiles and settling it costs 22-33 us (p25-p50), and
 * the blocked sweep runs W4A4 decode shapes (192..768 x 768 x 8 and
 * 768 x 3072 x 8) at 3.3-5.4 MACs/ns on one thread (median of 21, or
 * 2.3-3.3 when each accumulator pass added one group), so a 2^20-MAC
 * tile is 190-320 us of work and the fan-out stays a small fraction of
 * it.
 * A 192-row decode shard slice (192 x 768 x 8, just over 2^20 MACs)
 * runs as one tile on the thread that issued it.
 */
constexpr std::size_t kMinTileMacs = std::size_t{1} << 20;

/**
 * Cuts the output into a disjoint [rowTiles x colTiles] grid of at
 * most m * n * k / kMinTileMacs tiles.  Columns are cut first
 * (per-column setup — fused slices and their interleaving, LTC tables,
 * decoded columns — is paid once per column regardless of how the
 * columns are divided, but is DUPLICATED by every row cut), no finer
 * than kMinColChunk; rows are cut only when the columns alone cannot
 * feed the target tile count, and keep >= 16 rows per tile.  rangeOf()
 * recovers the bounds from a tile index.
 */
struct Tiling {
    std::size_t m = 0, n = 0;
    std::size_t tiles = 1;
    std::size_t rowTiles = 1, colTiles = 1;
    std::size_t rowChunk = 0, colChunk = 0;

    TileRange
    rangeOf(std::size_t tile) const
    {
        if (tiles <= 1) {
            return {0, m, 0, n};
        }
        const std::size_t m0 =
            std::min(m, (tile / colTiles) * rowChunk);
        const std::size_t n0 =
            std::min(n, (tile % colTiles) * colChunk);
        return {m0, std::min(m, m0 + rowChunk), n0,
                std::min(n, n0 + colChunk)};
    }
};

Tiling
chooseTiling(std::size_t m, std::size_t n, std::size_t k,
             const TileExecutor* tiles)
{
    Tiling t;
    t.m = m;
    t.n = n;
    t.rowChunk = m;
    t.colChunk = n;
    const unsigned conc = tiles != nullptr ? tiles->concurrency() : 1;
    if (conc <= 1) {
        return t;
    }
    // A few tiles per worker for load balance, none below the floor.
    const std::size_t target = std::min(static_cast<std::size_t>(conc) * 4,
                                        m * n * k / kMinTileMacs);
    if (target <= 1) {
        return t;
    }
    t.colTiles = std::max<std::size_t>(
        1, std::min(ceilDiv(n, kMinColChunk), target));
    t.colChunk = ceilDiv(n, t.colTiles);
    t.colTiles = ceilDiv(n, t.colChunk);
    if (t.colTiles < target && m >= 32) {
        const std::size_t want = ceilDiv(target, t.colTiles);
        t.rowTiles = std::min(ceilDiv(m, std::size_t{16}), want);
        t.rowChunk = ceilDiv(m, t.rowTiles);
        t.rowTiles = ceilDiv(m, t.rowChunk);
    }
    t.tiles = t.rowTiles * t.colTiles;
    return t;
}

/**
 * Shrinks the ROW dimension of a tiling to at most @p maxRowTiles
 * (kernels whose per-column setup is duplicated across row tiles call
 * this with the row-cut count that keeps the duplicated work a small
 * fraction of the sweep).  Column tiles are untouched — they duplicate
 * nothing.
 */
void
capRowTiles(Tiling& t, std::size_t maxRowTiles)
{
    maxRowTiles = std::max<std::size_t>(1, maxRowTiles);
    if (t.rowTiles <= maxRowTiles) {
        return;
    }
    t.rowTiles = maxRowTiles;
    t.rowChunk = ceilDiv(t.m, t.rowTiles);
    t.rowTiles = ceilDiv(t.m, t.rowChunk);
    t.tiles = t.rowTiles * t.colTiles;
}

/** Runs @p fn over every tile — inline when serial (no std::function
 * materialization, preserving the zero-allocation steady state). */
template <typename Fn>
void
runTiles(const Tiling& tiling, const TileExecutor* tiles, const Fn& fn)
{
    if (tiling.tiles <= 1 || tiles == nullptr) {
        for (std::size_t i = 0; i < tiling.tiles; ++i) {
            fn(i);
        }
        return;
    }
    tiles->run(tiling.tiles, std::function<void(std::size_t)>(fn));
}

/** The tile-local arena: the shared one when serial, per-thread when
 * the tile may be running on a pool worker. */
ExecArena&
tileArena(const Tiling& tiling, const TileExecutor* tiles,
          ExecArena& callerArena)
{
    return (tiling.tiles <= 1 || tiles == nullptr)
               ? callerArena
               : ExecArena::threadLocal();
}

/** Explicit unpack/permute/repack (the LC design point's runtime work). */
std::uint64_t
explicitReorder(std::uint64_t wIdx, const std::uint8_t* perm, unsigned p,
                unsigned bw)
{
    std::uint64_t reordered = 0;
    for (unsigned i = 0; i < p; ++i) {
        const std::uint64_t code = extractField(wIdx, perm[i], bw);
        reordered |= code << (i * bw);
    }
    return reordered;
}

// ----------------------------------------------- activation preparation

/**
 * Column-major canonicalization of the activation group instances of a
 * tile's columns: msRank/permRank/perm at [(nn - range.n0) * groups +
 * g].  Stable insertion argsort + table-driven multiset rank,
 * allocation-free.  Each tile prepares its own columns, so the pass
 * runs on the tile threads (row tiles of one column range repeat it).
 */
struct CanonicalActs {
    const std::uint64_t* msRank = nullptr;
    const std::uint32_t* permRank = nullptr;
    const std::uint8_t* perm = nullptr;
};

CanonicalActs
prepCanonicalActs(const QuantizedMatrix& a, const TileRange& range,
                  unsigned p, unsigned groups, const PreparedGemm& prep,
                  ExecArena& arena)
{
    const std::size_t instances =
        static_cast<std::size_t>(groups) * (range.n1 - range.n0);
    std::uint64_t* msRank = arena.u64(kSlotActA, instances);
    std::uint32_t* permRank = arena.u32(kSlotPermRank, instances);
    std::uint8_t* perm = arena.u8(kSlotPerm, instances * p);
    const std::size_t span = prep.config.actCodec.cardinality() + p;
    const std::uint64_t* binom = prep.msBinom.data();

    std::uint16_t codes[64];
    std::uint8_t order[64];
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (unsigned g = 0; g < groups; ++g) {
            for (unsigned i = 0; i < p; ++i) {
                codes[i] =
                    actCodeAt(a, static_cast<std::size_t>(g) * p + i, nn);
            }
            // Stable insertion argsort (p <= 12).
            for (unsigned i = 0; i < p; ++i) {
                const std::uint16_t code = codes[i];
                unsigned j = i;
                while (j > 0 && codes[order[j - 1]] > code) {
                    order[j] = order[j - 1];
                    --j;
                }
                order[j] = static_cast<std::uint8_t>(i);
            }
            // Multiset rank of the sorted codes (colex rank sum).
            std::uint64_t ms = 0;
            for (unsigned i = 0; i < p; ++i) {
                ms += binom[i * span + codes[order[i]] + i];
            }
            // Lehmer rank of the argsort permutation.
            std::uint32_t pr = 0;
            for (unsigned i = 0; i < p; ++i) {
                unsigned smaller = 0;
                for (unsigned j = i + 1; j < p; ++j) {
                    if (order[j] < order[i]) {
                        ++smaller;
                    }
                }
                pr = pr * (p - i) + smaller;
            }
            const std::size_t at = (nn - range.n0) * groups + g;
            msRank[at] = ms;
            permRank[at] = pr;
            std::uint8_t* dst = perm + at * p;
            for (unsigned i = 0; i < p; ++i) {
                dst[i] = order[i];
            }
        }
    }
    return {msRank, permRank, perm};
}

/** Column-major packed activation indices of a tile's columns,
 * aIdx[(nn - range.n0) * groups + g]. */
const std::uint64_t*
prepPackedActs(const QuantizedMatrix& a, const TileRange& range,
               unsigned p, unsigned groups, ExecArena& arena)
{
    std::uint64_t* aIdx = arena.u64(
        kSlotActA,
        static_cast<std::size_t>(groups) * (range.n1 - range.n0));
    const unsigned ba = a.codec.bits();
    std::uint16_t codes[64];
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (unsigned g = 0; g < groups; ++g) {
            for (unsigned i = 0; i < p; ++i) {
                codes[i] =
                    actCodeAt(a, static_cast<std::size_t>(g) * p + i, nn);
            }
            aIdx[(nn - range.n0) * groups + g] = packCodes({codes, p}, ba);
        }
    }
    return aIdx;
}

// ------------------------------------------------------------- kernels
//
// The OP and canonical fused kernels share one column-blocked sweep
// (blockedSweep): for each block of kColBlock output columns and each
// block of kGroupBlock consecutive activation groups, the slices of
// those columns and groups (`rows` entries each) are interleaved into
// one rows x kColBlock table per group, t_j[w * kColBlock + c], and the
// tile's rows are walked once: each kColBlock-wide accumulator row is
// loaded once, the group block's table rows t_j[w_j * kColBlock ..)
// (w_j the row's packed weight index in group j) are added to it in
// ascending group order, and it is stored once.  The vectorized
// dimension is the block's columns: independent output elements
// advanced in lockstep, each still adding its groups one at a time in
// ascending order (and, under float slice streaming, summing each
// window into a zeroed partial that is folded in stream order; a group
// block never crosses a window), so results are bit-exact on integer
// AND float data.  A partial last column block is padded with zero
// columns that are never written out.

/** Output columns one sweep serves: one 32-byte accumulator row. */
constexpr std::size_t kColBlock = 8;

/** Activation groups one accumulator pass adds.  With GCC 12 on x86-64
 * the pass runs 9 instructions per group at 4 and none on the stack;
 * 2 groups take 11 per group, and 8 groups 9.5 with 12 stack accesses
 * per row. */
constexpr unsigned kGroupBlock = 4;

/** Tile scratch of the kernel's element type (int32 or float). */
template <typename T>
T*
scratch(ExecArena& arena, unsigned slot, std::size_t n)
{
    if constexpr (std::is_same_v<T, std::int32_t>) {
        return arena.i32(slot, n);
    } else {
        return arena.f32(slot, n);
    }
}

/** t[w * kColBlock + c] = slice[w] over [0, rows): column @p c of the
 * interleaved table. */
template <typename T>
inline void
interleaveColumn(T* LOCALUT_RESTRICT table, const T* LOCALUT_RESTRICT slice,
                 std::size_t c, std::uint64_t rows)
{
    for (std::uint64_t w = 0; w < rows; ++w) {
        table[w * kColBlock + c] = slice[w];
    }
}

/**
 * One accumulator pass over rows [0, span) for a block of @p G groups:
 * acc[i * kColBlock + c] += t_j[idx_j[i] * kColBlock + c] for j = 0, 1,
 * .. G - 1 in that order, where t_j = tables + j * tableLen and idx_j =
 * idx + j * stride.  Each accumulator row is loaded and stored once.
 * Kept out of line and, where the compiler has them, over two 16-byte
 * vector halves: that keeps the row in two registers, where an 8-wide
 * local inlined into the sweep spilled to the stack.
 */
template <unsigned G, typename T, typename I>
LOCALUT_NOINLINE void
accumulateGroups(T* LOCALUT_RESTRICT acc, const T* LOCALUT_RESTRICT tables,
                 std::size_t tableLen, const I* LOCALUT_RESTRICT idx,
                 std::size_t stride, std::size_t span)
{
    for (std::size_t i = 0; i < span; ++i) {
        T* a = acc + i * kColBlock;
        auto row = [&](unsigned j) {
            return tables + j * tableLen +
                   static_cast<std::size_t>(idx[j * stride + i]) * kColBlock;
        };
#if defined(__GNUC__) || defined(__clang__)
        constexpr std::size_t kHalf = kColBlock / 2;
        typedef T Half __attribute__((vector_size(kHalf * sizeof(T))));
        Half lo, hi;
        std::memcpy(&lo, a, sizeof lo);
        std::memcpy(&hi, a + kHalf, sizeof hi);
        for (unsigned j = 0; j < G; ++j) {
            Half x, y;
            std::memcpy(&x, row(j), sizeof x);
            std::memcpy(&y, row(j) + kHalf, sizeof y);
            lo += x;
            hi += y;
        }
        std::memcpy(a, &lo, sizeof lo);
        std::memcpy(a + kHalf, &hi, sizeof hi);
#else
        for (unsigned j = 0; j < G; ++j) {
            const T* LOCALUT_RESTRICT r = row(j);
            LOCALUT_OMP_SIMD
            for (std::size_t c = 0; c < kColBlock; ++c) {
                a[c] += r[c];
            }
        }
#endif
    }
}

/** accumulateGroups() for a block of @p count (1..kGroupBlock) groups:
 * full blocks, and the tail of the groups or of a streaming window. */
template <typename T, typename I>
void
accumulateBlock(unsigned count, T* acc, const T* tables,
                std::size_t tableLen, const I* idx, std::size_t stride,
                std::size_t span)
{
    static_assert(kGroupBlock == 4, "one case per block length");
    switch (count) {
      case 4:
        accumulateGroups<4>(acc, tables, tableLen, idx, stride, span);
        return;
      case 3:
        accumulateGroups<3>(acc, tables, tableLen, idx, stride, span);
        return;
      case 2:
        accumulateGroups<2>(acc, tables, tableLen, idx, stride, span);
        return;
      case 1:
        accumulateGroups<1>(acc, tables, tableLen, idx, stride, span);
        return;
    }
    LOCALUT_PANIC("group block of ", count, " groups");
}

/** dst[i] = src[idx[i]] over [0, span) (fused-slice construction). */
template <typename T, typename I>
inline void
gatherInto(T* LOCALUT_RESTRICT dst, const T* LOCALUT_RESTRICT src,
           const I* LOCALUT_RESTRICT idx, std::size_t span)
{
    LOCALUT_OMP_SIMD
    for (std::size_t i = 0; i < span; ++i) {
        dst[i] = src[idx[i]];
    }
}

/** acc[i] += addend[i] over [0, span) (slice-window fold). */
template <typename T>
inline void
vectorAdd(T* LOCALUT_RESTRICT acc, const T* LOCALUT_RESTRICT addend,
          std::size_t span)
{
    LOCALUT_OMP_SIMD
    for (std::size_t i = 0; i < span; ++i) {
        acc[i] += addend[i];
    }
}

/** Narrow-width packed weight index dispatch: invokes @p fn with the
 * populated wIdxT pointer (exactly one variant is filled). */
template <typename Fn>
void
withWeightIndices(const PreparedGemm& prep, const Fn& fn)
{
    if (!prep.wIdxT8.empty()) {
        fn(prep.wIdxT8.data());
    } else if (!prep.wIdxT16.empty()) {
        fn(prep.wIdxT16.data());
    } else {
        fn(prep.wIdxT64.data());
    }
}

/**
 * The column-blocked sweep over one tile: out(mm, nn) = sum over groups
 * g of slice(nn, g)[wIdxT(g, mm)], where @p fill(table, nn, g, c)
 * writes slice(nn, g) into column c of an interleaved table.
 * @p window > 0 reproduces the float slice-streaming order: each window
 * of groups is summed into a zeroed partial, and the partials are
 * folded into the accumulator in window order; 0 adds every group
 * straight into it.
 */
template <typename T, typename I, typename Fill>
void
blockedSweep(const I* wIdxT, std::size_t m, unsigned groups,
             std::uint64_t rows, unsigned window, std::size_t n,
             const TileRange& range, ExecArena& arena, T* out,
             const Fill& fill)
{
    const std::size_t span = range.m1 - range.m0;
    const std::size_t accLen = span * kColBlock;
    const std::size_t tableLen = static_cast<std::size_t>(rows) * kColBlock;
    T* acc = scratch<T>(arena, kSlotAcc, accLen);
    T* tables = scratch<T>(arena, kSlotTable, kGroupBlock * tableLen);
    T* accWindow =
        window > 0 ? scratch<T>(arena, kSlotBatch, accLen) : nullptr;

    for (std::size_t b0 = range.n0; b0 < range.n1; b0 += kColBlock) {
        const std::size_t cols = std::min(kColBlock, range.n1 - b0);
        if (cols < kColBlock) {
            // Padding columns: the fills below never touch them.
            std::fill(tables, tables + kGroupBlock * tableLen, T{});
        }
        // Adds groups [g0, g1) into dst, kGroupBlock at a time.
        auto sweepGroups = [&](unsigned g0, unsigned g1, T* dst) {
            for (unsigned gb = g0; gb < g1; gb += kGroupBlock) {
                const unsigned count = std::min(kGroupBlock, g1 - gb);
                for (unsigned j = 0; j < count; ++j) {
                    for (std::size_t c = 0; c < cols; ++c) {
                        fill(tables + j * tableLen, b0 + c, gb + j, c);
                    }
                }
                accumulateBlock(count, dst, tables, tableLen,
                                wIdxT + static_cast<std::size_t>(gb) * m +
                                    range.m0,
                                m, span);
            }
        };
        std::fill(acc, acc + accLen, T{});
        if (window == 0) {
            sweepGroups(0, groups, acc);
        } else {
            for (unsigned g0 = 0; g0 < groups; g0 += window) {
                std::fill(accWindow, accWindow + accLen, T{});
                sweepGroups(g0, std::min(groups, g0 + window), accWindow);
                vectorAdd(acc, accWindow, accLen);
            }
        }
        for (std::size_t i = 0; i < span; ++i) {
            T* dst = out + (range.m0 + i) * n + b0;
            const T* src = acc + i * kColBlock;
            for (std::size_t c = 0; c < cols; ++c) {
                dst[c] = src[c];
            }
        }
    }
}

/** OP sweep: out(mm, nn) = sum_g opLut[aIdx(nn, g)][wIdxT(g, mm)]. */
template <typename T, typename I>
void
opKernel(const PreparedGemm& prep, const I* wIdxT,
         const std::uint64_t* aIdx, const T* table, std::uint64_t rows,
         std::size_t n, const TileRange& range, ExecArena& arena, T* out)
{
    const unsigned groups = prep.groups;
    blockedSweep(wIdxT, prep.m, groups, rows, 0, n, range, arena, out,
                 [&](T* t, std::size_t nn, unsigned g, std::size_t c) {
                     interleaveColumn(
                         t, table + aIdx[(nn - range.n0) * groups + g] * rows,
                         c, rows);
                 });
}

/**
 * Canonical fused sweep: per (column, group), collapse (reordering o
 * canonical) into one direct slice — fused[wIdx] =
 * canonical[msRank][reorder(wIdx)] — and run the column-blocked sweep
 * over the fused slices exactly like the OP kernel.  Float accumulation
 * under streaming is windowed by @p batch groups (the slice window) to
 * reproduce the legacy slice-streaming summation order bit-exactly.
 */
template <typename T, bool kInt, typename I>
void
canonicalFusedKernel(const PreparedGemm& prep, const I* wIdxT,
                     const CanonicalActs& acts, Mode mode, unsigned batch,
                     std::size_t n, const TileRange& range, ExecArena& arena,
                     T* out)
{
    const unsigned groups = prep.groups;
    const unsigned p = prep.p;
    const unsigned bw = prep.config.weightCodec.bits();
    const CanonicalLut& canon = *prep.canonicalLut;
    const std::uint64_t rows = canon.rows();
    const T* canonData;
    if constexpr (kInt) {
        canonData = canon.dataInt();
    } else {
        canonData = canon.dataFloat();
    }
    const std::uint32_t* reorderData =
        prep.reorderLut != nullptr ? prep.reorderLut->data() : nullptr;

    // A fused slice is a pure function of (msRank, permRank).  When
    // that combo space is small — the common small-p case — memoize
    // slices per combo for the whole tile instead of rebuilding them
    // per (column, group): a 3072x768x128 W4A4 GEMM has ~49k group
    // instances but only 272 distinct combos.
    const std::uint64_t permCols =
        prep.reorderLut != nullptr ? prep.reorderLut->cols()
                                   : factorial(p);
    // Overflow-safe: only multiply once both factors are small.
    const bool smallCombo = canon.cols() <= 4096 && permCols <= 4096;
    const std::uint64_t combos =
        smallCombo ? canon.cols() * permCols : 0;
    const bool memoize = canonData != nullptr && smallCombo &&
                         combos <= 4096 &&
                         combos * rows <= (std::uint64_t{1} << 22);
    // Memoized: one slice per combo for the whole tile.  Otherwise one
    // scratch slice, rebuilt per (column, group) and interleaved at once.
    const std::size_t fusedSlices =
        memoize ? static_cast<std::size_t>(combos) : 1;

    T* fused = scratch<T>(arena, kSlotFused, fusedSlices * rows);
    T* colScratch =
        canonData == nullptr ? scratch<T>(arena, kSlotCol, rows) : nullptr;
    std::uint8_t* built = nullptr;
    if (memoize) {
        built = arena.u8(kSlotBuilt, static_cast<std::size_t>(combos));
        std::fill(built, built + combos, std::uint8_t{0});
    }

    auto buildSlice = [&](std::size_t at, T* dst) {
        const T* col;
        if (canonData != nullptr) {
            col = canonData + acts.msRank[at] * rows;
        } else {
            if constexpr (kInt) {
                canon.columnIntInto(acts.msRank[at], colScratch);
            } else {
                canon.columnFloatInto(acts.msRank[at], colScratch);
            }
            col = colScratch;
        }
        if (mode == Mode::CanonExplicit) {
            const std::uint8_t* perm = acts.perm + at * p;
            for (std::uint64_t wi = 0; wi < rows; ++wi) {
                dst[wi] = col[explicitReorder(wi, perm, p, bw)];
            }
        } else {
            const std::uint32_t* rCol =
                reorderData + acts.permRank[at] * rows;
            gatherInto(dst, col, rCol, static_cast<std::size_t>(rows));
        }
    };

    // Integer accumulation is order-independent; float accumulation
    // must reproduce the legacy order exactly: direct group-ascending
    // sums normally, per-slice-window partial sums folded in under
    // streaming.
    const unsigned window = !kInt && mode == Mode::CanonStream ? batch : 0;
    blockedSweep(
        wIdxT, prep.m, groups, rows, window, n, range, arena, out,
        [&](T* t, std::size_t nn, unsigned g, std::size_t c) {
            // Lookups hoisted out of the row sweep; each distinct combo
            // is built at most once per tile when memoizing.
            const std::size_t at = (nn - range.n0) * groups + g;
            T* slice = fused;
            if (memoize) {
                const std::size_t combo = static_cast<std::size_t>(
                    acts.msRank[at] * permCols + acts.permRank[at]);
                slice = fused + combo * rows;
                if (!built[combo]) {
                    buildSlice(at, slice);
                    built[combo] = 1;
                }
            } else {
                buildSlice(at, slice);
            }
            interleaveColumn(t, slice, c, rows);
        });
}

/**
 * Canonical direct sweep (no fused slices): the per-element double
 * lookup, for shapes whose weight-row space dwarfs the row count (slice
 * fusion would cost more than it saves).
 */
template <typename T, bool kInt, typename I>
void
canonicalDirectKernel(const PreparedGemm& prep, const I* wIdxT,
                      const CanonicalActs& acts, Mode mode, unsigned batch,
                      std::size_t n, const TileRange& range, T* out)
{
    const std::size_t m = prep.m;
    const unsigned groups = prep.groups;
    const unsigned p = prep.p;
    const unsigned bw = prep.config.weightCodec.bits();
    const CanonicalLut& canon = *prep.canonicalLut;
    const std::uint64_t rows = canon.rows();
    const T* canonData;
    if constexpr (kInt) {
        canonData = canon.dataInt();
    } else {
        canonData = canon.dataFloat();
    }
    const std::uint32_t* reorderData =
        prep.reorderLut != nullptr ? prep.reorderLut->data() : nullptr;

    auto entry = [&](unsigned g, std::size_t nn, std::size_t mm) {
        const std::size_t at = (nn - range.n0) * groups + g;
        const std::uint64_t wi = wIdxT[static_cast<std::size_t>(g) * m + mm];
        std::uint64_t reordered;
        if (mode == Mode::CanonExplicit) {
            reordered = explicitReorder(wi, acts.perm + at * p, p, bw);
        } else {
            reordered = reorderData[acts.permRank[at] * rows + wi];
        }
        if (canonData != nullptr) {
            return canonData[acts.msRank[at] * rows + reordered];
        }
        if constexpr (kInt) {
            return canon.lookupInt(acts.msRank[at], reordered);
        } else {
            return canon.lookupFloat(acts.msRank[at], reordered);
        }
    };

    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            T acc{};
            if (kInt || mode != Mode::CanonStream) {
                for (unsigned g = 0; g < groups; ++g) {
                    acc += entry(g, nn, mm);
                }
            } else {
                // Legacy streaming order: per-window partials folded in.
                for (unsigned g0 = 0; g0 < groups; g0 += batch) {
                    const unsigned gEnd = std::min(groups, g0 + batch);
                    T accB{};
                    for (unsigned g = g0; g < gEnd; ++g) {
                        accB += entry(g, nn, mm);
                    }
                    acc += accB;
                }
            }
            out[mm * n + nn] = acc;
        }
    }
}

/** LTC sweep (integer-only): per-column runtime tables + precomputed
 * weight plane indices. */
void
ltcKernel(const PreparedGemm& prep, const QuantizedMatrix& a, std::size_t n,
          const TileRange& range, ExecArena& arena, std::int32_t* out)
{
    const unsigned g = cost::kLtcGroupSize;
    const unsigned entries = cost::kLtcTableEntries;
    const unsigned groups = prep.groups;
    const unsigned bw = prep.config.weightCodec.bits();
    const std::size_t k = prep.k;
    const std::int32_t* aDec = prep.aDecode.data();
    std::int32_t* table =
        arena.i32(kSlotFused, static_cast<std::size_t>(groups) * entries);

    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        std::int64_t colSum = 0;
        for (unsigned gg = 0; gg < groups; ++gg) {
            std::int32_t av[cost::kLtcGroupSize] = {};
            for (unsigned i = 0; i < g; ++i) {
                const std::size_t kk = static_cast<std::size_t>(gg) * g + i;
                av[i] = kk < k ? aDec[a.at(kk, nn)] : 0;
                colSum += av[i];
            }
            for (unsigned idx = 0; idx < entries; ++idx) {
                std::int32_t sum = 0;
                for (unsigned i = 0; i < g; ++i) {
                    if (idx & (1u << i)) {
                        sum += av[i];
                    }
                }
                table[gg * entries + idx] = sum;
            }
        }
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            std::int64_t acc = 0;
            const std::uint8_t* rowIdx = &prep.ltcIdx[mm * bw * groups];
            for (unsigned j = 0; j < bw; ++j) {
                std::int64_t planeSum = 0;
                const std::uint8_t* idx = rowIdx + j * groups;
                for (unsigned gg = 0; gg < groups; ++gg) {
                    planeSum += table[gg * entries + idx[gg]];
                }
                acc += prep.ltcCoeff[j] * planeSum;
            }
            acc += prep.ltcBase * colSum;
            out[mm * n + nn] = static_cast<std::int32_t>(acc);
        }
    }
}

/** Plain MAC (NaivePim + the host reference), codebook-decoded. */
void
naiveIntKernel(const PreparedGemm& prep, const GemmProblem& problem,
               std::size_t n, const TileRange& range, ExecArena& arena,
               std::int32_t* out)
{
    const std::size_t k = prep.k;
    const std::int32_t* wDec = prep.wDecode.data();
    const std::int32_t* aDec = prep.aDecode.data();
    const std::uint16_t* wCodes = problem.w.codes.data();
    std::int32_t* aCol = arena.i32(kSlotCol, k);
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            aCol[kk] = aDec[problem.a.at(kk, nn)];
        }
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            const std::uint16_t* wRow = wCodes + mm * k;
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk) {
                acc += wDec[wRow[kk]] * aCol[kk];
            }
            out[mm * n + nn] = acc;
        }
    }
}

/** Float MAC, replicating referenceGemmFloat()'s zero-weight skip (a
 * NaN activation times a skipped zero weight must stay skipped). */
void
naiveFloatKernel(const PreparedGemm& prep, const GemmProblem& problem,
                 std::size_t n, const TileRange& range, ExecArena& arena,
                 float* out)
{
    const std::size_t k = prep.k;
    const float* wDec = prep.wDecodeF.data();
    const float* aDec = prep.aDecodeF.data();
    const std::uint16_t* wCodes = problem.w.codes.data();
    float* aCol = arena.f32(kSlotCol, k);
    for (std::size_t nn = range.n0; nn < range.n1; ++nn) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            aCol[kk] = aDec[problem.a.at(kk, nn)];
        }
        for (std::size_t mm = range.m0; mm < range.m1; ++mm) {
            const std::uint16_t* wRow = wCodes + mm * k;
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                const float wv = wDec[wRow[kk]];
                if (wv == 0.0f) {
                    continue;
                }
                acc += wv * aCol[kk];
            }
            out[mm * n + nn] = acc;
        }
    }
}

// ----------------------------------------------------------- dispatch

/** Fused-slice heuristic: fusing costs groups * rows per column and
 * saves a dependent lookup per (row, group); profitable unless the
 * weight-row space dwarfs the row count. */
bool
useFusedSlices(std::uint64_t rows, std::size_t m)
{
    return rows <= std::max<std::uint64_t>(4 * m, 64);
}

template <typename T, bool kInt>
void
executeTyped(const GemmProblem& problem, const GemmPlan& plan,
             const ExecOptions& options, std::vector<T>& out)
{
    requireFunctionalOperands(problem);
    std::shared_ptr<const PreparedGemm> owned;
    const PreparedGemm* prep = options.prepared;
    if (prep == nullptr) {
        owned = prepareGemm(problem, plan);
        prep = owned.get();
    } else {
        LOCALUT_REQUIRE(prep->matches(problem, plan),
                        "prepared operand does not match this "
                        "(problem, plan)");
    }
    ExecArena& arena =
        options.arena != nullptr ? *options.arena : ExecArena::threadLocal();
    const std::size_t m = problem.m(), n = problem.n();
    out.resize(m * n);
    T* outData = out.data();
    const Mode mode = modeFor(plan.design, plan.streaming);
    const Tiling tiling = chooseTiling(m, n, problem.k(), options.tiles);
    const TileExecutor* tiles = options.tiles;

    switch (mode) {
      case Mode::Naive: {
        runTiles(tiling, tiles, [&](std::size_t tile) {
            ExecArena& ta = tileArena(tiling, tiles, arena);
            if constexpr (kInt) {
                naiveIntKernel(*prep, problem, n, tiling.rangeOf(tile), ta,
                               outData);
            } else {
                naiveFloatKernel(*prep, problem, n, tiling.rangeOf(tile),
                                 ta, outData);
            }
        });
        return;
      }
      case Mode::Ltc: {
        if constexpr (!kInt) {
            LOCALUT_PANIC("LTC functional path is integer-only");
        } else {
            // Row tiles rebuild every column's runtime tables (16
            // entries per group); cap the duplication at ~25% of the
            // per-tile sweep (chunk rows x bw planes x groups).
            Tiling ltcTiling = tiling;
            capRowTiles(ltcTiling,
                        std::max<std::size_t>(
                            1, m * prep->config.weightCodec.bits() /
                                   (4 * cost::kLtcTableEntries)));
            runTiles(ltcTiling, tiles, [&](std::size_t tile) {
                ltcKernel(*prep, problem.a, n, ltcTiling.rangeOf(tile),
                          tileArena(ltcTiling, tiles, arena), outData);
            });
        }
        return;
      }
      case Mode::Op: {
        const OperationPackedLut& lut = *prep->opLut;
        const T* table;
        if constexpr (kInt) {
            table = lut.dataInt();
        } else {
            table = lut.dataFloat();
        }
        LOCALUT_REQUIRE(table != nullptr,
                        "operation-packed LUT has no entries for this "
                        "element type");
        runTiles(tiling, tiles, [&](std::size_t tile) {
            const TileRange range = tiling.rangeOf(tile);
            ExecArena& ta = tileArena(tiling, tiles, arena);
            const std::uint64_t* aIdx =
                prepPackedActs(problem.a, range, prep->p, prep->groups, ta);
            withWeightIndices(*prep, [&](const auto* wIdxT) {
                opKernel<T>(*prep, wIdxT, aIdx, table, lut.rows(), n, range,
                            ta, outData);
            });
        });
        return;
      }
      case Mode::CanonExplicit:
      case Mode::CanonReorder:
      case Mode::CanonStream: {
        const unsigned batch = mode == Mode::CanonStream
                                   ? std::max(1u, prep->kSlices)
                                   : prep->groups;
        const bool fused = useFusedSlices(prep->canonicalLut->rows(), m);
        Tiling canonTiling = tiling;
        if (fused) {
            // Every row tile repeats each (block, group)'s rows x 8
            // interleave.  On one thread of a 4-vCPU Xeon (W4A4
            // LoCaLUT, fig09 and decode shapes), interleaving one table
            // entry costs 0.6-1.0x what the accumulator pass spends on
            // one row of one group (0.36-0.67x when the pass added one
            // group at a time), so chunks of >= 16 x rows rows keep the
            // repeated interleave under about half a tile's sweep.  On
            // a TilePool(4), 768x3072x8 took 1.66-1.77 ms at this cap
            // and 2.00-2.15 ms at 8 x rows (fastest of 31, three runs).
            capRowTiles(canonTiling,
                        std::max<std::size_t>(
                            1, m / (16 * prep->canonicalLut->rows())));
        }
        runTiles(canonTiling, tiles, [&](std::size_t tile) {
            const TileRange range = canonTiling.rangeOf(tile);
            ExecArena& ta = tileArena(canonTiling, tiles, arena);
            const CanonicalActs acts = prepCanonicalActs(
                problem.a, range, prep->p, prep->groups, *prep, ta);
            withWeightIndices(*prep, [&](const auto* wIdxT) {
                if (fused) {
                    canonicalFusedKernel<T, kInt>(*prep, wIdxT, acts, mode,
                                                  batch, n, range, ta,
                                                  outData);
                } else {
                    canonicalDirectKernel<T, kInt>(*prep, wIdxT, acts, mode,
                                                   batch, n, range, outData);
                }
            });
        });
        return;
      }
    }
    LOCALUT_PANIC("invalid execution mode");
}

} // namespace

void
executeGemmInt(const GemmProblem& problem, const GemmPlan& plan,
               const ExecOptions& options, std::vector<std::int32_t>& out)
{
    LOCALUT_REQUIRE(problem.config().weightCodec.isInteger() &&
                        problem.config().actCodec.isInteger(),
                    "integer execution on float codecs");
    executeTyped<std::int32_t, true>(problem, plan, options, out);
}

void
executeGemmFloat(const GemmProblem& problem, const GemmPlan& plan,
                 const ExecOptions& options, std::vector<float>& out)
{
    executeTyped<float, false>(problem, plan, options, out);
}

} // namespace localut
