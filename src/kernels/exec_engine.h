#ifndef LOCALUT_KERNELS_EXEC_ENGINE_H_
#define LOCALUT_KERNELS_EXEC_ENGINE_H_

/**
 * @file
 * The prepared-operand functional execution engine.  The legacy
 * functional executors (kernels/functional.h) rebuilt every
 * weight-dependent artifact — packed weight indices, materialized
 * LUT/coefficient tables, decode codebooks — on every GEMM call, and
 * allocated fresh scratch and output vectors each time.  This engine
 * splits execution into:
 *
 *  - PreparedGemm: everything derivable from (weights, plan) alone,
 *    constructed once via prepareGemm() and reusable across calls
 *    (and cacheable: PlanCache::preparedFor() memoizes them alongside
 *    the plans, keyed by the plan key plus a weight-content
 *    fingerprint);
 *  - ExecArena: reusable 64-byte-aligned scratch buffers, so
 *    steady-state execution performs zero heap allocations;
 *  - cache-blocked tile kernels: the output is cut into disjoint
 *    [row-range x column-range] tiles, no more than one per 2^20 MACs
 *    of work, executed through a TileExecutor (common/parallel.h) —
 *    serially by default, or fanned onto the InferenceSession worker
 *    pool / a TilePool.  Each output element's accumulation order is
 *    fixed (activation groups ascending, slice batches ascending under
 *    streaming), so results are bit-exact
 *    against the legacy executors on every backend regardless of tile
 *    scheduling, for integer and floating-point configurations alike.
 *
 * The legacy functional:: entry points now run on this engine with an
 * ad-hoc (uncached) preparation, so there is exactly one inner-loop
 * implementation; "unprepared" execution keeps paying the per-call
 * operand construction and is the baseline bench/exec_throughput.cc
 * compares prepared execution against.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "kernels/design_point.h"
#include "kernels/gemm.h"
#include "lut/canonical_lut.h"
#include "lut/packed_lut.h"
#include "lut/reordering_lut.h"

namespace localut {

/**
 * Reusable aligned scratch buffers.  Buffers grow but never shrink, so
 * once a shape has been executed, re-executing it (or anything smaller)
 * allocates nothing.  Arenas are not thread-safe; tile closures running
 * on pool threads use their own threadLocal() arena.
 */
class ExecArena
{
  public:
    /** Distinct concurrently-live scratch buffers per element type. */
    static constexpr unsigned kSlots = 5;

    ExecArena() = default;
    ExecArena(const ExecArena&) = delete;
    ExecArena& operator=(const ExecArena&) = delete;

    std::int32_t* i32(unsigned slot, std::size_t n);
    float* f32(unsigned slot, std::size_t n);
    std::uint64_t* u64(unsigned slot, std::size_t n);
    std::uint32_t* u32(unsigned slot, std::size_t n);
    std::uint16_t* u16(unsigned slot, std::size_t n);
    std::uint8_t* u8(unsigned slot, std::size_t n);

    /** Times any buffer grew (== heap allocations performed). */
    std::uint64_t allocations() const { return allocations_; }

    /** Total bytes currently reserved across all buffers. */
    std::uint64_t bytesReserved() const { return bytesReserved_; }

    /** The calling thread's arena (created on first use). */
    static ExecArena& threadLocal();

  private:
    struct Buffer {
        void* data = nullptr;
        std::size_t bytes = 0;

        ~Buffer();
    };

    void* raw(Buffer& buffer, std::size_t bytes);

    template <typename T>
    T*
    typed(Buffer (&buffers)[kSlots], unsigned slot, std::size_t n)
    {
        return static_cast<T*>(raw(buffers[slot], n * sizeof(T)));
    }

    Buffer i32_[kSlots];
    Buffer f32_[kSlots];
    Buffer u64_[kSlots];
    Buffer u32_[kSlots];
    Buffer u16_[kSlots];
    Buffer u8_[kSlots];
    std::uint64_t allocations_ = 0;
    std::uint64_t bytesReserved_ = 0;
};

/**
 * Everything execution needs that depends only on (weights, plan):
 * packed weight indices, shared LUT tables, decode codebooks, the LTC
 * bit-affine decomposition, and the canonicalization rank tables.
 * Immutable after construction and safe to share across threads.
 */
struct PreparedGemm {
    DesignPoint design = DesignPoint::LoCaLut;
    QuantConfig config{ValueCodec::signedBinary(),
                       ValueCodec::signedBinary()};
    unsigned p = 1;
    unsigned kSlices = 1;
    bool streaming = false;
    std::size_t m = 0, k = 0;
    unsigned groups = 0;

    /** Group-major packed weight indices, wIdxT*[g * m + mm] (LUT
     * designs) — transposed so the per-(column, group) inner row sweep
     * streams contiguously, and stored at the narrowest width that
     * holds bw * p bits (the sweep is memory-bound on this stream). */
    std::vector<std::uint8_t> wIdxT8;   ///< bw * p <= 8
    std::vector<std::uint16_t> wIdxT16; ///< bw * p <= 16
    std::vector<std::uint64_t> wIdxT64; ///< wider packings

    /** Decode codebooks, indexed by raw code (always present). */
    std::vector<std::int32_t> wDecode; ///< integer weight codecs only
    std::vector<float> wDecodeF;
    std::vector<std::int32_t> aDecode; ///< integer activation codecs only
    std::vector<float> aDecodeF;

    /** LTC bit-affine decomposition + per-(row, plane, group) table
     * indices, ltcIdx[(mm * bw + j) * groups + g]. */
    std::vector<std::int64_t> ltcCoeff;
    std::int64_t ltcBase = 0;
    std::vector<std::uint8_t> ltcIdx;

    /** Canonicalization rank tables: binom[i * (alphabet + p) + z] =
     * C(z, i + 1), so per-group multiset ranking is table lookups
     * instead of repeated binomial evaluation. */
    std::vector<std::uint64_t> msBinom;

    /** Shared LUT tables (null for designs that do not use them). */
    std::shared_ptr<const OperationPackedLut> opLut;
    std::shared_ptr<const CanonicalLut> canonicalLut;
    std::shared_ptr<const ReorderingLut> reorderLut;

    /**
     * True when this preparation fits (@p problem, @p plan): same
     * shape, quantization config, and design/packing resolution.
     * Weight CONTENT agreement is deliberately not checked — that
     * would put an O(M*K) hash back on every call — and is the
     * caller's contract: PlanCache::preparedFor() keys operands by
     * weightsFingerprint(), and direct users hold one PreparedGemm per
     * problem.
     */
    bool matches(const GemmProblem& problem, const GemmPlan& plan) const;

    /** Bytes held by the weight-dependent members (cache sizing). */
    std::uint64_t bytes() const;
};

/**
 * Content fingerprint of a weight matrix (shape, codec, codes).  Part
 * of the prepared-operand cache key: two same-shaped problems with
 * different weights must never share a PreparedGemm.
 */
std::uint64_t weightsFingerprint(const QuantizedMatrix& w);

/**
 * Builds the prepared operand for (@p problem, @p plan).  LUT tables
 * come from the shared LutTableCache, so every execution path,
 * including the ad-hoc "unprepared" one, amortizes table construction
 * across the process.
 */
std::shared_ptr<PreparedGemm> prepareGemm(const GemmProblem& problem,
                                          const GemmPlan& plan);

/** Per-execution knobs threaded through Backend::execute(). */
struct ExecOptions {
    /** Run the functional pass (false = cost accounting only). */
    bool computeValues = true;
    /**
     * Prepared operand for this (problem, plan); null prepares ad hoc.
     * Must satisfy prepared->matches(problem, plan) — shape/config/
     * plan-resolution mismatches fatal.  matches() does NOT re-hash
     * weight content (see its doc); supplying an operand built from
     * different same-shaped weights is undetected caller error.
     */
    const PreparedGemm* prepared = nullptr;
    /** Scratch arena; null uses the calling thread's arena. */
    ExecArena* arena = nullptr;
    /** Tile executor; null runs tiles serially on the calling thread. */
    const TileExecutor* tiles = nullptr;
};

/**
 * Functional execution of (@p problem, @p plan) into @p out (resized to
 * m * n; reusing a warm vector keeps the steady state allocation-free).
 * Integer configurations only; bit-exact against the legacy
 * functional:: executors for every design point.
 */
void executeGemmInt(const GemmProblem& problem, const GemmPlan& plan,
                    const ExecOptions& options,
                    std::vector<std::int32_t>& out);

/** Float counterpart (floating-point symbol configurations). */
void executeGemmFloat(const GemmProblem& problem, const GemmPlan& plan,
                      const ExecOptions& options, std::vector<float>& out);

} // namespace localut

#endif // LOCALUT_KERNELS_EXEC_ENGINE_H_
