#ifndef LOCALUT_LUT_CANONICAL_LUT_H_
#define LOCALUT_LUT_CANONICAL_LUT_H_

/**
 * @file
 * The canonical LUT (paper Section IV-A, Fig. 4): the operation-packed LUT
 * with duplicate columns removed.  Columns are indexed by the multiset
 * rank of the sorted activation group; rows by the canonically-reordered
 * packed weight vector.
 *
 * Columns are the unit of slice streaming, so the interface is
 * column-centric: column(col) returns one contiguous slice, exactly what
 * the hardware DMAs into the local buffer.
 */

#include <cstdint>
#include <vector>

#include "lut/lut_shape.h"

namespace localut {

/**
 * Canonical LUT with two storage modes:
 *  - materialized: the whole table is built eagerly (column-major);
 *  - virtual: entries are computed on demand (for shapes whose full size
 *    exceeds the materialization limit, e.g. FP16-activation columns).
 * Both modes are functionally identical; the capacity model (not this
 * class) decides what fits which memory.
 */
class CanonicalLut
{
  public:
    explicit CanonicalLut(const LutShape& shape,
                          std::uint64_t materializeLimitBytes =
                              std::uint64_t{1} << 28);

    const LutShape& shape() const { return shape_; }
    bool materialized() const { return materialized_; }

    std::uint64_t rows() const { return rows_; }
    std::uint64_t cols() const { return cols_; }

    /** Bytes of one column slice at the modeled entry width. */
    std::uint64_t sliceBytes() const { return rows_ * shape_.outBytes; }

    /** Single integer entry. */
    std::int32_t lookupInt(std::uint64_t col, std::uint64_t wIdx) const;

    /** Single float entry (rounded to fp16 storage, see DESIGN.md). */
    float lookupFloat(std::uint64_t col, std::uint64_t wIdx) const;

    /** One full integer column slice (size rows()). */
    std::vector<std::int32_t> columnInt(std::uint64_t col) const;

    /**
     * Allocation-free column slice into caller storage (size rows()):
     * a memcpy when materialized, a recompute in virtual mode.  The
     * execution engine's fused-slice builds and slice streaming use
     * these so steady-state execution performs no heap allocations.
     */
    void columnIntInto(std::uint64_t col, std::int32_t* out) const;
    void columnFloatInto(std::uint64_t col, float* out) const;

    /**
     * Raw column-major entry storage for the materialized fast path
     * (entry (col, wIdx) at [col * rows() + wIdx]); nullptr in virtual
     * mode or for the other element type.
     */
    const std::int32_t*
    dataInt() const
    {
        return materialized_ && !entriesInt_.empty() ? entriesInt_.data()
                                                     : nullptr;
    }

    const float*
    dataFloat() const
    {
        return materialized_ && !entriesFloat_.empty()
                   ? entriesFloat_.data()
                   : nullptr;
    }

  private:
    void computeColumnInt(std::uint64_t col, std::int32_t* out) const;
    void computeColumnFloat(std::uint64_t col, float* out) const;

    LutShape shape_;
    std::uint64_t rows_;
    std::uint64_t cols_;
    bool materialized_ = false;
    std::vector<std::int32_t> entriesInt_;  ///< column-major when materialized
    std::vector<float> entriesFloat_;
    std::vector<std::int32_t> wDec_; ///< pre-decoded weight alphabet (int)
    std::vector<float> wDecF_;       ///< pre-decoded weight alphabet (float)
};

} // namespace localut

#endif // LOCALUT_LUT_CANONICAL_LUT_H_
