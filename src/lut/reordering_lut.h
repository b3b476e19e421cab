#ifndef LOCALUT_LUT_REORDERING_LUT_H_
#define LOCALUT_LUT_REORDERING_LUT_H_

/**
 * @file
 * The reordering LUT (paper Section IV-B, Fig. 5): indexed by the sorted
 * permutation of the activation group (column) and the packed weight
 * vector (row), it returns the packed weight vector permuted into the
 * activations' canonical order — replacing runtime unpack/permute/repack
 * with a single lookup.
 */

#include <cstdint>
#include <vector>

#include "lut/lut_shape.h"

namespace localut {

/** Materialized reordering LUT (column-major, like the canonical LUT). */
class ReorderingLut
{
  public:
    explicit ReorderingLut(const LutShape& shape,
                           std::uint64_t materializeLimitBytes =
                               std::uint64_t{1} << 28);

    const LutShape& shape() const { return shape_; }
    std::uint64_t rows() const { return rows_; }
    std::uint64_t cols() const { return cols_; }

    /** Canonically-reordered packed weight vector. */
    std::uint32_t
    lookup(std::uint32_t permRank, std::uint64_t wIdx) const
    {
        return entries_[permRank * rows_ + wIdx];
    }

    /** Raw column-major entry storage (column @p permRank starts at
     * [permRank * rows()]), for the engine's fused-slice builds. */
    const std::uint32_t* data() const { return entries_.data(); }

  private:
    LutShape shape_;
    std::uint64_t rows_;
    std::uint64_t cols_;
    std::vector<std::uint32_t> entries_;
};

} // namespace localut

#endif // LOCALUT_LUT_REORDERING_LUT_H_
