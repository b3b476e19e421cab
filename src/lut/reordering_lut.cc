#include "lut/reordering_lut.h"

#include "common/bitops.h"
#include "common/combinatorics.h"
#include "common/logging.h"

namespace localut {

ReorderingLut::ReorderingLut(const LutShape& shape,
                             std::uint64_t materializeLimitBytes)
    : shape_(shape), rows_(shape.weightRows()), cols_(shape.reorderColumns())
{
    const unsigned __int128 funcBytes =
        static_cast<unsigned __int128>(rows_) * cols_ * 4;
    LOCALUT_REQUIRE(funcBytes <= materializeLimitBytes,
                    "reordering LUT too large to materialize");

    const unsigned p = shape_.p;
    const unsigned bw = shape_.bw();
    entries_.resize(rows_ * cols_);
    std::vector<std::uint8_t> perm(p);
    std::vector<std::uint16_t> wCodes(p);
    std::vector<std::uint16_t> reordered(p);
    for (std::uint64_t permRank = 0; permRank < cols_; ++permRank) {
        permutationUnrank(static_cast<std::uint32_t>(permRank), perm);
        for (std::uint64_t wIdx = 0; wIdx < rows_; ++wIdx) {
            unpackCodes(wIdx, bw, wCodes);
            // sorted[i] = orig[perm[i]] on the host, so the weight paired
            // with sorted activation i is orig weight perm[i].
            for (unsigned i = 0; i < p; ++i) {
                reordered[i] = wCodes[perm[i]];
            }
            entries_[permRank * rows_ + wIdx] =
                static_cast<std::uint32_t>(packCodes(reordered, bw));
        }
    }
}

} // namespace localut
