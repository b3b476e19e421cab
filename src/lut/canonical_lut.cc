#include "lut/canonical_lut.h"

#include "common/bitops.h"
#include "common/logging.h"
#include "lut/capacity.h"

namespace localut {

CanonicalLut::CanonicalLut(const LutShape& shape,
                           std::uint64_t materializeLimitBytes)
    : shape_(shape), rows_(shape.weightRows()),
      cols_(shape.canonicalColumns())
{
    if (shape_.wCodec.isInteger()) {
        wDec_.resize(shape_.wCodec.cardinality());
        for (std::uint64_t c = 0; c < wDec_.size(); ++c) {
            wDec_[c] = shape_.wCodec.decodeInt(static_cast<std::uint32_t>(c));
        }
    }
    wDecF_.resize(shape_.wCodec.cardinality());
    for (std::uint64_t c = 0; c < wDecF_.size(); ++c) {
        wDecF_[c] = shape_.wCodec.decode(static_cast<std::uint32_t>(c));
    }

    const unsigned __int128 funcBytes =
        static_cast<unsigned __int128>(rows_) * cols_ * 4;
    materialized_ = funcBytes <= materializeLimitBytes;
    if (!materialized_) {
        return;
    }
    if (shape_.isInteger()) {
        entriesInt_.resize(rows_ * cols_);
        for (std::uint64_t col = 0; col < cols_; ++col) {
            computeColumnInt(col, &entriesInt_[col * rows_]);
        }
    } else {
        entriesFloat_.resize(rows_ * cols_);
        for (std::uint64_t col = 0; col < cols_; ++col) {
            computeColumnFloat(col, &entriesFloat_[col * rows_]);
        }
    }
}

void
CanonicalLut::computeColumnInt(std::uint64_t col, std::int32_t* out) const
{
    const unsigned p = shape_.p;
    std::vector<std::uint16_t> aCodes(p);
    multisetUnrank(col, shape_.aCodec.cardinality(), aCodes);
    std::vector<std::int32_t> aVal(p);
    for (unsigned i = 0; i < p; ++i) {
        aVal[i] = shape_.aCodec.decodeInt(aCodes[i]);
    }
    std::vector<std::uint16_t> wCodes(p);
    for (std::uint64_t wIdx = 0; wIdx < rows_; ++wIdx) {
        unpackCodes(wIdx, shape_.bw(), wCodes);
        std::int32_t acc = 0;
        for (unsigned i = 0; i < p; ++i) {
            acc += wDec_[wCodes[i]] * aVal[i];
        }
        out[wIdx] = acc;
    }
}

void
CanonicalLut::computeColumnFloat(std::uint64_t col, float* out) const
{
    const unsigned p = shape_.p;
    std::vector<std::uint16_t> aCodes(p);
    multisetUnrank(col, shape_.aCodec.cardinality(), aCodes);
    std::vector<float> aVal(p);
    for (unsigned i = 0; i < p; ++i) {
        aVal[i] = shape_.aCodec.decode(aCodes[i]);
    }
    std::vector<std::uint16_t> wCodes(p);
    for (std::uint64_t wIdx = 0; wIdx < rows_; ++wIdx) {
        unpackCodes(wIdx, shape_.bw(), wCodes);
        float acc = 0.0f;
        for (unsigned i = 0; i < p; ++i) {
            acc += wDecF_[wCodes[i]] * aVal[i];
        }
        // Model the 2-byte entry storage of the hardware LUT.
        out[wIdx] = shape_.outBytes <= 2 ? roundToFp16(acc) : acc;
    }
}

std::int32_t
CanonicalLut::lookupInt(std::uint64_t col, std::uint64_t wIdx) const
{
    LOCALUT_ASSERT(col < cols_ && wIdx < rows_, "canonical LUT index OOB");
    if (materialized_) {
        return entriesInt_[col * rows_ + wIdx];
    }
    // Virtual mode: compute just this entry.
    const unsigned p = shape_.p;
    std::vector<std::uint16_t> aCodes(p);
    multisetUnrank(col, shape_.aCodec.cardinality(), aCodes);
    std::vector<std::uint16_t> wCodes(p);
    unpackCodes(wIdx, shape_.bw(), wCodes);
    std::int32_t acc = 0;
    for (unsigned i = 0; i < p; ++i) {
        acc += wDec_[wCodes[i]] * shape_.aCodec.decodeInt(aCodes[i]);
    }
    return acc;
}

float
CanonicalLut::lookupFloat(std::uint64_t col, std::uint64_t wIdx) const
{
    LOCALUT_ASSERT(col < cols_ && wIdx < rows_, "canonical LUT index OOB");
    if (materialized_) {
        return entriesFloat_[col * rows_ + wIdx];
    }
    const unsigned p = shape_.p;
    std::vector<std::uint16_t> aCodes(p);
    multisetUnrank(col, shape_.aCodec.cardinality(), aCodes);
    std::vector<std::uint16_t> wCodes(p);
    unpackCodes(wIdx, shape_.bw(), wCodes);
    float acc = 0.0f;
    for (unsigned i = 0; i < p; ++i) {
        acc += wDecF_[wCodes[i]] * shape_.aCodec.decode(aCodes[i]);
    }
    return shape_.outBytes <= 2 ? roundToFp16(acc) : acc;
}

void
CanonicalLut::columnIntInto(std::uint64_t col, std::int32_t* out) const
{
    LOCALUT_ASSERT(col < cols_, "canonical LUT column OOB");
    if (materialized_) {
        std::copy(entriesInt_.begin() +
                      static_cast<std::ptrdiff_t>(col * rows_),
                  entriesInt_.begin() +
                      static_cast<std::ptrdiff_t>((col + 1) * rows_),
                  out);
    } else {
        computeColumnInt(col, out);
    }
}

void
CanonicalLut::columnFloatInto(std::uint64_t col, float* out) const
{
    LOCALUT_ASSERT(col < cols_, "canonical LUT column OOB");
    if (materialized_) {
        std::copy(entriesFloat_.begin() +
                      static_cast<std::ptrdiff_t>(col * rows_),
                  entriesFloat_.begin() +
                      static_cast<std::ptrdiff_t>((col + 1) * rows_),
                  out);
    } else {
        computeColumnFloat(col, out);
    }
}

std::vector<std::int32_t>
CanonicalLut::columnInt(std::uint64_t col) const
{
    LOCALUT_ASSERT(col < cols_, "canonical LUT column OOB");
    std::vector<std::int32_t> slice(rows_);
    if (materialized_) {
        std::copy(entriesInt_.begin() +
                      static_cast<std::ptrdiff_t>(col * rows_),
                  entriesInt_.begin() +
                      static_cast<std::ptrdiff_t>((col + 1) * rows_),
                  slice.begin());
    } else {
        computeColumnInt(col, slice.data());
    }
    return slice;
}

} // namespace localut
