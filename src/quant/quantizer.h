#ifndef LOCALUT_QUANT_QUANTIZER_H_
#define LOCALUT_QUANT_QUANTIZER_H_

/**
 * @file
 * Uniform symmetric per-tensor quantization into codec symbols, the WxAy
 * preset configurations used throughout the paper's evaluation, and the
 * quantized-matrix container the kernels consume.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "quant/codec.h"

namespace localut {

/**
 * A weight/activation bitwidth configuration (paper notation WxAy).
 *
 * Integer presets follow the paper's sources: 1-bit weights are signed
 * binary {-1,+1} (BinaryBERT), >= 2-bit weights and all integer activations
 * are two's complement.  Floating-point presets (Fig. 21) keep 1-bit
 * signed-binary weights and use FP4/FP8/FP16 activation symbols.
 */
struct QuantConfig {
    ValueCodec weightCodec;
    ValueCodec actCodec;

    unsigned bw() const { return weightCodec.bits(); }
    unsigned ba() const { return actCodec.bits(); }

    bool operator==(const QuantConfig&) const = default;

    /** "W1A3", "W1A4", "W2A2", "W4A4", "W1A8", "W1A16" ... */
    std::string name() const;

    /** Parses a preset name; fatals on unknown names. */
    static QuantConfig preset(const std::string& name);

    /** Floating-point preset: signed-binary or intN weights, fpY acts. */
    static QuantConfig fpPreset(unsigned bw, unsigned ba);

    /** All integer configs evaluated in Fig. 9/10/14: W1A3 W1A4 W2A2 W4A4. */
    static std::vector<QuantConfig> paperConfigs();
};

/** A quantized matrix: row-major codes plus the dequantization scale. */
struct QuantizedMatrix {
    std::size_t rows = 0;
    std::size_t cols = 0;
    ValueCodec codec = ValueCodec::signedBinary();
    std::vector<std::uint16_t> codes; ///< row-major, one symbol per element
    float scale = 1.0f;               ///< value = decode(code) * scale

    std::uint16_t
    at(std::size_t r, std::size_t c) const
    {
        return codes[r * cols + c];
    }

    /** Bytes when bit-packed at codec.bits() per element. */
    std::uint64_t packedBytes() const;
};

/** Uniform symmetric per-tensor quantizer. */
class Quantizer
{
  public:
    /**
     * Quantizes @p data (row-major rows x cols) with scale =
     * maxAbs / codec.maxAbsValue() (scale 1 when the input is all zero).
     */
    static QuantizedMatrix quantize(std::span<const float> data,
                                    std::size_t rows, std::size_t cols,
                                    ValueCodec codec);

    /**
     * ACIQ-style clipped symmetric quantization: the range is clipped at
     * clipStds standard deviations instead of the absolute maximum, which
     * is what makes aggressive (<= 4-bit) post-training quantization
     * usable — the prior-art quantizers the paper adopts all clip.
     */
    static QuantizedMatrix quantizeClipped(std::span<const float> data,
                                           std::size_t rows,
                                           std::size_t cols,
                                           ValueCodec codec, float clipStds);

    /** Recommended clip factor (stddevs) per bitwidth (ACIQ-style). */
    static float recommendedClipStds(unsigned bits);

    /** Dequantizes back to floats (size rows*cols). */
    static std::vector<float> dequantize(const QuantizedMatrix& qm);
};

/**
 * Reference integer GEMM on codes: out[m][n] = sum_k wDec(W[m][k]) *
 * aDec(A[k][n]).  This is the ground truth every LUT design point must
 * reproduce bit-exactly.
 */
std::vector<std::int32_t> referenceGemmInt(const QuantizedMatrix& w,
                                           const QuantizedMatrix& a);

/** Float-decode reference GEMM (for FP symbol configs). */
std::vector<float> referenceGemmFloat(const QuantizedMatrix& w,
                                      const QuantizedMatrix& a);

} // namespace localut

#endif // LOCALUT_QUANT_QUANTIZER_H_
