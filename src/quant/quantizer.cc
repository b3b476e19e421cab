#include "quant/quantizer.h"

#include <cmath>

#include "common/bitops.h"
#include "common/logging.h"

namespace localut {

std::string
QuantConfig::name() const
{
    std::string act = actCodec.isInteger()
                          ? std::to_string(ba())
                          : std::to_string(ba()); // fp configs share notation
    return "W" + std::to_string(bw()) + "A" + act;
}

QuantConfig
QuantConfig::preset(const std::string& name)
{
    auto intActs = [](unsigned ba) {
        return ba == 1 ? ValueCodec::unsignedInt(1)
                       : ValueCodec::twosComplement(ba);
    };
    auto intWeights = [](unsigned bw) {
        return bw == 1 ? ValueCodec::signedBinary()
                       : ValueCodec::twosComplement(bw);
    };
    if (name == "W1A3") return {intWeights(1), intActs(3)};
    if (name == "W1A4") return {intWeights(1), intActs(4)};
    if (name == "W2A2") return {intWeights(2), intActs(2)};
    if (name == "W4A4") return {intWeights(4), intActs(4)};
    if (name == "W1A2") return {intWeights(1), intActs(2)};
    if (name == "W2A4") return {intWeights(2), intActs(4)};
    if (name == "W1A8") return {intWeights(1), intActs(8)};
    LOCALUT_FATAL("unknown quantization preset '", name, "'");
}

QuantConfig
QuantConfig::fpPreset(unsigned bw, unsigned ba)
{
    ValueCodec w = bw == 1 ? ValueCodec::signedBinary()
                           : ValueCodec::twosComplement(bw);
    ValueCodec a = ValueCodec::fp16();
    if (ba == 4) {
        a = ValueCodec::fp4();
    } else if (ba == 8) {
        a = ValueCodec::fp8();
    } else {
        LOCALUT_REQUIRE(ba == 16, "fp activations must be 4/8/16 bits");
    }
    return {w, a};
}

std::vector<QuantConfig>
QuantConfig::paperConfigs()
{
    return {preset("W1A3"), preset("W1A4"), preset("W2A2"), preset("W4A4")};
}

std::uint64_t
QuantizedMatrix::packedBytes() const
{
    return bytesForBits(static_cast<std::uint64_t>(rows) * cols *
                        codec.bits());
}

QuantizedMatrix
Quantizer::quantize(std::span<const float> data, std::size_t rows,
                    std::size_t cols, ValueCodec codec)
{
    LOCALUT_REQUIRE(data.size() == rows * cols,
                    "data size mismatch: ", data.size(), " vs ", rows * cols);
    float maxAbs = 0.0f;
    for (float v : data) {
        maxAbs = std::fmax(maxAbs, std::fabs(v));
    }
    QuantizedMatrix qm;
    qm.rows = rows;
    qm.cols = cols;
    qm.codec = codec;
    qm.scale = maxAbs > 0.0f ? maxAbs / codec.maxAbsValue() : 1.0f;
    qm.codes.resize(rows * cols);
    for (std::size_t i = 0; i < data.size(); ++i) {
        qm.codes[i] = static_cast<std::uint16_t>(
            codec.encodeNearest(data[i] / qm.scale));
    }
    return qm;
}

QuantizedMatrix
Quantizer::quantizeClipped(std::span<const float> data, std::size_t rows,
                           std::size_t cols, ValueCodec codec,
                           float clipStds)
{
    LOCALUT_REQUIRE(data.size() == rows * cols, "data size mismatch");
    LOCALUT_REQUIRE(clipStds > 0.0f, "clip factor must be positive");
    double sum = 0.0, sumSq = 0.0;
    for (float v : data) {
        sum += v;
        sumSq += static_cast<double>(v) * v;
    }
    const double nElems = static_cast<double>(data.size());
    const double var = std::max(0.0, sumSq / nElems -
                                         (sum / nElems) * (sum / nElems));
    const float clip = clipStds * static_cast<float>(std::sqrt(var));

    QuantizedMatrix qm;
    qm.rows = rows;
    qm.cols = cols;
    qm.codec = codec;
    qm.scale = clip > 0.0f ? clip / codec.maxAbsValue() : 1.0f;
    qm.codes.resize(rows * cols);
    for (std::size_t i = 0; i < data.size(); ++i) {
        qm.codes[i] = static_cast<std::uint16_t>(
            codec.encodeNearest(data[i] / qm.scale));
    }
    return qm;
}

float
Quantizer::recommendedClipStds(unsigned bits)
{
    // ACIQ-style optimal clipping of a Gaussian for b-bit uniform grids.
    switch (bits) {
      case 1:  return 1.0f;
      case 2:  return 1.7f;
      case 3:  return 2.5f;
      case 4:  return 3.9f;
      default: return 5.0f;
    }
}

std::vector<float>
Quantizer::dequantize(const QuantizedMatrix& qm)
{
    std::vector<float> out(qm.rows * qm.cols);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = qm.codec.decode(qm.codes[i]) * qm.scale;
    }
    return out;
}

std::vector<std::int32_t>
referenceGemmInt(const QuantizedMatrix& w, const QuantizedMatrix& a)
{
    LOCALUT_REQUIRE(w.cols == a.rows, "GEMM shape mismatch: W is ", w.rows,
                    "x", w.cols, ", A is ", a.rows, "x", a.cols);
    LOCALUT_REQUIRE(w.codec.isInteger() && a.codec.isInteger(),
                    "integer reference GEMM on float codecs");
    const std::size_t m = w.rows, k = w.cols, n = a.cols;
    std::vector<std::int32_t> out(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const std::int32_t wv = w.codec.decodeInt(w.at(i, kk));
            if (wv == 0) {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j) {
                out[i * n + j] += wv * a.codec.decodeInt(a.at(kk, j));
            }
        }
    }
    return out;
}

std::vector<float>
referenceGemmFloat(const QuantizedMatrix& w, const QuantizedMatrix& a)
{
    LOCALUT_REQUIRE(w.cols == a.rows, "GEMM shape mismatch");
    const std::size_t m = w.rows, k = w.cols, n = a.cols;
    std::vector<float> out(m * n, 0.0f);
    std::vector<float> aDec(k * n);
    for (std::size_t i = 0; i < k * n; ++i) {
        aDec[i] = a.codec.decode(a.codes[i]);
    }
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float wv = w.codec.decode(w.at(i, kk));
            if (wv == 0.0f) {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j) {
                out[i * n + j] += wv * aDec[kk * n + j];
            }
        }
    }
    return out;
}

} // namespace localut
