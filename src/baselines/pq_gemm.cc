#include "baselines/pq_gemm.h"

#include "common/bitops.h"
#include "common/logging.h"
#include "kernels/cost_tables.h"

namespace localut {

PqParams
pimDlParams()
{
    // PIM-DL-class configuration: large codebooks keep accuracy near the
    // baseline, at the price of a host-side centroid search that
    // dominates end-to-end time (paper Fig. 16a).
    PqParams p;
    p.subvecLen = 8;
    p.centroids = 256;
    p.metric = DistanceMetric::L2;
    p.centroidSelectSpeedup = 1.0;
    return p;
}

PqParams
lutDlaParams(DistanceMetric metric)
{
    // LUT-DLA: smaller codebooks plus a similarity engine make centroid
    // selection cheaper than PIM-DL's CPU search (L1 is the cheaper
    // datapath); accuracy gives a little back.
    PqParams p;
    p.subvecLen = 8;
    p.centroids = 64;
    p.metric = metric;
    p.centroidSelectSpeedup = metric == DistanceMetric::L1 ? 4.0 : 3.0;
    return p;
}

PqGemmResult
PqGemmEngine::run(const std::vector<float>& w, const std::vector<float>& a,
                  std::size_t m, std::size_t k, std::size_t n,
                  bool computeValues) const
{
    LOCALUT_REQUIRE(w.size() == m * k && a.size() == k * n,
                    "PQ GEMM shape mismatch");
    const unsigned d = params_.subvecLen;
    const unsigned c = params_.centroids;
    const std::size_t subspaces = ceilDiv(k, std::size_t{d});

    PqGemmResult result;

    // ---- Offline codebook training on a calibration split ----
    // Codebooks are learned from the first half of the columns (at most
    // 512 calibration points) and then applied to every column — the
    // calibration-data practice of PIM-DL/LUT-DLA; training cost is
    // offline and not charged.  Skipped entirely for timing-only runs.
    std::vector<std::vector<float>> codebooks(subspaces);
    std::vector<std::uint32_t> codes;
    if (computeValues) {
        codes.resize(subspaces * n);
        const std::size_t calib =
            std::min<std::size_t>(512, std::max<std::size_t>(1, n / 2));
        for (std::size_t s = 0; s < subspaces; ++s) {
            std::vector<float> pts(calib * d, 0.0f);
            for (std::size_t j = 0; j < calib; ++j) {
                for (unsigned e = 0; e < d; ++e) {
                    const std::size_t kk = s * d + e;
                    pts[j * d + e] = kk < k ? a[kk * n + j] : 0.0f;
                }
            }
            const unsigned kEff = static_cast<unsigned>(
                std::min<std::size_t>(c, calib));
            KMeansResult km =
                kmeans(pts, calib, d, kEff, params_.kmeansIters,
                       params_.metric, params_.seed + s);
            result.codebookInertia += km.inertia;
            codebooks[s] = std::move(km.centroids);
            // Runtime centroid selection for every column (the host work
            // charged below).
            std::vector<float> sub(d);
            for (std::size_t j = 0; j < n; ++j) {
                for (unsigned e = 0; e < d; ++e) {
                    const std::size_t kk = s * d + e;
                    sub[e] = kk < k ? a[kk * n + j] : 0.0f;
                }
                codes[s * n + j] = nearestCentroid(sub.data(), codebooks[s],
                                                   d, params_.metric);
            }
        }
    }

    // ---- Cost accounting ----
    // Partitioning mirrors the GemmEngine: maximize DPU usage over (M, N).
    const unsigned totalDpus = system_.totalDpus();
    const unsigned gN = static_cast<unsigned>(
        std::min<std::size_t>(n, totalDpus));
    const unsigned gM = static_cast<unsigned>(std::min<std::size_t>(
        m, std::max<unsigned>(1, totalDpus / gN)));
    const double tileM = static_cast<double>(ceilDiv(m, std::size_t{gM}));
    const double tileN = static_cast<double>(ceilDiv(n, std::size_t{gN}));
    const unsigned dpusUsed = gM * gN;

    KernelCost& cost = result.cost;
    // Host: centroid selection — c distance evaluations of length d per
    // (subspace, column); each distance op is ~2 scalar ops.
    cost.addHostOps(Phase::HostCentroid,
                    static_cast<double>(subspaces) * n * c * d * 2.0 /
                        params_.centroidSelectSpeedup);
    cost.addHostOps(Phase::HostDequant,
                    cost::kHostDequantOpsPerElem * static_cast<double>(m) *
                        static_cast<double>(n));
    // Link: one code byte per (subspace, column), replicated across gM.
    cost.addLinkBytes(Phase::LinkActIn,
                      static_cast<double>(subspaces) * tileN * dpusUsed);
    cost.addLinkBytes(Phase::LinkOut,
                      static_cast<double>(m) * static_cast<double>(n) * 4.0);
    // DPU: LUT rows for the tile streamed from MRAM (entries are fp16-
    // scale 2-byte fixed point in PIM-DL), reused across all columns.
    const double lutRowBytes = static_cast<double>(subspaces) * c * 2.0;
    cost.addDma(Phase::LutLoadDma, tileM * lutRowBytes, tileM);
    cost.addDma(Phase::OperandDma, static_cast<double>(subspaces) * tileN,
                tileN);
    cost.addDma(Phase::OutputDma, tileM * tileN * 4.0, tileM);
    // DPU: gather-and-add per (m, subspace, column): load code (1),
    // address (2), load entry (1), add (1), loop (1) => 6.
    cost.addInstr(Phase::CanonicalAccess,
                  tileM * static_cast<double>(subspaces) * tileN * 6.0);

    const CostEvaluator eval(system_);
    result.timing = eval.timing(cost, dpusUsed);
    result.energy = eval.energy(cost, dpusUsed, result.timing);

    if (!computeValues) {
        return result;
    }

    // ---- Functional: LUT[m][s][centroid] built offline, gathered ----
    result.out.assign(m * n, 0.0f);
    std::vector<float> lut(static_cast<std::size_t>(m) * c);
    for (std::size_t s = 0; s < subspaces; ++s) {
        // Build this subspace's LUT slice: dot(W_m subvec, centroid).
        for (std::size_t i = 0; i < m; ++i) {
            for (unsigned cc = 0; cc < c && cc * d < codebooks[s].size();
                 ++cc) {
                float dot = 0.0f;
                for (unsigned e = 0; e < d; ++e) {
                    const std::size_t kk = s * d + e;
                    if (kk < k) {
                        dot += w[i * k + kk] * codebooks[s][cc * d + e];
                    }
                }
                lut[i * c + cc] = dot;
            }
        }
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                result.out[i * n + j] += lut[i * c + codes[s * n + j]];
            }
        }
    }
    return result;
}

} // namespace localut
