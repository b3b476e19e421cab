#ifndef LOCALUT_NN_WORKLOAD_H_
#define LOCALUT_NN_WORKLOAD_H_

/**
 * @file
 * Workload description: the GEMM shapes and host-op counts of one
 * transformer phase (paper Fig. 8 execution flow, Fig. 19 scenarios).
 * This enumeration is the single source of truth shared by the
 * synchronous TransformerRunner (nn/inference.h) and the InferenceSession
 * workload compiler (serving/session.h), so the two paths can never
 * disagree about what a phase executes.
 */

#include <cstddef>
#include <vector>

#include "backend/backend.h"
#include "kernels/exec_engine.h"
#include "nn/transformer.h"

namespace localut {

/** Which phase of autoregressive execution a workload models. */
enum class WorkloadPhase {
    Prefill, ///< all tokens at once; GEMM N = batch * seqLen
    Decode,  ///< one token per step per sequence; GEMM N = batch
};

/** One transformer phase over one model (the unit a session compiles). */
struct WorkloadSpec {
    TransformerConfig model;
    WorkloadPhase phase = WorkloadPhase::Prefill;
    unsigned batch = 1;
    unsigned seqLen = 128;    ///< prefill: sequence length; decode: prompt
    unsigned steps = 1;       ///< decode steps (ignored for prefill)

    /** Prefill of @p batch sequences of @p seqLen tokens. */
    static WorkloadSpec prefill(const TransformerConfig& model,
                                unsigned batch, unsigned seqLen);

    /** Decode of @p steps tokens against a @p promptLen-token context. */
    static WorkloadSpec decode(const TransformerConfig& model,
                               unsigned batch, unsigned promptLen,
                               unsigned steps);

    /**
     * One decode step of @p batch sequences sitting at sequence position
     * @p seqPos (i.e. @p seqPos tokens of context already exist; the
     * step attends over seqPos + 1 tokens).  Exactly
     * decode(model, batch, seqPos, 1): the per-token unit the token
     * engine (serving/token_engine.h) re-batches every step, so a
     * token-by-token decode sums to the whole-workload decode() cost —
     * workloadGemms() shapes are position-independent and
     * workloadHostOps() is the matching single term of decode()'s
     * context loop.
     */
    static WorkloadSpec decodeStep(const TransformerConfig& model,
                                   unsigned batch, unsigned seqPos);
};

/** One distinct PIM GEMM shape of a workload, with its repeat count. */
struct WorkloadGemm {
    std::size_t m = 0, k = 0, n = 0;
    double count = 1;        ///< executions across layers (and steps)
    const char* role = "";   ///< "qkv", "out_proj", "ffn_up", "ffn_down"
    /**
     * Output rows group into units this wide (the attention head size for
     * QKV projections, 1 elsewhere).  A sharded execution must not split
     * a group across ranks: aligning QKV shard boundaries to heads is
     * what makes column-parallel sharding head-parallel for attention.
     */
    std::size_t rowAlign = 1;
};

/** The PIM GEMM shapes of @p spec (paper Fig. 8: QKV, out proj, FFN). */
std::vector<WorkloadGemm> workloadGemms(const WorkloadSpec& spec);

/**
 * Scalar-equivalent host operations of @p spec: attention score/value
 * products, softmax, layer norms, GELU, residual adds — everything the
 * PIM offload leaves on the host.
 */
double workloadHostOps(const WorkloadSpec& spec);

/** Aggregated end-to-end execution report. */
struct InferenceReport {
    TimingReport timing;
    EnergyReport energy;
    double gemmSeconds = 0;  ///< PIM GEMM portion (kernel + its host/link)
    double hostOpSeconds = 0;///< non-GEMM host work
    double collectiveSeconds = 0; ///< sharded all-gather/reduce transfers
    /** Host -> PIM LUT table broadcasts charged by the residency manager
     * (serving/residency.h); 0 when every table set was already resident
     * (steady state) or residency is disabled. */
    double lutBroadcastSeconds = 0;

    /** True when this request paid any first-touch table broadcast. */
    bool coldStart() const { return lutBroadcastSeconds > 0; }

    /** End-to-end seconds excluding the one-time table broadcasts — the
     * steady-state (warm) cost of re-running the same request. */
    double steadySeconds() const
    {
        return timing.total - lutBroadcastSeconds;
    }
};

/** A workload GEMM bound to its resolved execution plan. */
struct PlannedGemm {
    WorkloadGemm gemm;
    GemmPlan plan;
};

/**
 * Modeled steady-state cost of serving one request of a compiled
 * workload — the per-request projection the SLO scheduler's admission
 * control runs against (serving/scheduler.h).  Derived from the same
 * chargeCosts() accounting that execution reports, so projection and
 * "measurement" agree exactly; cold-start LUT broadcasts are *not*
 * included (the scheduler adds them per placement rank).
 */
struct WorkloadCostProjection {
    double gemmSeconds = 0;       ///< PIM GEMM share
    double hostOpSeconds = 0;     ///< non-GEMM host work share
    double collectiveSeconds = 0; ///< sharded all-gather/reduce share

    /** End-to-end modeled seconds per request (sum of the shares). */
    double totalSeconds() const
    {
        return gemmSeconds + hostOpSeconds + collectiveSeconds;
    }
};

/**
 * Projects the steady-state per-request cost of executing @p nodes plus
 * @p hostOps host work on @p backend: exactly executeWorkload()'s
 * timing, without running a functional pass.
 */
WorkloadCostProjection
projectWorkloadCost(const Backend& backend,
                    const std::vector<PlannedGemm>& nodes,
                    const QuantConfig& quant, double hostOps);

/**
 * Executes planned GEMMs (timing-only) plus @p hostOps host work on
 * @p backend and aggregates the report.  The single execution path
 * behind both TransformerRunner and InferenceSession workloads.
 * @p options carries the execution knobs of kernels/exec_engine.h (its
 * computeValues is overridden to false: workload nodes are shape-only).
 */
InferenceReport executeWorkload(const Backend& backend,
                                const std::vector<PlannedGemm>& nodes,
                                const QuantConfig& quant, double hostOps,
                                const ExecOptions& options = {});

} // namespace localut

#endif // LOCALUT_NN_WORKLOAD_H_
