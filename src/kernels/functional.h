#ifndef LOCALUT_KERNELS_FUNCTIONAL_H_
#define LOCALUT_KERNELS_FUNCTIONAL_H_

/**
 * @file
 * Functional (value-computing) executors for the LUT design points.
 * Each indexes the real LUT data structures — the canonical/reordering
 * executors go through the canonical + reordering tables, the
 * slice-streaming executor through materialized column slices — so the
 * test suite can assert that every design point reproduces the
 * reference GEMM bit-exactly.
 *
 * These entry points are thin wrappers over the prepared-operand
 * execution engine (kernels/exec_engine.h): they prepare ad hoc on
 * every call (sharing LUT tables through the global table cache) and
 * run the same tiled kernels serially.  Callers that re-execute the
 * same weights should hold a PreparedGemm (or go through
 * PlanCache::preparedFor()) instead.
 */

#include <cstdint>
#include <vector>

#include "kernels/gemm.h"

namespace localut {
namespace functional {

/** Operation-packed LUT at packing degree @p p. */
std::vector<std::int32_t> opInt(const GemmProblem& problem, unsigned p);

/** How the canonical executor obtains the reordered weight vector. */
enum class ReorderMode {
    Explicit,     ///< runtime unpack/permute/repack (the LC design point)
    ReorderLut,   ///< reordering LUT lookup (RC)
    SliceStream,  ///< reordering + canonical column slices (SS)
};

/** Canonical-LUT execution (LC / RC / SS share this entry point). */
std::vector<std::int32_t> canonicalInt(const GemmProblem& problem,
                                       unsigned p, ReorderMode mode,
                                       unsigned kSlices = 1);

/** Float variants for floating-point symbol configurations. */
std::vector<float> opFloat(const GemmProblem& problem, unsigned p);
std::vector<float> canonicalFloat(const GemmProblem& problem, unsigned p,
                                  ReorderMode mode, unsigned kSlices = 1);

/**
 * Numerically identical to opFloat() but computes LUT entries on demand,
 * for shapes whose full operation-packed table cannot be materialized
 * (large-p accuracy sweeps, Fig. 21b).
 */
std::vector<float> opFloatVirtual(const GemmProblem& problem, unsigned p);

} // namespace functional
} // namespace localut

#endif // LOCALUT_KERNELS_FUNCTIONAL_H_
