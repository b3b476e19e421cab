#ifndef LOCALUT_BACKEND_BACKEND_H_
#define LOCALUT_BACKEND_BACKEND_H_

/**
 * @file
 * The backend abstraction: every PIM (or comparison) device model the
 * library can dispatch a quantized GEMM to implements this interface.
 * Five implementations ship with the library and register themselves in
 * the factory (see makeBackend()):
 *
 *  - "upmem"     UPMEM-class server model (src/kernels + src/upmem), the
 *                paper's main evaluation platform;
 *  - "bankpim"   bank-level PIM command model (src/banklevel, Fig. 20/21);
 *  - "host-cpu"  Xeon roofline (src/hostsim) + the reference kernels;
 *  - "host-gpu"  RTX 2080 Ti roofline + the reference kernels;
 *  - "upmem-sim" "upmem" with DPU-phase timing from the trace-driven
 *                cycle-level micro-simulator (src/upmemsim) instead of
 *                the analytical closed form; numerics are bit-exact with
 *                "upmem".
 *
 * Backends are stateless after construction: plan() and execute() are
 * const and safe to call from several threads at once, which is what lets
 * InferenceSession (serving/session.h) fan requests out over a worker
 * pool.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dram/timing.h"
#include "kernels/gemm.h"

namespace localut {

struct ExecOptions; // kernels/exec_engine.h

/** What a backend can and cannot do (queried by sessions and tests). */
struct BackendCapabilities {
    std::string name;        ///< registry name, e.g. "upmem"
    std::string description; ///< one-line human-readable summary
    bool functionalValues = false; ///< execute() can compute real outputs
    bool honorsOverrides = false;  ///< plan() honors PlanOverrides
    /**
     * execute()'s functional pass is the design-independent reference
     * MAC (host roofline devices): it reads only the decode codebooks
     * of a PreparedGemm, so serving layers skip caching full LUT
     * operands (packed indices, tables) for these backends.
     */
    bool referenceFunctionalOnly = false;
    unsigned parallelUnits = 0;    ///< DPUs / banks / devices
    std::vector<DesignPoint> designPoints; ///< accepted by plan()

    /** True when @p dp is in designPoints. */
    bool supports(DesignPoint dp) const;
};

/**
 * Link + DRAM-stream parameters behind a multi-rank collective (the
 * all-gather / reduce hop of a sharded execution, serving/sharding.h).
 * Each rank drains its output slice out of its DRAM banks (bounded by
 * collectiveDrainCost() over @p dram), then the host link moves the
 * aggregated bytes (bounded by @p link); the slower of the two paces the
 * collective.  Backends override collectiveProfile() to expose their own
 * device's numbers; the defaults model the UPMEM-class platform.
 */
struct CollectiveLinkProfile {
    HostLinkParams link;      ///< host<->device bulk-transfer model
    DramTimingParams dram;    ///< per-bank stream timing for the drain
    DramEnergyParams dramEnergy;
    unsigned banksPerRank = 64;   ///< banks streaming concurrently per rank
    double pjPerLinkByte = 150.0; ///< host link + channel I/O per byte

    /** The host link in LinkTierParams form (drain-side gather rate =
     * link.pimToHostGBs), as collectiveHopCost() prices it. */
    LinkTierParams
    hostLinkTier() const
    {
        return {link.pimToHostGBs, link.launchLatencyUs, pjPerLinkByte};
    }
};

/**
 * Table-memory parameters behind the serving layer's LUT residency
 * manager (serving/residency.h).  Every compute unit (DPU / bank) of a
 * logical rank holds its own copy of each resident table set, so
 * residency is tracked in per-copy bytes against @p lutBytesPerUnit —
 * the same per-unit budget the planner sizes LUTs against
 * (DpuParams::mramLutBudget() on the UPMEM platform).  A table set that
 * is not resident must be broadcast host -> PIM before its GEMM runs;
 * the broadcast fields price that transfer: each table byte crosses the
 * host link ONCE per rank — the on-DIMM broadcast hardware replicates
 * it to every unit of the rank at no extra link cost (the same
 * rank-parallel broadcast path HostLinkParams::hostToPimGBs models) —
 * plus one launch per table set.  Backends override memoryProfile() to
 * expose their own numbers; the defaults model the UPMEM-class
 * platform.
 */
struct MemoryProfile {
    /** MRAM bytes each unit devotes to LUT table sets (the residency
     * budget, in per-copy bytes). */
    std::uint64_t lutBytesPerUnit = 0;
    /** DPUs / banks per logical rank; each holds its own replica, so
     * the physical footprint of b resident bytes is b * unitsPerRank
     * (see lutBytesPerRank()) while link traffic stays per-copy. */
    unsigned unitsPerRank = 1;
    double broadcastGBs = 20.0;      ///< host -> PIM table broadcast rate
    double broadcastLatencyUs = 10.0;///< fixed launch per table broadcast
    double pjPerBroadcastByte = 150.0; ///< broadcast link energy per byte

    /** Physical MRAM devoted to tables across one rank's replicas. */
    std::uint64_t
    lutBytesPerRank() const
    {
        return lutBytesPerUnit * unitsPerRank;
    }
};

/**
 * A device model that plans and executes quantized GEMMs.
 *
 * The contract mirrors GemmEngine: plan() resolves a full execution plan,
 * chargeCosts() produces the raw event accounting for a plan (the same
 * numbers execute() reports), and execute() returns timing/energy plus —
 * when capabilities().functionalValues — the numeric output, which must be
 * bit-exact against referenceGemmInt() for integer configurations on every
 * backend (the cross-backend parity invariant; see tests/test_backend.cc).
 */
class Backend
{
  public:
    virtual ~Backend() = default; ///< backends delete polymorphically

    /** What this device can do (name, functional support, units). */
    virtual const BackendCapabilities& capabilities() const = 0;

    /** Resolves a full execution plan for @p problem under @p design. */
    virtual GemmPlan plan(const GemmProblem& problem, DesignPoint design,
                          const PlanOverrides& overrides = {}) const = 0;

    /** Raw event accounting of executing @p plan (no values). */
    virtual KernelCost chargeCosts(const GemmPlan& plan) const = 0;

    /**
     * Executes a plan.  ExecOptions (kernels/exec_engine.h) carries the
     * functional-pass switch plus the prepared-operand execution knobs:
     * a cached PreparedGemm, a scratch ExecArena, and a TileExecutor to
     * fan the output tiles across threads.  Values are bit-exact
     * regardless of the options (they only change where and how fast
     * the functional pass runs).
     */
    virtual GemmResult execute(const GemmProblem& problem,
                               const GemmPlan& plan,
                               const ExecOptions& options) const = 0;

    /** execute() with default options (functional pass off). */
    GemmResult execute(const GemmProblem& problem,
                       const GemmPlan& plan) const;
    /** execute() with a bare functional-pass switch. */
    GemmResult execute(const GemmProblem& problem, const GemmPlan& plan,
                       bool computeValues) const;

    /**
     * Charges @p ops scalar-equivalent host operations (the non-GEMM
     * transformer work a PIM offload leaves on the host) into the
     * reports.  The base implementation uses the default host compute
     * model; backends with their own host model override it.
     */
    virtual void chargeHostOps(double ops, TimingReport& timing,
                               EnergyReport& energy) const;

    /**
     * Parameters the sharding layer (serving/sharding.h) uses to charge
     * the all-gather / reduce transfer of a multi-rank execution.  The
     * base implementation returns the UPMEM-class defaults.
     */
    virtual CollectiveLinkProfile collectiveProfile() const;

    /**
     * Table-memory budget and broadcast-link parameters the residency
     * manager (serving/residency.h) uses to track which LUT table sets
     * are MRAM-resident per rank and to charge the host -> PIM broadcast
     * of a missing set.  The base implementation returns the UPMEM-class
     * defaults.
     */
    virtual MemoryProfile memoryProfile() const;

    /**
     * Hash of the device configuration behind this backend.  Two
     * backends with the same name() but different configurations (e.g.
     * a custom-rank UpmemBackend) must fingerprint differently: the
     * PlanCache keys plans by (name, fingerprint) so they never alias.
     */
    virtual std::uint64_t configFingerprint() const = 0;

    /** plan() + execute() convenience. */
    GemmResult execute(const GemmProblem& problem, DesignPoint design,
                       bool computeValues = true,
                       const PlanOverrides& overrides = {}) const;

    /** Registry name shorthand (capabilities().name). */
    const std::string& name() const { return capabilities().name; }

  protected:
    /** Shared implementation of chargeHostOps() for a host model. */
    static void chargeHostOpsWith(const HostComputeParams& host, double ops,
                                  TimingReport& timing,
                                  EnergyReport& energy);

    /** Order-dependent field hashing for configFingerprint(). */
    class FingerprintBuilder
    {
      public:
        /** Folds one double field into the fingerprint. */
        FingerprintBuilder& add(double value);
        /** Folds one integer field into the fingerprint. */
        FingerprintBuilder& add(std::uint64_t value);
        /** Folds one string field into the fingerprint. */
        FingerprintBuilder& add(const std::string& value);
        /** The accumulated fingerprint. */
        std::uint64_t value() const { return state_; }

      private:
        std::uint64_t state_ = 0xcbf29ce484222325ull;
    };
};

/** Shared-ownership handle to an immutable backend. */
using BackendPtr = std::shared_ptr<const Backend>;

/**
 * Creates a backend by registry name ("upmem", "bankpim", "host-cpu",
 * "host-gpu", "upmem-sim") with its default device configuration.
 * Fatals on unknown names (listing the registered ones).
 */
BackendPtr makeBackend(const std::string& name);

/** Registered backend names, in registration order. */
std::vector<std::string> backendNames();

/**
 * Registers (or replaces) a named backend factory.  The built-in backends
 * self-register; call this to expose custom device configurations to the
 * name-based lookup, e.g.:
 *
 *     registerBackend("upmem-8rank", [] {
 *         PimSystemConfig cfg = PimSystemConfig::upmemServer();
 *         cfg.ranks = 8;
 *         return std::make_shared<UpmemBackend>(cfg);
 *     });
 */
void registerBackend(const std::string& name,
                     std::function<BackendPtr()> factory);

} // namespace localut

#endif // LOCALUT_BACKEND_BACKEND_H_
