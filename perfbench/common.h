#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

/**
 * @file
 * Shared pieces of the end-to-end benchmark: run options, the report a
 * workload fills, the metric registry (the single list of metric names
 * and units that run.py writes to BENCHMARK.json), exact statistics, the
 * modeled-output digest, and seeded input generation.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "localut.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** What one invocation measures. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10; ///< measurement budget of the run
    bool trace = false;  ///< per-layer (traced) run instead of end-to-end
};

/** One metric name with its unit and direction. */
struct MetricSpec {
    std::string name;
    std::string unit;
    std::string better; ///< "lower" / "higher"
    /** End-to-end only: the share of the parent's median by which the
     * metric may worsen before a change counts as a regression. */
    double bound = 0;
};

/** End-to-end metrics every workload reports with --trace 0. */
const std::vector<MetricSpec>& endToEndMetrics();
/** Named end-to-end metrics, reported by the workloads they apply to. */
const std::vector<MetricSpec>& namedMetrics();
/** Per-layer metrics every workload reports with --trace 1. */
const std::vector<MetricSpec>& layerMetrics();

/** Everything one workload run reports. */
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0; ///< value-computing or modeled operations
    std::uint64_t failed = 0;    ///< mismatched or thrown operations
    std::map<std::string, double> values; ///< metric name -> value
    std::vector<std::pair<std::string, std::string>> params;
    std::uint64_t digest = 0; ///< hash of every modeled output
    std::vector<std::string> notes;

    void set(const std::string& name, double value) { values[name] = value; }
    void param(const std::string& name, const std::string& value)
    {
        params.emplace_back(name, value);
    }
    /** Marks the run incorrect with a reason. */
    void fail(const std::string& why);
};

/** FNV-1a over the bit patterns of modeled outputs. */
class Digest
{
  public:
    void add(std::uint64_t value);
    void add(double value);
    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/**
 * Whether a run that measures set-up time should set up once more after
 * @p setups: at least 5 set-ups, then more until 3 s have been spent
 * setting up, at most 40 (cheap set-ups get a steadier median).  A run
 * that does not report setup_s sets up once.
 */
bool moreSetups(const std::vector<double>& setups, bool measured);

/** "n=<count> q1/median/q3 = a/b/c" of @p values, for the run's notes. */
std::string spreadNote(const std::vector<double>& values);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * Exact nearest-rank quantile (q in [0, 1]) of @p values: the
 * ceil(q * n)-th smallest sample.  0 when empty.
 */
double quantile(std::vector<double> values, double q);

/**
 * The host-throughput estimator every workload uses: the upper quartile
 * of its per-unit rates (the fastest quarter of decode steps, traces or
 * grid evaluations).  Other tenants of a shared host only ever add time,
 * and they do so in bursts, so this order statistic tracks the program's
 * own cost far more steadily from run to run than the median does.
 */
double hostRate(const std::vector<double>& unitRates);

/** A uniformly random quantized matrix under @p codec. */
localut::QuantizedMatrix randomMatrix(std::size_t rows, std::size_t cols,
                                      const localut::ValueCodec& codec,
                                      localut::Rng& rng);

/**
 * referenceGemmInt() of every (w, a) pair, spread over the host's
 * cores.  Runs in the benchmark's preparation, outside every timed
 * region.
 */
std::vector<std::vector<std::int32_t>> referenceGemms(
    const std::vector<std::pair<const localut::QuantizedMatrix*,
                                const localut::QuantizedMatrix*>>& pairs);

/** The deployment every workload serves: W4A4 on "upmem", LoCaLUT. */
localut::QuantConfig benchQuant();
inline constexpr localut::DesignPoint kDesign = localut::DesignPoint::LoCaLut;
inline constexpr const char* kBackendName = "upmem";

/** Workload entry points. */
void runDecode(const RunOptions& options, Report& report);
void runGemmServing(const RunOptions& options, Report& report);
void runConversations(const RunOptions& options, Report& report);
void runPaperGrid(const RunOptions& options, Report& report);

/**
 * backend.phase_share.{localut,naive}.<phase>: modeled phase shares of
 * LoCaLUT and NaivePIM summed over the fig09 grid on @p backend.
 */
void reportFig09PhaseShares(const localut::BackendPtr& backend,
                            Report& report);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H_
