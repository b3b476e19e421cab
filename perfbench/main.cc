/**
 * @file
 * The benchmark binary: parses the run options, runs one seeded
 * workload, and prints every metric by name and unit.  The last line of
 * standard output is one JSON object with exactly the keys `correct`,
 * `attempted`, `failed` and `metrics`: the end-to-end metrics of an
 * untraced run (--trace 0) or the per-layer metrics of a traced run
 * (--trace 1).  Exits 1 when any computed value mismatches its
 * reference, any operation throws, or the traced run's modeled digest
 * differs from its untraced pass.
 *
 *     perfbench --workload decode --seed 7 --seconds 20 --trace 0
 *     perfbench --list-metrics      # registry as JSON (BENCHMARK.json)
 */

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common.h"

namespace perfbench {

using namespace localut;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

const std::vector<MetricSpec>&
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        // Host seconds from session creation through the first cold pass
        // (median of several set-ups in the run).
        {"setup_s", "s", "lower", 0.25},
        // The workload's unit of work per host second: decode tokens,
        // served requests, simulated decode tokens, or grid cases.
        {"host_rate_per_s", "1/s", "higher", 0.22},
        // The workload's unit of work per modeled PIM second: steady
        // decode tokens, deadline-met requests or tokens at overload, or
        // LoCaLUT inferences over the fig10 grid.
        {"model_rate_per_s", "1/s", "higher", 0.15},
    };
    return specs;
}

const std::vector<MetricSpec>&
namedMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", "lower"},
        {"tokens_per_s", "tokens/s", "higher"},
        {"requests_per_s", "requests/s", "higher"},
        {"sim_tokens_per_s", "tokens/s", "higher"},
        {"model_tokens_per_s", "tokens/s", "higher"},
        {"model_p50_ms", "ms", "lower"},
        {"model_p99_ms", "ms", "lower"},
        {"model_ttft_p50_ms", "ms", "lower"},
        {"model_ttft_p99_ms", "ms", "lower"},
        {"model_gap_p50_ms", "ms", "lower"},
        {"model_gap_p99_ms", "ms", "lower"},
        {"model_goodput_per_s", "1/s", "higher"},
        {"fail_share", "ratio", "lower"},
        {"fig09_paper_gap", "ratio", "lower"},
        {"fig10_paper_gap", "ratio", "lower"},
    };
    return specs;
}

const std::vector<MetricSpec>&
layerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> out = {
            {"exec.kernel_ms", "ms", "lower"},
            {"exec.kernel_ms.interactive", "ms", "lower"},
            {"exec.kernel_ms.batch", "ms", "lower"},
            {"exec.kernel_calls", "count", "lower"},
            {"exec.lookups", "count", "lower"},
            {"exec.bytes", "bytes", "lower"},
            {"exec.tile_scaling", "x", "higher"},
            {"exec.fingerprint_ms", "ms", "lower"},
            {"exec.prepare_ms", "ms", "lower"},
            {"plan_cache.plan_hit_ratio", "ratio", "higher"},
            {"plan_cache.prepared_hit_ratio", "ratio", "higher"},
            {"plan_cache.prepared_bytes", "bytes", "lower"},
            {"sharding.fanout_ms", "ms", "lower"},
            {"sharding.shards_per_gemm", "count", "lower"},
            {"session.overhead_ms", "ms", "lower"},
            {"session.busy_share", "ratio", "higher"},
            {"scheduler.submit_us", "us", "lower"},
            {"scheduler.admit_share", "ratio", "higher"},
            {"scheduler.shed_share", "ratio", "lower"},
            {"scheduler.reject_share", "ratio", "lower"},
            {"scheduler.queue_p50_ms", "ms", "lower"},
            {"scheduler.queue_p99_ms", "ms", "lower"},
            {"token_engine.self_s", "s", "lower"},
            {"token_engine.prefill_steps", "count", "lower"},
            {"token_engine.decode_steps", "count", "lower"},
            {"token_engine.batch_mean", "count", "higher"},
            {"token_engine.shed_deadline", "count", "lower"},
            {"token_engine.shed_capacity", "count", "lower"},
            {"residency.hit_ratio", "ratio", "higher"},
            {"residency.evictions", "count", "lower"},
            {"residency.rebroadcasts", "count", "lower"},
            {"residency.kv_spills", "count", "lower"},
            {"residency.kv_refills", "count", "lower"},
            {"residency.broadcast_s", "s", "lower"},
            {"residency.kv_s", "s", "lower"},
            {"backend.charge_us", "us", "lower"},
            {"backend.charge_calls", "count", "lower"},
            {"backend.plan_ms", "ms", "lower"},
            {"trace.overhead_share", "ratio", "lower"},
            {"host.steal_share", "ratio", "lower"},
        };
        for (const char* design : {"localut", "naive"}) {
            for (unsigned p = 0; p < static_cast<unsigned>(Phase::kNumPhases);
                 ++p) {
                out.push_back({std::string("backend.phase_share.") + design +
                                   "." + phaseName(static_cast<Phase>(p)),
                               "ratio", "lower"});
            }
        }
        return out;
    }();
    return specs;
}

void
Report::fail(const std::string& why)
{
    correct = false;
    // One note per distinct reason: a diverging kernel fails every step.
    const std::string note = "FAIL: " + why;
    if (std::find(notes.begin(), notes.end(), note) == notes.end()) {
        notes.push_back(note);
    }
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state_ ^= (value >> (8 * i)) & 0xffu;
        state_ *= 0x100000001b3ull;
    }
}

void
Digest::add(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    add(bits);
}

bool
moreSetups(const std::vector<double>& setups, bool measured)
{
    if (!measured) {
        return setups.empty();
    }
    double spent = 0;
    for (const double s : setups) {
        spent += s;
    }
    return setups.size() < 5 || (spent < 3.0 && setups.size() < 40);
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
hostRate(const std::vector<double>& unitRates)
{
    return quantile(unitRates, 0.75);
}

std::string
spreadNote(const std::vector<double>& values)
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "n=%zu q1/median/q3 = %.6g/%.6g/%.6g",
                  values.size(), quantile(values, 0.25), median(values),
                  quantile(values, 0.75));
    return buf;
}

QuantizedMatrix
randomMatrix(std::size_t rows, std::size_t cols, const ValueCodec& codec,
             Rng& rng)
{
    QuantizedMatrix q;
    q.rows = rows;
    q.cols = cols;
    q.codec = codec;
    q.codes.resize(rows * cols);
    const std::uint64_t levels = codec.cardinality();
    for (std::uint16_t& code : q.codes) {
        code = static_cast<std::uint16_t>(rng.nextBounded(levels));
    }
    return q;
}

std::vector<std::vector<std::int32_t>>
referenceGemms(const std::vector<std::pair<const QuantizedMatrix*,
                                           const QuantizedMatrix*>>& pairs)
{
    std::vector<std::vector<std::int32_t>> out(pairs.size());
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::thread> pool;
    std::atomic<std::size_t> next{0};
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (std::size_t i = next++; i < pairs.size(); i = next++) {
                out[i] = referenceGemmInt(*pairs[i].first, *pairs[i].second);
            }
        });
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    return out;
}

QuantConfig
benchQuant()
{
    return QuantConfig::preset("W4A4");
}

} // namespace perfbench

namespace {

using namespace perfbench;

/** Host CPU time counters from /proc/stat (all zero when unreadable). */
struct CpuTicks {
    std::uint64_t total = 0;
    std::uint64_t steal = 0;
};

CpuTicks
readCpuTicks()
{
    // First line of /proc/stat: "cpu user nice system idle iowait irq
    // softirq steal ...".
    std::ifstream stat("/proc/stat");
    std::string label;
    CpuTicks ticks;
    if (!(stat >> label) || label != "cpu") {
        return ticks;
    }
    for (int field = 0; field < 8; ++field) {
        std::uint64_t value = 0;
        if (!(stat >> value)) {
            return {};
        }
        ticks.total += value;
        if (field == 7) {
            ticks.steal = value;
        }
    }
    return ticks;
}

void
printListJson()
{
    const auto list = [](const std::vector<MetricSpec>& specs,
                         bool withBound) {
        std::string out = "[";
        for (std::size_t i = 0; i < specs.size(); ++i) {
            out += std::string(i ? ", " : "") + "{\"name\": \"" +
                   specs[i].name + "\", \"unit\": \"" + specs[i].unit +
                   "\", \"better\": \"" + specs[i].better + "\"";
            if (withBound) {
                char bound[32];
                std::snprintf(bound, sizeof bound, "%g", specs[i].bound);
                out += std::string(", \"bound\": ") + bound;
            }
            out += "}";
        }
        return out + "]";
    };
    std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                list(endToEndMetrics(), true).c_str(),
                list(layerMetrics(), false).c_str());
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "decode|gemm_serving|conversations|paper_grid --seed N "
                 "--seconds S --trace 0|1\n       perfbench --list-metrics\n",
                 why);
    std::exit(2);
}

std::string
fmtValue(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    RunOptions options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            printListJson();
            return 0;
        }
        if (i + 1 >= argc) {
            usage(("missing value for " + arg).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                options.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                options.trace = value == "1";
            } else {
                usage(("unknown flag " + arg).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + arg).c_str());
        }
    }
    if (!haveWorkload) {
        usage("--workload is required");
    }
    if (!(options.seconds > 0 && options.seconds <= 600)) {
        usage("--seconds must be in (0, 600]");
    }

    void (*run)(const RunOptions&, Report&) = nullptr;
    if (options.workload == "decode") {
        run = runDecode;
    } else if (options.workload == "gemm_serving") {
        run = runGemmServing;
    } else if (options.workload == "conversations") {
        run = runConversations;
    } else if (options.workload == "paper_grid") {
        run = runPaperGrid;
    } else {
        usage(("unknown workload " + options.workload).c_str());
    }

    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
                options.workload.c_str(), options.seed, options.seconds,
                options.trace ? 1 : 0);
    std::printf("host: nproc %u  compiler %s  build %s  session workers %u\n",
                nproc, PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                std::min(std::max(nproc, 1u), 8u));
    std::fflush(stdout);

    Report report;
    const CpuTicks before = readCpuTicks();
    try {
        run(options, report);
    } catch (const std::exception& e) {
        report.fail(std::string("uncaught error: ") + e.what());
        ++report.failed;
    }
    const CpuTicks after = readCpuTicks();
    const double steal =
        after.total > before.total
            ? static_cast<double>(after.steal - before.steal) /
                  static_cast<double>(after.total - before.total)
            : 0.0;
    report.set("host.steal_share", steal);

    for (const auto& [name, value] : report.params) {
        std::printf("param %s = %s\n", name.c_str(), value.c_str());
    }
    std::printf("cpu steal share over the run: %.4f\n", steal);
    std::printf("modeled-output digest: %016" PRIx64 "\n", report.digest);
    for (const MetricSpec& spec : namedMetrics()) {
        const auto it = report.values.find(spec.name);
        if (it != report.values.end()) {
            std::printf("metric %-24s %s %s\n", spec.name.c_str(),
                        fmtValue(it->second).c_str(), spec.unit.c_str());
        }
    }

    const std::vector<MetricSpec>& reported =
        options.trace ? layerMetrics() : endToEndMetrics();
    std::string metrics;
    for (const MetricSpec& spec : reported) {
        const auto it = report.values.find(spec.name);
        double value = 0;
        if (it != report.values.end()) {
            value = it->second;
        } else if (!options.trace && report.correct) {
            report.fail("end-to-end metric " + spec.name + " not measured");
        }
        if (!std::isfinite(value)) {
            report.fail("metric " + spec.name + " is not finite");
            value = 0;
        }
        if (options.trace) {
            std::printf("layer  %-48s %s %s\n", spec.name.c_str(),
                        fmtValue(value).c_str(), spec.unit.c_str());
        }
        metrics += std::string(metrics.empty() ? "" : ", ") + "\"" +
                   spec.name + "\": {\"value\": " + fmtValue(value) +
                   ", \"unit\": \"" + spec.unit + "\"}";
    }
    for (const std::string& note : report.notes) {
        std::printf("%s\n", note.c_str());
    }
    if (!report.correct) {
        std::printf("RESULT: INCORRECT\n");
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
                report.correct ? "true" : "false",
                std::max<std::uint64_t>(report.attempted, 1), report.failed,
                metrics.c_str());
    return report.correct && report.failed == 0 ? 0 : 1;
}
