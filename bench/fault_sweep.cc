/**
 * @file
 * Fault sweep: seeded fault plans (one scheduled rank death plus
 * any-rank transient execute faults at a swept rate) drive the SLO
 * scheduler on an 8-rank session, comparing the full recovery
 * stack — capped-backoff retries, health-aware placement, failover —
 * against a fail-stop baseline (one attempt, no failover, fault-blind
 * placement) over the identical arrival trace.  Reports completed /
 * fault-shed counts, deadline-met goodput, the injector's recovery
 * counters, and the degraded-capacity gauge; verifies every completed
 * request bit-exact against the direct reference, and emits
 * BENCH_fault.json (archived by the CI perf-smoke job).
 *
 * Under --smoke it exits non-zero when failover fails to at least
 * double the fail-stop baseline's deadline-met requests at the highest
 * transient rate — ISSUE 9's acceptance gate.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "serving/fault.h"
#include "serving/scheduler.h"

using namespace localut;

namespace {

/** Deadline budget as a multiple of the healthy steady service time:
 * wide enough that maxAttempts retries plus backoff plus moderate
 * queueing still land in time, so the sweep measures fault sheds, not
 * deadline tightness. */
constexpr double kDeadlineX = 40.0;
/** Ranks the session serves on. */
constexpr unsigned kRanks = 8;
/** Offered load (fraction of the healthy kRanks capacity). */
constexpr double kLoadFactor = 0.5;
constexpr unsigned kDeadRank = 2;

/** One measured (rate, mode) point. */
struct FaultRunStats {
    std::string mode; ///< "failover" or "fail-stop"
    double rate = 0;  ///< per-attempt transient fault probability
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;  ///< admitted and sequenced to the end
    std::uint64_t met = 0;        ///< completed within the deadline
    std::uint64_t shedFault = 0;  ///< fault sheds (admission + post-admit)
    std::uint64_t retries = 0;
    std::uint64_t failovers = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t ranksDead = 0;
    double capacityRatio = 1.0;
    double backoffSeconds = 0;
    double makespan = 0;
    double goodputPerSec = 0; ///< met / makespan
};

std::vector<FaultRunStats> gRuns;

struct Arrival {
    double time;
    unsigned problemIndex;
};

FaultRunStats
runOne(double rate, bool recover, double deathAt, double deadline,
       const std::vector<Arrival>& arrivals,
       const std::vector<GemmProblem>& pool,
       const std::vector<std::vector<std::int32_t>>& refs)
{
    // The identical seeded fault plan drives both modes: rank 2 dies an
    // eighth of the way through the trace, and every execute attempt
    // on any rank fails with probability `rate`.
    FaultPlan plan;
    plan.seed = 0xfa017u;
    plan.transientExecute(rate);
    plan.rankDeath(kDeadRank, deathAt);
    FaultInjector injector(plan, kRanks);

    SessionOptions sessionOptions;
    sessionOptions.numRanks = kRanks;
    sessionOptions.faultInjector = &injector;
    // Quarantine targets asymmetric persistent faults; under uniform
    // any-rank transient noise it would eventually fence every rank, so
    // the sweep disables it in both modes to isolate retry + failover.
    sessionOptions.faultPolicy.quarantineThreshold = 1ull << 40;
    if (!recover) {
        sessionOptions.faultPolicy.maxAttempts = 1; // fail-stop
        sessionOptions.faultPolicy.failover = false;
    }
    InferenceSession session(makeBackend("upmem"), sessionOptions);

    SchedulerOptions options;
    options.policy = SchedulerPolicy::Slo;
    options.maxQueuedPerRank = 16;
    RequestScheduler scheduler(session, options);

    struct Pending {
        AdmissionDecision decision;
        unsigned problemIndex;
    };
    std::vector<Pending> submitted;
    submitted.reserve(arrivals.size());
    for (const Arrival& arrival : arrivals) {
        ServingRequest request = ServingRequest::gemm(
            pool[arrival.problemIndex], DesignPoint::LoCaLut,
            DeadlineClass::Interactive, deadline);
        request.arrivalSeconds = arrival.time;
        submitted.push_back(
            {scheduler.submit(std::move(request)), arrival.problemIndex});
    }

    FaultRunStats stats;
    stats.mode = recover ? "failover" : "fail-stop";
    stats.rate = rate;
    std::uint64_t mismatches = 0;
    for (const Pending& pending : submitted) {
        const ServingResult result = scheduler.wait(pending.decision.id);
        if (!result.decision.admitted() ||
            result.decision.outcome == AdmissionOutcome::ShedFault) {
            continue;
        }
        stats.makespan =
            std::max(stats.makespan, result.sample.completionSeconds);
        // Every surviving request must still be bit-exact: retries,
        // re-homes, and re-shards never change functional values.
        if (result.gemm.outInt != refs[pending.problemIndex]) {
            ++mismatches;
        }
    }
    if (mismatches != 0) {
        LOCALUT_FATAL(mismatches, " completed request(s) diverged from "
                                  "the direct-submit reference");
    }

    const TelemetrySnapshot snap = scheduler.telemetry().snapshot();
    stats.offered = snap.totalSubmitted();
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        stats.completed += snap.lanes[lane].completed;
        stats.met += snap.lanes[lane].deadlineMet;
        stats.shedFault += snap.shedFault[lane];
    }
    stats.retries = snap.faults.retries;
    stats.failovers = snap.faults.failovers;
    stats.quarantines = snap.faults.quarantines;
    stats.ranksDead = snap.faults.ranksDead;
    stats.capacityRatio = snap.capacityRatio;
    stats.backoffSeconds = snap.faults.backoffSeconds;
    stats.goodputPerSec =
        stats.makespan > 0
            ? static_cast<double>(stats.met) / stats.makespan
            : 0;
    return stats;
}

void
writeJson(bool smoke, bool gatePassed)
{
    std::FILE* f = std::fopen("BENCH_fault.json", "w");
    if (f == nullptr) {
        bench::note("could not open BENCH_fault.json for writing");
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"fault_sweep\",\n");
    std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
    bench::writeProvenance(f);
    std::fprintf(f, "  \"failover_gate_passed\": %s,\n",
                 gatePassed ? "true" : "false");
    std::fprintf(f, "  \"deadline_x\": %.1f,\n", kDeadlineX);
    std::fprintf(f, "  \"load_factor\": %.2f,\n", kLoadFactor);
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t r = 0; r < gRuns.size(); ++r) {
        const FaultRunStats& s = gRuns[r];
        std::fprintf(
            f,
            "    {\"mode\": \"%s\", \"transient_rate\": %.3f, "
            "\"offered\": %llu, \"completed\": %llu, "
            "\"deadline_met\": %llu, \"shed_fault\": %llu, "
            "\"retries\": %llu, \"failovers\": %llu, "
            "\"quarantines\": %llu, \"ranks_dead\": %llu, "
            "\"capacity_ratio\": %.4f, \"backoff_s\": %.6e, "
            "\"makespan_s\": %.6e, \"goodput_per_sec\": %.3f}%s\n",
            s.mode.c_str(), s.rate,
            static_cast<unsigned long long>(s.offered),
            static_cast<unsigned long long>(s.completed),
            static_cast<unsigned long long>(s.met),
            static_cast<unsigned long long>(s.shedFault),
            static_cast<unsigned long long>(s.retries),
            static_cast<unsigned long long>(s.failovers),
            static_cast<unsigned long long>(s.quarantines),
            static_cast<unsigned long long>(s.ranksDead),
            s.capacityRatio, s.backoffSeconds, s.makespan,
            s.goodputPerSec, r + 1 < gRuns.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    bench::note("wrote BENCH_fault.json");
}

} // namespace

int
main(int argc, char** argv)
{
    bench::init(argc, argv);
    bench::header("Faults", "failover vs fail-stop under seeded faults");

    const bool smoke = bench::smoke();
    const unsigned requests = bench::smokeTrim(160u, 48u);
    const std::vector<double> rates =
        bench::smokeTrim<std::vector<double>>({0.1, 0.3, 0.6}, {0.6});
    const double gateRate = rates.back();

    // A small pool of decode-shaped interactive GEMMs with shared
    // direct references for the bit-exactness criterion.
    const QuantConfig quant = QuantConfig::preset("W4A4");
    constexpr unsigned kPoolSize = 4;
    std::vector<GemmProblem> pool;
    std::vector<std::vector<std::int32_t>> refs;
    for (unsigned p = 0; p < kPoolSize; ++p) {
        pool.push_back(makeRandomProblem(512, 512, 8, quant, 90 + p));
        refs.push_back(referenceGemmInt(pool.back().w, pool.back().a));
    }

    // Healthy steady service time sizes the arrival rate and deadline.
    const BackendPtr probe = makeBackend("upmem");
    const double service =
        probe
            ->execute(pool[0], probe->plan(pool[0], DesignPoint::LoCaLut),
                      /*computeValues=*/false)
            .timing.total;
    const double capacity = kRanks / service; // one request per rank
    const double rateArrivals = kLoadFactor * capacity;
    const double deadline = kDeadlineX * service;

    // One Poisson trace, replayed identically by every (rate, mode)
    // point; rank 2 dies an eighth of the way in.
    Rng rng(0xfa0175ull);
    std::vector<Arrival> arrivals;
    double t = 0;
    for (unsigned i = 0; i < requests; ++i) {
        t += -std::log(1.0 - rng.nextDouble()) / rateArrivals;
        arrivals.push_back(
            {t, static_cast<unsigned>(rng.nextBounded(kPoolSize))});
    }
    const double deathAt = arrivals[requests / 8].time;

    bench::note(std::to_string(kRanks) + " ranks, " +
                std::to_string(requests) +
                " requests at " + Table::fmt(kLoadFactor, 2) +
                "x capacity, deadline " + bench::fmtSeconds(deadline) +
                "; rank " + std::to_string(kDeadRank) + " dies at " +
                bench::fmtSeconds(deathAt));

    bool gatePassed = true;
    Table table({"rate", "mode", "done", "met", "shed", "retries",
                 "failovers", "capacity", "goodput/s"});
    for (const double rate : rates) {
        FaultRunStats failover, failstop;
        for (const bool recover : {true, false}) {
            FaultRunStats stats = runOne(rate, recover, deathAt, deadline,
                                         arrivals, pool, refs);
            (recover ? failover : failstop) = stats;
            gRuns.push_back(stats);
            table.addRow({Table::fmt(rate, 2), stats.mode,
                          std::to_string(stats.completed),
                          std::to_string(stats.met),
                          std::to_string(stats.shedFault),
                          std::to_string(stats.retries),
                          std::to_string(stats.failovers),
                          Table::fmt(stats.capacityRatio, 2),
                          Table::fmt(stats.goodputPerSec, 1)});
        }
        // The acceptance gate binds at the highest transient rate:
        // retries + failover must at least double the fail-stop
        // baseline's deadline-met requests over the identical trace.
        if (rate == gateRate &&
            (failover.met == 0 || failover.met < 2 * failstop.met)) {
            gatePassed = false;
            bench::note("GATE: failover met " +
                        std::to_string(failover.met) + " vs fail-stop " +
                        std::to_string(failstop.met) + " at rate " +
                        Table::fmt(rate, 2) + " (needs >= 2x)");
        }
    }
    table.print();
    bench::note("expected shape: fail-stop sheds every faulted attempt "
                "and everything routed to the dead rank; failover "
                "retries transients, fences the dead rank, and keeps "
                "goodput near the 7/8 degraded capacity.");

    writeJson(smoke, gatePassed);
    if (smoke && !gatePassed) {
        bench::note("FAIL: failover gate (see GATE notes above)");
        return 1;
    }
    return 0;
}
