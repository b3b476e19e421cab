#include "serving/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace localut {

const char*
deadlineClassName(DeadlineClass lane)
{
    switch (lane) {
      case DeadlineClass::Interactive: return "interactive";
      case DeadlineClass::Batch:       return "batch";
      case DeadlineClass::Prefill:     return "prefill";
      case DeadlineClass::Decode:      return "decode";
    }
    LOCALUT_PANIC("invalid deadline class");
}

unsigned
deadlineClassPriority(DeadlineClass lane)
{
    switch (lane) {
      case DeadlineClass::Decode:      return 0;
      case DeadlineClass::Interactive: return 1;
      case DeadlineClass::Prefill:     return 2;
      case DeadlineClass::Batch:       return 3;
    }
    LOCALUT_PANIC("invalid deadline class");
}

const char*
admissionOutcomeName(AdmissionOutcome outcome)
{
    switch (outcome) {
      case AdmissionOutcome::Admitted:          return "admitted";
      case AdmissionOutcome::ShedDeadline:      return "shed_deadline";
      case AdmissionOutcome::RejectedSaturated: return "rejected_saturated";
      case AdmissionOutcome::ShedFault:         return "shed_fault";
    }
    LOCALUT_PANIC("invalid admission outcome");
}

// ------------------------------------------------------ LatencyHistogram

double
LatencyHistogram::bucketUpperBound(std::size_t index)
{
    if (index + 1 >= kBuckets) {
        return std::numeric_limits<double>::infinity();
    }
    // Bucket i covers (bound(i-1), bound(i)] with bound(i) =
    // kMinSeconds * 10^((i+1)/kBucketsPerDecade).
    return kMinSeconds *
           std::pow(10.0, static_cast<double>(index + 1) /
                              static_cast<double>(kBucketsPerDecade));
}

std::size_t
LatencyHistogram::bucketIndex(double seconds)
{
    if (!(seconds > kMinSeconds)) {
        return 0;
    }
    if (seconds >= kMaxSeconds) {
        return kBuckets - 1;
    }
    const double decades = std::log10(seconds / kMinSeconds);
    // ceil - 1: find the first bucket whose upper bound >= seconds.
    auto index = static_cast<std::size_t>(std::ceil(
                     decades * static_cast<double>(kBucketsPerDecade))) -
                 1;
    // Guard the float boundary cases on exact powers of the growth step.
    while (index > 0 && bucketUpperBound(index - 1) >= seconds) {
        --index;
    }
    while (index + 1 < kBuckets && bucketUpperBound(index) < seconds) {
        ++index;
    }
    return index;
}

void
LatencyHistogram::record(double seconds)
{
    seconds = std::max(0.0, seconds);
    ++counts_[bucketIndex(seconds)];
    if (count_ == 0 || seconds < min_) {
        min_ = seconds;
    }
    max_ = std::max(max_, seconds);
    sum_ += seconds;
    ++count_;
}

double
LatencyHistogram::meanSeconds() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        seen += counts_[i];
        if (seen >= rank) {
            return std::min(bucketUpperBound(i), max_);
        }
    }
    return max_;
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    if (other.count_ == 0) {
        return;
    }
    for (std::size_t i = 0; i < kBuckets; ++i) {
        counts_[i] += other.counts_[i];
    }
    if (count_ == 0 || other.min_ < min_) {
        min_ = other.min_;
    }
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
    count_ += other.count_;
}

std::uint64_t
LatencyHistogram::bucketCount(std::size_t index) const
{
    LOCALUT_REQUIRE(index < kBuckets, "histogram bucket out of range");
    return counts_[index];
}

// ------------------------------------------------------------- Telemetry

std::uint64_t
TelemetrySnapshot::totalSubmitted() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t n : submitted) {
        total += n;
    }
    return total;
}

std::uint64_t
TelemetrySnapshot::totalAdmitted() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t n : admitted) {
        total += n;
    }
    return total;
}

void
Telemetry::recordAdmission(DeadlineClass lane, AdmissionOutcome outcome)
{
    const auto at = static_cast<std::size_t>(lane);
    std::lock_guard<std::mutex> lock(mutex_);
    ++state_.submitted[at];
    switch (outcome) {
      case AdmissionOutcome::Admitted:
        ++state_.admitted[at];
        break;
      case AdmissionOutcome::ShedDeadline:
        ++state_.shedDeadline[at];
        break;
      case AdmissionOutcome::RejectedSaturated:
        ++state_.rejectedSaturated[at];
        break;
      case AdmissionOutcome::ShedFault:
        ++state_.shedFault[at];
        break;
    }
}

void
Telemetry::recordCompletion(const RequestSample& sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    LaneStats& lane = state_.lanes[static_cast<std::size_t>(sample.lane)];
    lane.latency.record(sample.latencySeconds());
    lane.queueDelay.record(sample.queueDelaySeconds());
    lane.service.record(sample.serviceSeconds);
    ++lane.completed;
    if (std::isinf(sample.deadlineSeconds)) {
        // No deadline: counts as met for goodput purposes.
        ++lane.deadlineMet;
    } else if (sample.deadlineMet()) {
        ++lane.deadlineMet;
    } else {
        ++lane.deadlineMissed;
    }
    state_.collectiveSeconds += sample.collectiveSeconds;
    state_.lutBroadcastSeconds += sample.lutBroadcastSeconds;
}

void
Telemetry::recordTtft(DeadlineClass lane, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.lanes[static_cast<std::size_t>(lane)].ttft.record(seconds);
}

void
Telemetry::recordToken(DeadlineClass lane, double gapSeconds,
                       bool metDeadline)
{
    std::lock_guard<std::mutex> lock(mutex_);
    LaneStats& stats = state_.lanes[static_cast<std::size_t>(lane)];
    if (gapSeconds >= 0) {
        stats.interToken.record(gapSeconds);
    }
    ++stats.tokens;
    if (metDeadline) {
        ++stats.tokensMet;
    } else {
        ++stats.tokensMissed;
    }
}

void
Telemetry::recordKvResidency(const KvResidencyGauges& gauges)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.kv = gauges;
}

void
Telemetry::recordPlacement(unsigned node)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_.nodeRequests.size() <= node) {
        state_.nodeRequests.resize(node + 1, 0);
    }
    ++state_.nodeRequests[node];
}

void
Telemetry::recordNodeResidency(std::vector<NodeResidencyGauge> nodes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.nodeResidency = std::move(nodes);
}

void
Telemetry::recordBroadcastTiers(const BroadcastTierBytes& tiers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.broadcastTiers = tiers;
}

void
Telemetry::recordFaults(const FaultStats& faults, double capacityRatio)
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_.faults = faults;
    state_.capacityRatio = capacityRatio;
}

void
Telemetry::recordPostAdmitFaultShed(const RequestSample& sample)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto at = static_cast<std::size_t>(sample.lane);
    ++state_.shedFault[at];
    // The sequencer optimistically recorded this request as completed
    // (recordCompletion at virtual-time sequencing); the shed retracts
    // those counters so goodput never credits a request that faulted
    // out during execution.
    LaneStats& lane = state_.lanes[at];
    if (lane.completed > 0) {
        --lane.completed;
        if (std::isinf(sample.deadlineSeconds) || sample.deadlineMet()) {
            --lane.deadlineMet;
        } else {
            --lane.deadlineMissed;
        }
    }
}

TelemetrySnapshot
Telemetry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

void
Telemetry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = TelemetrySnapshot{};
}

namespace {

void
appendf(std::string& out, const char* fmt, ...)
#if defined(__GNUC__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string& out, const char* fmt, ...)
{
    char buf[256];
    va_list args;
    va_start(args, fmt);
    const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    if (n > 0) {
        out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n),
                                              sizeof buf - 1));
    }
}

/** Emits one per-lane histogram as cumulative Prometheus series. */
void
appendHistogram(std::string& out, const char* name, const char* lane,
                const LatencyHistogram& hist)
{
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
        const std::uint64_t n = hist.bucketCount(i);
        if (n == 0) {
            continue; // sparse dump: only buckets that gained samples
        }
        cumulative += n;
        const double bound = LatencyHistogram::bucketUpperBound(i);
        if (std::isinf(bound)) {
            continue; // folded into the +Inf line below
        }
        appendf(out, "%s_bucket{lane=\"%s\",le=\"%.6e\"} %llu\n", name,
                lane, bound, static_cast<unsigned long long>(cumulative));
    }
    appendf(out, "%s_bucket{lane=\"%s\",le=\"+Inf\"} %llu\n", name, lane,
            static_cast<unsigned long long>(hist.count()));
    appendf(out, "%s_sum{lane=\"%s\"} %.9e\n", name, lane, hist.sum());
    appendf(out, "%s_count{lane=\"%s\"} %llu\n", name, lane,
            static_cast<unsigned long long>(hist.count()));
}

} // namespace

std::string
Telemetry::prometheusText() const
{
    const TelemetrySnapshot snap = snapshot();
    std::string out;
    out.reserve(4096);

    out += "# HELP localut_requests_total Requests by lane and admission "
           "outcome.\n# TYPE localut_requests_total counter\n";
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        const char* name =
            deadlineClassName(static_cast<DeadlineClass>(lane));
        const struct {
            const char* outcome;
            std::uint64_t value;
        } rows[] = {
            {"admitted", snap.admitted[lane]},
            {"shed_deadline", snap.shedDeadline[lane]},
            {"rejected_saturated", snap.rejectedSaturated[lane]},
            {"shed_fault", snap.shedFault[lane]},
        };
        for (const auto& row : rows) {
            appendf(out,
                    "localut_requests_total{lane=\"%s\",outcome=\"%s\"} "
                    "%llu\n",
                    name, row.outcome,
                    static_cast<unsigned long long>(row.value));
        }
    }

    out += "# HELP localut_deadline_total Completions by lane and "
           "deadline verdict.\n# TYPE localut_deadline_total counter\n";
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        const char* name =
            deadlineClassName(static_cast<DeadlineClass>(lane));
        appendf(out,
                "localut_deadline_total{lane=\"%s\",verdict=\"met\"} "
                "%llu\n",
                name,
                static_cast<unsigned long long>(
                    snap.lanes[lane].deadlineMet));
        appendf(out,
                "localut_deadline_total{lane=\"%s\",verdict=\"missed\"} "
                "%llu\n",
                name,
                static_cast<unsigned long long>(
                    snap.lanes[lane].deadlineMissed));
    }

    const struct {
        const char* name;
        const char* help;
        const LatencyHistogram LaneStats::*member;
    } hists[] = {
        {"localut_request_latency_seconds",
         "End-to-end modeled request latency.", &LaneStats::latency},
        {"localut_request_queue_delay_seconds",
         "Modeled queue delay before execution.", &LaneStats::queueDelay},
        {"localut_request_service_seconds",
         "Modeled service time on the placed rank.", &LaneStats::service},
        {"localut_ttft_seconds",
         "Modeled time to first token (arrival to prefill completion).",
         &LaneStats::ttft},
        {"localut_inter_token_seconds",
         "Modeled gap between consecutive decode tokens of a stream.",
         &LaneStats::interToken},
    };
    for (const auto& h : hists) {
        appendf(out, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help,
                h.name);
        for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
            appendHistogram(
                out, h.name,
                deadlineClassName(static_cast<DeadlineClass>(lane)),
                snap.lanes[lane].*(h.member));
        }
    }

    out += "# HELP localut_tokens_total Decode tokens emitted by lane "
           "and deadline verdict.\n# TYPE localut_tokens_total counter\n";
    for (std::size_t lane = 0; lane < kDeadlineClasses; ++lane) {
        const char* name =
            deadlineClassName(static_cast<DeadlineClass>(lane));
        appendf(out,
                "localut_tokens_total{lane=\"%s\",verdict=\"met\"} %llu\n",
                name,
                static_cast<unsigned long long>(snap.lanes[lane].tokensMet));
        appendf(out,
                "localut_tokens_total{lane=\"%s\",verdict=\"missed\"} "
                "%llu\n",
                name,
                static_cast<unsigned long long>(
                    snap.lanes[lane].tokensMissed));
    }

    const struct {
        const char* name;
        const char* help;
        const char* type;
        std::uint64_t value;
    } kvRows[] = {
        {"localut_kv_resident_bytes",
         "Raw KV-cache bytes currently MRAM-resident.", "gauge",
         snap.kv.residentBytes},
        {"localut_kv_streams", "KV streams currently MRAM-resident.",
         "gauge", snap.kv.streams},
        {"localut_kv_spills_total",
         "KV streams spilled PIM to host under capacity pressure.",
         "counter", snap.kv.spills},
        {"localut_kv_refills_total",
         "Spilled KV streams transferred back host to PIM.", "counter",
         snap.kv.refills},
        {"localut_kv_sheds_total",
         "Streams shed because their KV alone exceeds the rank budget.",
         "counter", snap.kv.sheds},
    };
    for (const auto& row : kvRows) {
        appendf(out, "# HELP %s %s\n# TYPE %s %s\n%s %llu\n", row.name,
                row.help, row.name, row.type, row.name,
                static_cast<unsigned long long>(row.value));
    }
    out += "# HELP localut_evictions_total Residency evictions by "
           "resource class.\n# TYPE localut_evictions_total counter\n";
    appendf(out, "localut_evictions_total{class=\"lut\"} %llu\n",
            static_cast<unsigned long long>(snap.kv.lutEvictions));
    appendf(out, "localut_evictions_total{class=\"kv\"} %llu\n",
            static_cast<unsigned long long>(snap.kv.spills));

    if (!snap.nodeRequests.empty()) {
        out += "# HELP localut_node_requests_total Requests placed per "
               "topology node.\n# TYPE localut_node_requests_total "
               "counter\n";
        for (std::size_t node = 0; node < snap.nodeRequests.size();
             ++node) {
            appendf(out, "localut_node_requests_total{node=\"%zu\"} %llu\n",
                    node,
                    static_cast<unsigned long long>(
                        snap.nodeRequests[node]));
        }
    }
    if (!snap.nodeResidency.empty()) {
        out += "# HELP localut_node_lut_resident_bytes LUT table-set "
               "bytes resident per topology node.\n"
               "# TYPE localut_node_lut_resident_bytes gauge\n";
        for (std::size_t node = 0; node < snap.nodeResidency.size();
             ++node) {
            appendf(out,
                    "localut_node_lut_resident_bytes{node=\"%zu\"} %llu\n",
                    node,
                    static_cast<unsigned long long>(
                        snap.nodeResidency[node].lutBytes));
        }
        out += "# HELP localut_node_kv_resident_bytes Raw KV bytes "
               "resident per topology node.\n"
               "# TYPE localut_node_kv_resident_bytes gauge\n";
        for (std::size_t node = 0; node < snap.nodeResidency.size();
             ++node) {
            appendf(out,
                    "localut_node_kv_resident_bytes{node=\"%zu\"} %llu\n",
                    node,
                    static_cast<unsigned long long>(
                        snap.nodeResidency[node].kvBytes));
        }
    }

    out += "# HELP localut_broadcast_bytes_total LUT broadcast bytes by "
           "link tier (intra-node host link vs inter-node CXL hop) and "
           "kind (raw vs compressed on the wire).\n"
           "# TYPE localut_broadcast_bytes_total counter\n";
    // Intra-node broadcasts are never coded, so raw == compressed there;
    // the inter-node pair exposes the measured codec ratio.
    appendf(out,
            "localut_broadcast_bytes_total{tier=\"intra\",kind=\"raw\"} "
            "%.9e\n",
            snap.broadcastTiers.intraBytes);
    appendf(out,
            "localut_broadcast_bytes_total{tier=\"intra\","
            "kind=\"compressed\"} %.9e\n",
            snap.broadcastTiers.intraBytes);
    appendf(out,
            "localut_broadcast_bytes_total{tier=\"inter\",kind=\"raw\"} "
            "%.9e\n",
            snap.broadcastTiers.interRawBytes);
    appendf(out,
            "localut_broadcast_bytes_total{tier=\"inter\","
            "kind=\"compressed\"} %.9e\n",
            snap.broadcastTiers.interBytes);

    out += "# HELP localut_faults_total Injected faults by kind.\n"
           "# TYPE localut_faults_total counter\n";
    appendf(out, "localut_faults_total{kind=\"transient_execute\"} %llu\n",
            static_cast<unsigned long long>(snap.faults.transientFaults));
    appendf(out, "localut_faults_total{kind=\"broadcast_corrupt\"} %llu\n",
            static_cast<unsigned long long>(snap.faults.corruptedBroadcasts));
    appendf(out, "localut_faults_total{kind=\"link_degrade\"} %llu\n",
            static_cast<unsigned long long>(snap.faults.linkDegrades));
    const struct {
        const char* name;
        const char* help;
        const char* type;
        std::uint64_t value;
    } faultRows[] = {
        {"localut_fault_retries_total",
         "Execute attempts retried after an injected transient fault.",
         "counter", snap.faults.retries},
        {"localut_broadcast_resends_total",
         "LUT broadcasts re-sent after checksum-detected corruption.",
         "counter", snap.faults.resends},
        {"localut_quarantines_total",
         "Ranks quarantined after crossing the failure threshold.",
         "counter", snap.faults.quarantines},
        {"localut_failovers_total",
         "Requests re-homed or GEMMs re-sharded around lost ranks.",
         "counter", snap.faults.failovers},
        {"localut_fault_sheds_total",
         "Requests shed because faults left no capacity for them.",
         "counter", snap.faults.shedFault},
        {"localut_ranks_dead", "Ranks currently dead.", "gauge",
         snap.faults.ranksDead},
        {"localut_ranks_quarantined", "Ranks currently quarantined.",
         "gauge", snap.faults.ranksQuarantined},
    };
    for (const auto& row : faultRows) {
        appendf(out, "# HELP %s %s\n# TYPE %s %s\n%s %llu\n", row.name,
                row.help, row.name, row.type, row.name,
                static_cast<unsigned long long>(row.value));
    }
    out += "# HELP localut_fault_backoff_seconds_total Virtual retry "
           "backoff charged into request timing.\n"
           "# TYPE localut_fault_backoff_seconds_total counter\n";
    appendf(out, "localut_fault_backoff_seconds_total %.9e\n",
            snap.faults.backoffSeconds);
    out += "# HELP localut_capacity_ratio Schedulable ranks divided by "
           "total ranks (degraded-capacity gauge).\n"
           "# TYPE localut_capacity_ratio gauge\n";
    appendf(out, "localut_capacity_ratio %.6f\n",
            snap.capacityRatio);

    out += "# HELP localut_collective_seconds_total Modeled collective "
           "transfer seconds across completions.\n"
           "# TYPE localut_collective_seconds_total counter\n";
    appendf(out, "localut_collective_seconds_total %.9e\n",
            snap.collectiveSeconds);
    out += "# HELP localut_lut_broadcast_seconds_total Projected LUT "
           "broadcast seconds across completions.\n"
           "# TYPE localut_lut_broadcast_seconds_total counter\n";
    appendf(out, "localut_lut_broadcast_seconds_total %.9e\n",
            snap.lutBroadcastSeconds);
    return out;
}

} // namespace localut
