/**
 * @file
 * Telemetry tests: LatencyHistogram bucket/quantile behavior, counter
 * coherence, merging, and the Prometheus text rendering.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "serving/telemetry.h"

namespace localut {
namespace {

TEST(LatencyHistogram, EmptyHistogramReportsZeros)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
    EXPECT_DOUBLE_EQ(hist.minSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(hist.maxSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, BucketsCoverSamplesWithBoundedError)
{
    LatencyHistogram hist;
    // One sample per bucket-ish decade point: every quantile bound must
    // bracket the true sample within one bucket's growth factor.
    const double growth =
        std::pow(10.0, 1.0 / LatencyHistogram::kBucketsPerDecade);
    for (double s = 1e-6; s < 1.0; s *= 3.7) {
        hist.record(s);
        const double q = hist.quantile(1.0);
        EXPECT_GE(q, s / growth);
        EXPECT_LE(q, s); // clamped to the recorded max
    }
}

TEST(LatencyHistogram, QuantilesAreMonotoneAndMatchKnownData)
{
    LatencyHistogram hist;
    // 100 samples: 1 ms .. 100 ms.
    for (int i = 1; i <= 100; ++i) {
        hist.record(1e-3 * i);
    }
    EXPECT_EQ(hist.count(), 100u);
    EXPECT_NEAR(hist.meanSeconds(), 50.5e-3, 1e-9);
    EXPECT_DOUBLE_EQ(hist.minSeconds(), 1e-3);
    EXPECT_DOUBLE_EQ(hist.maxSeconds(), 100e-3);

    const double growth =
        std::pow(10.0, 1.0 / LatencyHistogram::kBucketsPerDecade);
    const double p50 = hist.p50();
    const double p95 = hist.p95();
    const double p99 = hist.p99();
    // Bucket upper bounds: within one growth factor above the true
    // order statistic, never below it.
    EXPECT_GE(p50, 50e-3);
    EXPECT_LE(p50, 50e-3 * growth);
    EXPECT_GE(p95, 95e-3);
    EXPECT_LE(p95, 95e-3 * growth);
    EXPECT_GE(p99, 99e-3);
    EXPECT_LE(p99, 100e-3); // clamped to max
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_LE(p99, hist.maxSeconds());
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), hist.maxSeconds());
}

TEST(LatencyHistogram, OutOfRangeSamplesClampToEdgeBuckets)
{
    LatencyHistogram hist;
    hist.record(0.0);                       // below the first bound
    hist.record(-1.0);                      // negative clamps to 0
    hist.record(1e9);                       // beyond the last bound
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_EQ(hist.bucketCount(0), 2u);
    EXPECT_EQ(hist.bucketCount(LatencyHistogram::kBuckets - 1), 1u);
    EXPECT_DOUBLE_EQ(hist.maxSeconds(), 1e9);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1e9);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording)
{
    LatencyHistogram a, b, combined;
    for (int i = 1; i <= 40; ++i) {
        const double s = 1e-4 * i;
        ((i % 2) ? a : b).record(s);
        combined.record(s);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
    EXPECT_DOUBLE_EQ(a.minSeconds(), combined.minSeconds());
    EXPECT_DOUBLE_EQ(a.maxSeconds(), combined.maxSeconds());
    for (double q : {0.25, 0.5, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q));
    }
}

RequestSample
sampleAt(DeadlineClass lane, double arrival, double start,
         double completion, double deadline)
{
    RequestSample sample;
    sample.lane = lane;
    sample.arrivalSeconds = arrival;
    sample.startSeconds = start;
    sample.completionSeconds = completion;
    sample.serviceSeconds = completion - start;
    sample.deadlineSeconds = deadline;
    return sample;
}

TEST(Telemetry, CountersBalanceAcrossOutcomes)
{
    Telemetry telemetry;
    telemetry.recordAdmission(DeadlineClass::Interactive,
                              AdmissionOutcome::Admitted);
    telemetry.recordAdmission(DeadlineClass::Interactive,
                              AdmissionOutcome::ShedDeadline);
    telemetry.recordAdmission(DeadlineClass::Batch,
                              AdmissionOutcome::Admitted);
    telemetry.recordAdmission(DeadlineClass::Batch,
                              AdmissionOutcome::RejectedSaturated);

    telemetry.recordCompletion(sampleAt(DeadlineClass::Interactive, 0.0,
                                        0.1, 0.2, /*deadline=*/0.5));
    telemetry.recordCompletion(sampleAt(DeadlineClass::Batch, 0.0, 1.0,
                                        2.0, /*deadline=*/1.5));

    const TelemetrySnapshot snap = telemetry.snapshot();
    const auto i = static_cast<std::size_t>(DeadlineClass::Interactive);
    const auto b = static_cast<std::size_t>(DeadlineClass::Batch);
    EXPECT_EQ(snap.totalSubmitted(), 4u);
    EXPECT_EQ(snap.totalAdmitted(), 2u);
    EXPECT_EQ(snap.submitted[i],
              snap.admitted[i] + snap.shedDeadline[i] +
                  snap.rejectedSaturated[i]);
    EXPECT_EQ(snap.submitted[b],
              snap.admitted[b] + snap.shedDeadline[b] +
                  snap.rejectedSaturated[b]);
    EXPECT_EQ(snap.lanes[i].completed, 1u);
    EXPECT_EQ(snap.lanes[i].deadlineMet, 1u);
    EXPECT_EQ(snap.lanes[i].deadlineMissed, 0u);
    EXPECT_EQ(snap.lanes[b].deadlineMet, 0u);
    EXPECT_EQ(snap.lanes[b].deadlineMissed, 1u);
    EXPECT_EQ(snap.lanes[i].queueDelay.count(), 1u);
    EXPECT_DOUBLE_EQ(snap.lanes[i].queueDelay.maxSeconds(), 0.1);

    // An infinite deadline counts as met (goodput semantics).
    telemetry.recordCompletion(
        sampleAt(DeadlineClass::Batch, 0.0, 0.0, 5.0,
                 std::numeric_limits<double>::infinity()));
    EXPECT_EQ(telemetry.snapshot().lanes[b].deadlineMet, 1u);

    telemetry.reset();
    EXPECT_EQ(telemetry.snapshot().totalSubmitted(), 0u);
}

TEST(Telemetry, PrometheusTextExposesAllSeries)
{
    Telemetry telemetry;
    telemetry.recordAdmission(DeadlineClass::Interactive,
                              AdmissionOutcome::Admitted);
    RequestSample sample = sampleAt(DeadlineClass::Interactive, 0.0,
                                    0.25e-3, 1.25e-3, /*deadline=*/5e-3);
    sample.collectiveSeconds = 1e-4;
    sample.lutBroadcastSeconds = 2e-4;
    telemetry.recordCompletion(sample);

    const std::string text = telemetry.prometheusText();
    for (const char* needle : {
             "# TYPE localut_requests_total counter",
             "localut_requests_total{lane=\"interactive\","
             "outcome=\"admitted\"} 1",
             "# TYPE localut_request_latency_seconds histogram",
             "localut_request_latency_seconds_bucket{lane="
             "\"interactive\",le=\"+Inf\"} 1",
             "localut_request_latency_seconds_count{lane="
             "\"interactive\"} 1",
             "localut_request_queue_delay_seconds_count{lane="
             "\"interactive\"} 1",
             "localut_request_service_seconds_count{lane="
             "\"interactive\"} 1",
             "localut_deadline_total{lane=\"interactive\","
             "verdict=\"met\"} 1",
             "localut_collective_seconds_total",
             "localut_lut_broadcast_seconds_total",
         }) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing series: " << needle << "\nin dump:\n" << text;
    }
}

TEST(Telemetry, TokenLanesNamesAndPriorities)
{
    // Prefill/Decode were appended to the enum (indices are part of the
    // dump format), and scheduling priority is decoupled from the index:
    // decode outranks everything, batch yields to everyone.
    static_assert(kDeadlineClasses == 4);
    EXPECT_EQ(static_cast<std::size_t>(DeadlineClass::Interactive), 0u);
    EXPECT_EQ(static_cast<std::size_t>(DeadlineClass::Batch), 1u);
    EXPECT_EQ(static_cast<std::size_t>(DeadlineClass::Prefill), 2u);
    EXPECT_EQ(static_cast<std::size_t>(DeadlineClass::Decode), 3u);
    EXPECT_STREQ(deadlineClassName(DeadlineClass::Prefill), "prefill");
    EXPECT_STREQ(deadlineClassName(DeadlineClass::Decode), "decode");
    EXPECT_LT(deadlineClassPriority(DeadlineClass::Decode),
              deadlineClassPriority(DeadlineClass::Interactive));
    EXPECT_LT(deadlineClassPriority(DeadlineClass::Interactive),
              deadlineClassPriority(DeadlineClass::Prefill));
    EXPECT_LT(deadlineClassPriority(DeadlineClass::Prefill),
              deadlineClassPriority(DeadlineClass::Batch));
}

TEST(Telemetry, TokenRecordersFeedPerLaneHistograms)
{
    Telemetry telemetry;
    telemetry.recordTtft(DeadlineClass::Prefill, 2e-3);
    telemetry.recordToken(DeadlineClass::Decode, 1e-3, /*met=*/true);
    telemetry.recordToken(DeadlineClass::Decode, 3e-3, /*met=*/false);
    // A re-batched stream's first token has no predecessor: a negative
    // gap records the verdict but skips the inter-token histogram.
    telemetry.recordToken(DeadlineClass::Decode, -1.0, /*met=*/true);

    const TelemetrySnapshot snap = telemetry.snapshot();
    const auto p = static_cast<std::size_t>(DeadlineClass::Prefill);
    const auto d = static_cast<std::size_t>(DeadlineClass::Decode);
    EXPECT_EQ(snap.lanes[p].ttft.count(), 1u);
    EXPECT_DOUBLE_EQ(snap.lanes[p].ttft.maxSeconds(), 2e-3);
    EXPECT_EQ(snap.lanes[d].interToken.count(), 2u);
    EXPECT_DOUBLE_EQ(snap.lanes[d].interToken.maxSeconds(), 3e-3);
    EXPECT_EQ(snap.lanes[d].tokens, 3u);
    EXPECT_EQ(snap.lanes[d].tokensMet, 2u);
    EXPECT_EQ(snap.lanes[d].tokensMissed, 1u);

    telemetry.reset();
    EXPECT_EQ(telemetry.snapshot().lanes[d].tokens, 0u);
    EXPECT_EQ(telemetry.snapshot().lanes[p].ttft.count(), 0u);
}

TEST(Telemetry, KvGaugesLandInSnapshotAndPrometheusDump)
{
    Telemetry telemetry;
    KvResidencyGauges gauges;
    gauges.residentBytes = 4096;
    gauges.streams = 3;
    gauges.spills = 2;
    gauges.refills = 1;
    gauges.sheds = 5;
    gauges.lutEvictions = 7;
    telemetry.recordKvResidency(gauges);
    telemetry.recordTtft(DeadlineClass::Prefill, 2e-3);
    telemetry.recordToken(DeadlineClass::Decode, 1e-3, true);
    telemetry.recordToken(DeadlineClass::Decode, 2e-3, false);

    const TelemetrySnapshot snap = telemetry.snapshot();
    EXPECT_EQ(snap.kv.residentBytes, 4096u);
    EXPECT_EQ(snap.kv.streams, 3u);
    EXPECT_EQ(snap.kv.lutEvictions, 7u);

    const std::string text = telemetry.prometheusText();
    for (const char* needle : {
             "# TYPE localut_kv_resident_bytes gauge",
             "localut_kv_resident_bytes 4096",
             "localut_kv_streams 3",
             "localut_kv_spills_total 2",
             "localut_kv_refills_total 1",
             "localut_kv_sheds_total 5",
             "localut_evictions_total{class=\"lut\"} 7",
             "localut_evictions_total{class=\"kv\"} 2",
             "localut_ttft_seconds_count{lane=\"prefill\"} 1",
             "localut_inter_token_seconds_count{lane=\"decode\"} 2",
             "localut_tokens_total{lane=\"decode\",verdict=\"met\"} 1",
             "localut_tokens_total{lane=\"decode\",verdict=\"missed\"} 1",
         }) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing series: " << needle << "\nin dump:\n" << text;
    }
}

} // namespace
} // namespace localut
