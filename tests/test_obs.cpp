// The observability layer's own contracts: deterministic metric merges,
// strict bucket semantics, ring-buffer wraparound accounting, the binary
// worker payload round-trip, the strict Chrome-trace parser, and — the one
// that guards everything else — tracing passivity: arming the tracer must
// not change a single campaign byte.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace rt::obs {
namespace {

// ----------------------------------------------------------- metrics

TEST(Metrics, CounterCountsAndRegistrationIsIdempotent) {
  MetricsRegistry reg;
  const Counter a = reg.counter("t_total", "help");
  const Counter b = reg.counter("t_total");  // same underlying metric
  a.inc();
  b.inc(3);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counter("t_total"), 4u);
  EXPECT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].help, "help");
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry reg;
  (void)reg.counter("x_total");
  EXPECT_THROW((void)reg.gauge("x_total"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("x_total", {1.0}), std::logic_error);
  (void)reg.histogram("h_ms", {1.0, 2.0});
  EXPECT_THROW((void)reg.histogram("h_ms", {1.0, 3.0}), std::logic_error);
}

TEST(Metrics, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(5);
  h.observe(1.0);
  EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, HistogramBucketBoundariesArePrometheusLe) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("lat_ms", {1.0, 2.0, 5.0});
  // An observation exactly AT a bound lands in that bucket (v <= bound).
  h.observe(1.0);
  h.observe(2.0);
  h.observe(5.0);
  h.observe(0.5);   // below the first bound
  h.observe(3.0);   // between 2 and 5
  h.observe(100.0); // above every bound: +Inf
  const auto snap = reg.snapshot();
  const MetricSnapshot* m = snap.find("lat_ms");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->histogram.buckets.size(), 4u);
  EXPECT_EQ(m->histogram.buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(m->histogram.buckets[1], 1u);  // 2.0
  EXPECT_EQ(m->histogram.buckets[2], 2u);  // 3.0, 5.0
  EXPECT_EQ(m->histogram.buckets[3], 1u);  // 100.0
  EXPECT_EQ(m->histogram.count, 6u);
  EXPECT_NEAR(m->histogram.sum, 111.5, 1e-9);
}

TEST(Metrics, CrossThreadMergeIsDeterministic) {
  // Two registries fed the same multiset of observations from differently
  // interleaved threads must snapshot (and render) to identical bytes —
  // the fixed-point sum cells make even the double sums exact.
  const auto feed = [](MetricsRegistry& reg, unsigned threads) {
    const Counter c = reg.counter("ops_total");
    const Histogram h = reg.histogram("v_ms", {1.0, 10.0, 100.0});
    const unsigned total = 8000;
    const unsigned per = total / threads;
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < threads; ++t) {
      ts.emplace_back([&, t] {
        for (unsigned i = t * per; i < (t + 1) * per; ++i) {
          c.inc();
          h.observe((i % 200) * 0.731);
        }
      });
    }
    for (auto& t : ts) t.join();
  };
  MetricsRegistry one;
  MetricsRegistry eight;
  // Same global index range 0..7999, split over 1 vs 8 threads: the same
  // multiset of observations, differently interleaved and sharded.
  feed(one, 1);
  feed(eight, 8);
  // Counter::value() sums the same shards a snapshot merges.
  for (MetricsRegistry* reg : {&one, &eight}) {
    EXPECT_EQ(reg->counter("ops_total").value(), 8000u);
    EXPECT_EQ(reg->counter("ops_total").value(),
              reg->snapshot().counter("ops_total"));
  }
  EXPECT_EQ(Counter().value(), 0u);
  EXPECT_EQ(render_json(one.snapshot()), render_json(eight.snapshot()));
  EXPECT_EQ(render_prometheus(one.snapshot()),
            render_prometheus(eight.snapshot()));
}

TEST(Metrics, PrometheusRenderShape) {
  MetricsRegistry reg;
  reg.counter("req_total", "requests").inc(2);
  reg.gauge("depth").set(-3);
  reg.histogram("w_ms", {1.0, 5.0}, "wall").observe(2.0);
  const std::string text = render_prometheus(reg.snapshot());
  EXPECT_NE(text.find("# HELP req_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 2"), std::string::npos);
  EXPECT_NE(text.find("depth -3"), std::string::npos);
  // Cumulative buckets: le="5" includes the le="1" count.
  EXPECT_NE(text.find("w_ms_bucket{le=\"1\"} 0"), std::string::npos);
  EXPECT_NE(text.find("w_ms_bucket{le=\"5\"} 1"), std::string::npos);
  EXPECT_NE(text.find("w_ms_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("w_ms_count 1"), std::string::npos);
}

// ----------------------------------------------------------- tracing

/// Tests share the global tracer; each one arms a fresh configuration and
/// leaves the tracer disarmed and empty behind.
struct TracerGuard {
  explicit TracerGuard(std::size_t capacity) {
    Tracer::global().clear();
    Tracer::global().arm(TraceConfig{capacity});
  }
  ~TracerGuard() {
    Tracer::global().disarm();
    Tracer::global().clear();
  }
};

TEST(Tracing, RingWraparoundDropsOldestAndCounts) {
  TracerGuard guard(8);
  for (int i = 0; i < 20; ++i) {
    record_span("wrap", "test", static_cast<std::uint64_t>(i * 10),
                static_cast<std::uint64_t>(i * 10 + 5),
                static_cast<std::uint64_t>(i), "i");
  }
  EXPECT_EQ(Tracer::global().span_count(), 8u);
  EXPECT_EQ(Tracer::global().dropped_spans(), 12u);
  // The 8 survivors are the NEWEST spans (12..19), oldest first.
  const auto local = Tracer::global().collect_local();
  ASSERT_EQ(local.size(), 8u);
  for (std::size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ(local[i].second.arg, 12 + i) << "slot " << i;
  }
}

TEST(Tracing, DisarmedRecordingIsANoOp) {
  Tracer::global().clear();
  ASSERT_FALSE(Tracer::global().armed());
  record_span("ignored", "test", 0, 10);
  {
    RT_TRACE_SPAN("also_ignored", "test");
  }
  EXPECT_EQ(Tracer::global().span_count(), 0u);
}

TEST(Tracing, ChromeTraceRoundTripsThroughStrictParser) {
  TracerGuard guard(64);
  {
    RT_TRACE_SPAN("outer", "test", 42, "answer");
    RT_TRACE_SPAN("inner", "test");
  }
  const std::string json = Tracer::global().render_chrome_trace();
  const ParsedTrace parsed = parse_chrome_trace(json);
  EXPECT_TRUE(parsed.has_span("outer"));
  EXPECT_TRUE(parsed.has_span("inner"));
  EXPECT_EQ(parsed.dropped_spans, 0u);
  // The strict parser rejects what a lenient one would shrug off.
  EXPECT_THROW(parse_chrome_trace(json + "x"), TraceParseError);
  EXPECT_THROW(parse_chrome_trace(json.substr(0, json.size() / 2)),
               TraceParseError);
  EXPECT_THROW(parse_chrome_trace("{}"), TraceParseError);
}

TEST(Tracing, SerializeAbsorbRoundTrip) {
  TracerGuard guard(64);
  record_span("worker_side", "test", 100, 250, 7, "cells");
  const std::string payload = Tracer::global().serialize_and_clear();
  EXPECT_EQ(Tracer::global().span_count(), 0u);  // drained
  ASSERT_TRUE(Tracer::global().absorb(payload, /*worker=*/3));
  ASSERT_EQ(Tracer::global().remote_spans().size(), 1u);
  const RemoteSpan& span = Tracer::global().remote_spans()[0];
  EXPECT_EQ(span.name, "worker_side");
  EXPECT_EQ(span.start_ns, 100u);
  EXPECT_EQ(span.dur_ns, 150u);
  EXPECT_EQ(span.arg, 7u);
  EXPECT_EQ(span.arg_name, "cells");
  EXPECT_EQ(span.worker, 3u);
  // The absorbed span exports under the worker's pid lane.
  const ParsedTrace parsed =
      parse_chrome_trace(Tracer::global().render_chrome_trace());
  const auto pids = parsed.span_pids();
  ASSERT_EQ(pids.size(), 1u);
  EXPECT_EQ(pids[0], 3u);
}

TEST(Tracing, CorruptPayloadIsRejectedWholeAndCounted) {
  TracerGuard guard(64);
  record_span("a", "test", 1, 2);
  record_span("b", "test", 3, 4);
  std::string payload = Tracer::global().serialize_and_clear();
  const std::uint64_t failures_before = Tracer::global().absorb_failures();

  std::string truncated = payload.substr(0, payload.size() - 3);
  EXPECT_FALSE(Tracer::global().absorb(truncated, 1));
  std::string trailing = payload + "xyz";
  EXPECT_FALSE(Tracer::global().absorb(trailing, 1));
  std::string flipped = payload;
  flipped[0] ^= 0x40;  // magic
  EXPECT_FALSE(Tracer::global().absorb(flipped, 1));

  EXPECT_EQ(Tracer::global().absorb_failures(), failures_before + 3);
  // No partial merge: a rejected payload contributes zero spans.
  EXPECT_TRUE(Tracer::global().remote_spans().empty());
  // The intact payload still absorbs.
  EXPECT_TRUE(Tracer::global().absorb(payload, 1));
  EXPECT_EQ(Tracer::global().remote_spans().size(), 2u);
}

// --------------------------------------------------------- passivity

TEST(Tracing, ArmedTracerNeverChangesCampaignBytes) {
  // The acceptance gate in miniature: the same NoSh campaign, disarmed vs
  // armed, at 1 and 8 threads, must serialize to identical bytes — spans
  // observe the schedule, they never participate in it.
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  const experiments::CampaignSpec spec{
      "DS-1-Disappear-RwoSH-x6", "DS-1", core::AttackVector::kDisappear,
      experiments::AttackMode::kNoSh, 6, 20200613};

  Tracer::global().clear();
  ASSERT_FALSE(Tracer::global().armed());
  const std::string base = experiments::serialize_campaign_result(
      experiments::CampaignScheduler(runner, 1).run_all({spec}).front());

  for (const unsigned threads : {1u, 8u}) {
    TracerGuard guard(1 << 12);
    const std::string traced = experiments::serialize_campaign_result(
        experiments::CampaignScheduler(runner, threads)
            .run_all({spec})
            .front());
    EXPECT_EQ(traced, base) << "tracing changed results at " << threads
                            << " threads";
    EXPECT_GT(Tracer::global().span_count(), 0u)
        << "tracer was armed but recorded nothing";
  }
}

}  // namespace
}  // namespace rt::obs
