#pragma once

/// Process-wide metrics registry: counters, gauges, and fixed-bucket
/// histograms, designed for the campaign stack's two contracts.
///
/// * Lock-free increments. Every counter/histogram owns a small array of
///   shards (one cache line of atomics per shard); a thread increments the
///   shard picked by its stable thread index with a relaxed fetch_add and
///   never takes a lock or allocates. Shards are merged only on scrape.
/// * Deterministic merges. All shard cells are u64 (counts, bucket counts,
///   and histogram sums in fixed-point milli-units), so the scrape-time
///   merge is a sum of integers — independent of thread interleaving and
///   of the order shards are visited. Two runs that observe the same
///   multiset of values snapshot to identical bytes.
///
/// Registration is idempotent by name: constructing the same counter twice
/// (e.g. one per CampaignCellCache instance) returns the same underlying
/// metric. Registering one name with two different kinds (or a histogram
/// with different bounds) throws — silent aliasing would corrupt both.
///
/// Naming convention (see README "Observability"): `rt_<area>_<what>` with
/// a `_total` suffix for monotonic counters and the unit spelled out for
/// histograms (`rt_server_request_latency_ms`).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rt::obs {

namespace detail {

/// Threads are assigned a stable small index on first use; two threads only
/// share a shard once more than kMetricShards threads have ever existed,
/// which keeps the hot path contention-free without per-thread shard
/// lifetime bookkeeping (a shard is just a stripe of the metric's cells).
inline constexpr std::uint32_t kMetricShards = 64;

std::uint32_t metric_shard_index();

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct Metric {
  std::string name;
  std::string help;
  MetricKind kind;
  std::vector<double> bounds;  ///< histogram upper bounds (le), ascending
  std::size_t width{1};        ///< cells per shard
  /// kMetricShards * width relaxed-atomic cells; layout [shard][cell].
  /// Counter: cell 0 = count. Histogram: cells [0, bounds.size()] are the
  /// buckets (last = +Inf overflow), cell bounds.size()+1 accumulates the
  /// observed sum in milli-units. Gauge: single signed cell, shard 0 only.
  std::unique_ptr<std::atomic<std::uint64_t>[]> cells;
  std::atomic<std::int64_t> gauge_value{0};

  std::atomic<std::uint64_t>& cell(std::uint32_t shard, std::size_t idx) {
    return cells[static_cast<std::size_t>(shard) * width + idx];
  }
  const std::atomic<std::uint64_t>& cell(std::uint32_t shard,
                                         std::size_t idx) const {
    return cells[static_cast<std::size_t>(shard) * width + idx];
  }
};

}  // namespace detail

/// Handle to a monotonically increasing counter. Default-constructed
/// handles are inert no-ops, so instrumentation never needs null checks.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (m_ == nullptr) return;
    m_->cell(detail::metric_shard_index(), 0)
        .fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum over the shards: what a snapshot taken now would report, without
  /// copying the registry. 0 for an inert handle.
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::Metric* m) : m_(m) {}
  detail::Metric* m_{nullptr};
};

/// Handle to a settable signed gauge (single atomic cell — gauges are
/// last-writer-wins, so sharding them would be meaningless).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) const {
    if (m_) m_->gauge_value.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) const {
    if (m_) m_->gauge_value.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return m_ ? m_->gauge_value.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::Metric* m) : m_(m) {}
  detail::Metric* m_{nullptr};
};

/// Handle to a fixed-bucket histogram. Bucket semantics match Prometheus:
/// an observation v lands in the first bucket with v <= bound; values
/// above every bound land in the implicit +Inf bucket.
class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::Metric* m) : m_(m) {}
  detail::Metric* m_{nullptr};
};

struct HistogramSnapshot {
  std::vector<double> bounds;         ///< upper bounds, ascending
  std::vector<std::uint64_t> buckets; ///< bounds.size()+1 counts (+Inf last)
  std::uint64_t count{0};
  double sum{0.0};  ///< merged from fixed-point milli-units: deterministic
};

struct MetricSnapshot {
  std::string name;
  std::string help;
  detail::MetricKind kind;
  std::uint64_t counter{0};
  std::int64_t gauge{0};
  HistogramSnapshot histogram;
};

struct MetricsSnapshot {
  std::vector<MetricSnapshot> metrics;  ///< registration order

  const MetricSnapshot* find(const std::string& name) const;
  /// Counter value by name; 0 when absent (scrape code stays branch-light).
  std::uint64_t counter(const std::string& name) const;
  std::int64_t gauge(const std::string& name) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all runtime instrumentation registers into.
  static MetricsRegistry& global();

  Counter counter(const std::string& name, const std::string& help = "");
  Gauge gauge(const std::string& name, const std::string& help = "");
  Histogram histogram(const std::string& name, std::vector<double> bounds,
                      const std::string& help = "");

  MetricsSnapshot snapshot() const;

 private:
  detail::Metric* find_or_create(const std::string& name,
                                 detail::MetricKind kind,
                                 const std::string& help,
                                 std::vector<double> bounds);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<detail::Metric>> metrics_;
};

/// Prometheus text exposition (format 0.0.4): HELP/TYPE headers, cumulative
/// `_bucket{le=...}` rows, `_sum`/`_count`. Suitable for scraping or for
/// persisting next to BENCH_*.json.
std::string render_prometheus(const MetricsSnapshot& snap);

/// One-line JSON object keyed by metric name — the `stats` verb payload of
/// campaign_server.
std::string render_json(const MetricsSnapshot& snap);

/// The `--metrics PATH` exporter of every binary: writes the global
/// registry's snapshot as Prometheus text. False when the file cannot be
/// written in full.
bool write_prometheus_file(const std::string& path);

}  // namespace rt::obs
