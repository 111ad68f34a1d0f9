#include "obs/metrics.hpp"

#include <pthread.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace rt::obs {

namespace detail {

std::uint32_t metric_shard_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return idx;
}

}  // namespace detail

namespace {

using detail::kMetricShards;
using detail::Metric;
using detail::MetricKind;

/// Histogram sums are accumulated in fixed-point milli-units so the
/// cross-shard merge is integer addition (order-independent, hence
/// deterministic across thread interleavings). Observations are clamped to
/// the representable non-negative range; all current histograms measure
/// sizes and latencies, which are non-negative by construction.
std::uint64_t to_milli_units(double v) {
  if (!(v > 0.0)) return 0;
  const double milli = v * 1000.0;
  if (milli >= 9.22e18) return UINT64_C(9220000000000000000);
  return static_cast<std::uint64_t>(std::llround(milli));
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// %.17g prints doubles round-trip-exactly without trailing-zero noise for
/// the common short values (bucket bounds like 0.5, sums like 12.25).
void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRId64, v);
  out += buf;
}

std::uint64_t counter_total(const Metric& m) {
  std::uint64_t total = 0;
  for (std::uint32_t sh = 0; sh < kMetricShards; ++sh) {
    total += m.cell(sh, 0).load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

std::uint64_t Counter::value() const {
  return m_ ? counter_total(*m_) : 0;
}

void Histogram::observe(double v) const {
  if (m_ == nullptr) return;
  const auto& bounds = m_->bounds;
  // Linear scan: bucket lists are short (<= ~16) and the branch-predictable
  // walk beats binary search at that size.
  std::size_t bucket = bounds.size();  // +Inf overflow by default
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (v <= bounds[i]) {
      bucket = i;
      break;
    }
  }
  const std::uint32_t shard = detail::metric_shard_index();
  m_->cell(shard, bucket).fetch_add(1, std::memory_order_relaxed);
  m_->cell(shard, bounds.size() + 1)
      .fetch_add(to_milli_units(v), std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  // fork() copies the registry's mutex in whatever state another thread
  // holds it, and a child that then registers a metric would block on it
  // forever. These handlers take the mutex across every fork, so both
  // processes come out of it with the mutex free.
  static const int fork_safe = ::pthread_atfork(
      [] { registry.mutex_.lock(); }, [] { registry.mutex_.unlock(); },
      [] { registry.mutex_.unlock(); });
  (void)fork_safe;
  return registry;
}

namespace {
/// Builds the registry, and so registers its fork handlers, while the program
/// loads with a single thread, so no fork can race its first use (a child
/// forked mid-construction would inherit the static's guard held).
[[maybe_unused]] const MetricsRegistry& registry_at_load =
    MetricsRegistry::global();
}  // namespace

detail::Metric* MetricsRegistry::find_or_create(const std::string& name,
                                                MetricKind kind,
                                                const std::string& help,
                                                std::vector<double> bounds) {
  if (name.empty()) throw std::invalid_argument("metric name is empty");
  if (kind == MetricKind::kHistogram) {
    if (bounds.empty()) {
      throw std::invalid_argument("histogram '" + name + "' has no buckets");
    }
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
      throw std::invalid_argument("histogram '" + name +
                                  "' bounds must be strictly ascending");
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : metrics_) {
    if (m->name != name) continue;
    if (m->kind != kind) {
      throw std::logic_error("metric '" + name + "' already registered as " +
                             kind_name(m->kind) + ", requested " +
                             kind_name(kind));
    }
    if (kind == MetricKind::kHistogram && m->bounds != bounds) {
      throw std::logic_error("histogram '" + name +
                             "' re-registered with different bounds");
    }
    return m.get();
  }
  auto m = std::make_unique<Metric>();
  m->name = name;
  m->help = help;
  m->kind = kind;
  m->bounds = std::move(bounds);
  m->width = kind == MetricKind::kHistogram ? m->bounds.size() + 2 : 1;
  if (kind != MetricKind::kGauge) {
    const std::size_t cells =
        static_cast<std::size_t>(kMetricShards) * m->width;
    m->cells = std::make_unique<std::atomic<std::uint64_t>[]>(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      m->cells[i].store(0, std::memory_order_relaxed);
    }
  }
  metrics_.push_back(std::move(m));
  return metrics_.back().get();
}

Counter MetricsRegistry::counter(const std::string& name,
                                 const std::string& help) {
  return Counter(find_or_create(name, MetricKind::kCounter, help, {}));
}

Gauge MetricsRegistry::gauge(const std::string& name,
                             const std::string& help) {
  return Gauge(find_or_create(name, MetricKind::kGauge, help, {}));
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds,
                                     const std::string& help) {
  return Histogram(
      find_or_create(name, MetricKind::kHistogram, help, std::move(bounds)));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  snap.metrics.reserve(metrics_.size());
  for (const auto& m : metrics_) {
    MetricSnapshot s;
    s.name = m->name;
    s.help = m->help;
    s.kind = m->kind;
    switch (m->kind) {
      case MetricKind::kCounter:
        s.counter = counter_total(*m);
        break;
      case MetricKind::kGauge:
        s.gauge = m->gauge_value.load(std::memory_order_relaxed);
        break;
      case MetricKind::kHistogram: {
        s.histogram.bounds = m->bounds;
        s.histogram.buckets.assign(m->bounds.size() + 1, 0);
        std::uint64_t sum_milli = 0;
        for (std::uint32_t sh = 0; sh < kMetricShards; ++sh) {
          for (std::size_t b = 0; b <= m->bounds.size(); ++b) {
            s.histogram.buckets[b] +=
                m->cell(sh, b).load(std::memory_order_relaxed);
          }
          sum_milli +=
              m->cell(sh, m->bounds.size() + 1).load(std::memory_order_relaxed);
        }
        for (const std::uint64_t b : s.histogram.buckets) {
          s.histogram.count += b;
        }
        s.histogram.sum = static_cast<double>(sum_milli) / 1000.0;
        break;
      }
    }
    snap.metrics.push_back(std::move(s));
  }
  return snap;
}

const MetricSnapshot* MetricsSnapshot::find(const std::string& name) const {
  for (const auto& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const MetricSnapshot* m = find(name);
  return m != nullptr && m->kind == detail::MetricKind::kCounter ? m->counter
                                                                 : 0;
}

std::int64_t MetricsSnapshot::gauge(const std::string& name) const {
  const MetricSnapshot* m = find(name);
  return m != nullptr && m->kind == detail::MetricKind::kGauge ? m->gauge : 0;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(snap.metrics.size() * 96);
  for (const auto& m : snap.metrics) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + m.help + "\n";
    }
    out += "# TYPE " + m.name + " ";
    out += kind_name(m.kind);
    out += "\n";
    switch (m.kind) {
      case detail::MetricKind::kCounter:
        out += m.name + " ";
        append_u64(out, m.counter);
        out += "\n";
        break;
      case detail::MetricKind::kGauge:
        out += m.name + " ";
        append_i64(out, m.gauge);
        out += "\n";
        break;
      case detail::MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < m.histogram.bounds.size(); ++b) {
          cumulative += m.histogram.buckets[b];
          out += m.name + "_bucket{le=\"";
          append_double(out, m.histogram.bounds[b]);
          out += "\"} ";
          append_u64(out, cumulative);
          out += "\n";
        }
        out += m.name + "_bucket{le=\"+Inf\"} ";
        append_u64(out, m.histogram.count);
        out += "\n" + m.name + "_sum ";
        append_double(out, m.histogram.sum);
        out += "\n" + m.name + "_count ";
        append_u64(out, m.histogram.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

std::string render_json(const MetricsSnapshot& snap) {
  std::string out = "{";
  bool first = true;
  for (const auto& m : snap.metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": ";
    switch (m.kind) {
      case detail::MetricKind::kCounter:
        append_u64(out, m.counter);
        break;
      case detail::MetricKind::kGauge:
        append_i64(out, m.gauge);
        break;
      case detail::MetricKind::kHistogram: {
        out += "{\"count\": ";
        append_u64(out, m.histogram.count);
        out += ", \"sum\": ";
        append_double(out, m.histogram.sum);
        out += ", \"buckets\": {";
        for (std::size_t b = 0; b < m.histogram.bounds.size(); ++b) {
          out += "\"";
          append_double(out, m.histogram.bounds[b]);
          out += "\": ";
          append_u64(out, m.histogram.buckets[b]);
          out += ", ";
        }
        out += "\"+Inf\": ";
        append_u64(out, m.histogram.buckets.empty()
                            ? 0
                            : m.histogram.buckets.back());
        out += "}}";
        break;
      }
    }
  }
  out += "}";
  return out;
}

bool write_prometheus_file(const std::string& path) {
  const std::string text =
      render_prometheus(MetricsRegistry::global().snapshot());
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace rt::obs
