#include "core/safety_oracle.hpp"

#include <array>
#include <cctype>
#include <fstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/hash.hpp"

namespace rt::core {

namespace {

/// Batch-width distribution of oracle flushes: the capacity sweet spot is
/// 32 (see BM_OracleBatchInference), so a healthy run's mass sits in the
/// 17-32 bucket; a drift toward 1-2 means callers are flushing early and
/// the matrix-matrix win is gone.
const obs::Histogram& batch_width_histogram() {
  static const obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "rt_oracle_batch_width", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0},
      "Queries served per OracleBatchBuffer flush");
  return h;
}

}  // namespace

SafetyOracle::SafetyOracle(std::uint64_t seed) {
  stats::Rng rng(seed);
  net_ = nn::make_safety_hijacker_net(rng, kInputDim);
}

std::vector<double> SafetyOracle::features(double delta, math::Vec2 v_rel,
                                           math::Vec2 a_rel, double k) {
  return {delta, v_rel.x, v_rel.y, a_rel.x, a_rel.y, k};
}

double SafetyOracle::predict(double delta, math::Vec2 v_rel,
                             math::Vec2 a_rel, double k) const {
  std::array<double, kInputDim> x{delta, v_rel.x, v_rel.y, a_rel.x, a_rel.y,
                                  k};
  scaler_.transform_in_place(x);
  double y = 0.0;
  frozen_.predict(x, {&y, 1});
  return y;
}

void SafetyOracle::predict_batch(std::span<const OracleQuery> queries,
                                 std::span<double> out) const {
  if (out.size() != queries.size()) {
    throw std::invalid_argument(
        "SafetyOracle::predict_batch: out.size() != queries.size()");
  }
  if (queries.empty()) return;
  // Thread-local gather matrix + workspace: once a thread has seen a batch
  // width, serving that width allocates nothing, and a shared trained
  // oracle stays safe under concurrent callers (forward mutates only the
  // caller-thread workspace).
  thread_local math::Matrix x;
  thread_local nn::Mlp::Workspace ws;
  x.resize(kInputDim, queries.size());
  for (std::size_t j = 0; j < queries.size(); ++j) {
    const OracleQuery& q = queries[j];
    x(0, j) = q.delta;
    x(1, j) = q.v_rel.x;
    x(2, j) = q.v_rel.y;
    x(3, j) = q.a_rel.x;
    x(4, j) = q.a_rel.y;
    x(5, j) = q.k;
  }
  scaler_.transform_in_place(x);
  const math::Matrix& y = net_.predict_batch_into(x, ws);
  for (std::size_t j = 0; j < queries.size(); ++j) out[j] = y(0, j);
}

OracleBatchBuffer::OracleBatchBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  pending_.reserve(capacity_);
  results_.reserve(capacity_);
}

std::span<const double> OracleBatchBuffer::flush(
    const SafetyOracle& oracle) {
  RT_TRACE_SPAN("oracle_batch_flush", "oracle",
                static_cast<std::uint64_t>(pending_.size()), "width");
  if (!pending_.empty()) {
    batch_width_histogram().observe(static_cast<double>(pending_.size()));
  }
  results_.resize(pending_.size());
  oracle.predict_batch(pending_, results_);
  pending_.clear();
  return results_;
}

std::uint64_t SafetyOracle::content_hash() const {
  std::uint64_t h = net_.content_hash();
  for (const double v : scaler_.means()) h = stats::fnv1a_double(h, v);
  for (const double v : scaler_.stddevs()) h = stats::fnv1a_double(h, v);
  return h;
}

nn::TrainResult SafetyOracle::train(const nn::Dataset& data,
                                    nn::TrainConfig config) {
  nn::Trainer trainer(config);
  const nn::TrainResult result = trainer.train(net_, data, scaler_);
  frozen_ = nn::FrozenMlp(net_);
  trained_ = true;
  return result;
}

void SafetyOracle::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("SafetyOracle::save: cannot open " + path);
  }
  nn::save_model(os, net_, scaler_);
  // Provenance trailer (token-based; "-" marks an empty field, embedded
  // whitespace is mapped to '_' so exotic scenario keys cannot derail the
  // token parser). Legacy readers never consumed past the last layer, so
  // the trailer is backward-compatible.
  const auto tokenize = [](std::string s) {
    if (s.empty()) return std::string("-");
    for (char& c : s) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    }
    return s;
  };
  os << "oracle-meta " << tokenize(provenance_.vector) << ' '
     << provenance_.fingerprint << ' ' << tokenize(provenance_.curriculum)
     << '\n';
}

bool SafetyOracle::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  nn::load_model(is, net_, scaler_);
  frozen_ = nn::FrozenMlp(net_);
  provenance_ = Provenance{};
  std::string tag;
  if (is >> tag && tag == "oracle-meta") {
    std::string vector;
    std::string curriculum;
    std::uint64_t fingerprint = 0;
    if (is >> vector >> fingerprint >> curriculum) {
      provenance_.vector = vector == "-" ? std::string{} : vector;
      provenance_.curriculum =
          curriculum == "-" ? std::string{} : curriculum;
      provenance_.fingerprint = fingerprint;
    }
  }
  trained_ = true;
  return true;
}

}  // namespace rt::core
