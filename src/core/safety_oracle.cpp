#include "core/safety_oracle.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "stats/hash.hpp"

namespace rt::core {

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
  // Written next to `path` and renamed over it, so a reader (or a process
  // killed mid-write) never leaves a partial file under the final name.
  // The suffix is unique per process and call: concurrent savers of one
  // cache path each rename a complete file, and the last one wins.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_counter.fetch_add(1));
  {
    std::ofstream os(tmp);
    if (!os) {
      throw std::runtime_error("SafetyOracle::save: cannot open " + tmp);
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
    os.close();
    if (!os) {
      std::remove(tmp.c_str());
      throw std::runtime_error("SafetyOracle::save: cannot write " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("SafetyOracle::save: cannot rename " + tmp +
                             " to " + path + ": " + ec.message());
  }
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
