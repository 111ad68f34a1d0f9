#include "core/safety_hijacker.hpp"

#include <cmath>

namespace rt::core {

SafetyHijacker::SafetyHijacker(Config config,
                               perception::DetectorNoiseModel noise)
    : config_(config), noise_(noise) {}

void SafetyHijacker::set_oracle(AttackVector v,
                                std::shared_ptr<SafetyOracle> oracle) {
  oracles_[v] = std::move(oracle);
}

bool SafetyHijacker::has_oracle(AttackVector v) const {
  const auto it = oracles_.find(v);
  return it != oracles_.end() && it->second && it->second->trained();
}

int SafetyHijacker::k_max(AttackVector v, sim::ActorType cls) const {
  if (v == AttackVector::kDisappear) {
    // The paper calibrates against the *empirical* 99th percentile of the
    // characterized streak distribution (31 ped / 59.4 veh frames).
    const double p99 = noise_.for_class(cls).streak_p99;
    return std::max(config_.k_min,
                    static_cast<int>(std::floor(
                        p99 * config_.disappear_p99_mult)));
  }
  return config_.k_max_move;
}

ShDecision SafetyHijacker::decide(AttackVector v, sim::ActorType cls,
                                  double delta, math::Vec2 v_rel,
                                  math::Vec2 a_rel) const {
  ShDecision out;
  const auto it = oracles_.find(v);
  if (it == oracles_.end() || !it->second || !it->second->trained()) {
    return out;
  }
  const SafetyOracle& oracle = *it->second;
  const int kmax = k_max(v, cls);
  const bool move_in = v == AttackVector::kMoveIn;
  if (move_in && delta > config_.max_launch_delta_move_in) return out;
  const double gamma =
      move_in ? config_.gamma_launch_move_in : config_.gamma_launch;

  const auto predict = [&](int k) {
    return oracle.predict(delta, v_rel, a_rel, static_cast<double>(k));
  };

  // No k can push the EV below the launch threshold -> stay dormant.
  const double best = predict(kmax);
  if (best > gamma) return out;

  // Binary search for the minimal sufficient k (f_alpha non-increasing).
  // `at_hi` is the prediction already made for `hi`, so the answer needs
  // no extra query.
  int lo = config_.k_min;
  int hi = kmax;
  double at_hi = best;
  if (const double at_lo = predict(lo); at_lo <= gamma) {
    hi = lo;
    at_hi = at_lo;
  } else {
    while (lo + 1 < hi) {
      const int mid = (lo + hi) / 2;
      if (const double at_mid = predict(mid); at_mid <= gamma) {
        hi = mid;
        at_hi = at_mid;
      } else {
        lo = mid;
      }
    }
  }
  out.attack = true;
  out.k = hi;
  out.predicted_delta = at_hi;
  return out;
}

}  // namespace rt::core
