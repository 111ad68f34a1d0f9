#include "core/robotack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rt::core {

Robotack::Robotack(RobotackConfig config, perception::CameraModel camera,
                   perception::DetectorNoiseModel noise,
                   perception::MotConfig mot_config, std::uint64_t seed)
    : config_(config),
      camera_(camera),
      noise_(noise),
      rng_(seed),
      mot_truth_(config.dt, mot_config, noise),
      projector_truth_(camera, config.dt),
      mot_ads_(config.dt, mot_config, noise),
      sm_(config.sm),
      sh_(config.sh, noise),
      th_(config.th, camera, noise) {
  log_.vector = config.vector;
}

void Robotack::set_oracle(AttackVector v,
                          std::shared_ptr<SafetyOracle> oracle) {
  sh_.set_oracle(v, std::move(oracle));
}

void Robotack::update_kinematics(
    const std::vector<perception::WorldTrack>& world) {
  constexpr double kAccelEmaAlpha = 0.3;
  for (const auto& w : world) {
    Kinematics& k = kinematics_[w.track_id];
    if (k.has_prev) {
      const math::Vec2 raw =
          (w.rel_velocity - k.prev_velocity) / config_.dt;
      k.accel_ema = k.accel_ema * (1.0 - kAccelEmaAlpha) +
                    raw * kAccelEmaAlpha;
    }
    k.prev_velocity = w.rel_velocity;
    k.has_prev = true;
  }
}

math::Vec2 Robotack::accel_estimate(int track_id) const {
  const auto it = kinematics_.find(track_id);
  return it != kinematics_.end() ? it->second.accel_ema : math::Vec2{};
}

double Robotack::malware_delta(const perception::WorldTrack& target,
                               double ego_speed) const {
  const double obj_len = sim::default_dimensions(target.cls).length;
  const double gap = target.rel_position.x - obj_len / 2.0 -
                     config_.ego_length / 2.0;
  const double d_stop =
      ego_speed * ego_speed / (2.0 * config_.comfort_decel);
  return gap - d_stop;
}

const perception::WorldTrack* Robotack::pick_target(
    const std::vector<perception::WorldTrack>& world) {
  const bool random_pick =
      config_.timing == TimingPolicy::kRandomUnconditional &&
      config_.randomize_target;
  // Candidate list reuses member scratch: this runs on every dormant frame.
  auto& candidates = candidates_scratch_;
  candidates.clear();
  for (const auto& w : world) {
    if (w.rel_position.x < config_.sm.min_target_range) continue;
    if (w.rel_position.x > config_.sm.max_target_range) continue;
    candidates.push_back(&w);
  }
  if (candidates.empty()) return nullptr;
  if (random_pick) {
    const auto i = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(candidates.size()) - 1));
    return candidates[i];
  }
  // The victim is the object closest to the EV (§III-D phase 2).
  const auto* best = candidates.front();
  for (const auto* c : candidates) {
    if (c->rel_position.norm() < best->rel_position.norm()) best = c;
  }
  return best;
}

void Robotack::arm(const perception::WorldTrack& target, int k, double time,
                   double delta, double predicted_delta) {
  // Resolve the victim's track in the ADS-view replica: highest-IoU live
  // track of the same class.
  const auto truth_view = mot_truth_.track(target.track_id);
  if (!truth_view) return;
  int ads_id = -1;
  double best_iou = 0.05;
  for (const auto& t : mot_ads_.live_tracks()) {
    if (t.cls != target.cls) continue;
    const double o = math::iou(t.bbox, truth_view->bbox);
    if (o > best_iou) {
      best_iou = o;
      ads_id = t.track_id;
    }
  }
  if (ads_id < 0) return;  // the ADS does not track the victim (yet)

  AttackVector v = config_.vector;
  if (config_.timing == TimingPolicy::kRandomUnconditional &&
      config_.randomize_vector) {
    const std::int64_t pick = rng_.uniform_int(0, 2);
    v = pick == 0   ? AttackVector::kMoveOut
        : pick == 1 ? AttackVector::kMoveIn
                    : AttackVector::kDisappear;
  }

  const double y = target.rel_position.y;
  double direction = 1.0;
  double omega = 0.0;
  switch (v) {
    case AttackVector::kMoveOut:
      // Push away from the lane center, far enough to both leave the EV
      // corridor and break the camera/LiDAR pairing.
      direction = y >= 0.0 ? 1.0 : -1.0;
      omega = config_.breakaway_gate + config_.omega_margin;
      break;
    case AttackVector::kMoveIn:
      // Pull to the lane center.
      direction = y >= 0.0 ? -1.0 : 1.0;
      omega = std::max(std::abs(y), config_.breakaway_gate) +
              config_.omega_margin;
      break;
    case AttackVector::kDisappear:
      break;
  }

  th_.begin(v, direction, omega);
  ads_diverged_ = true;
  k_left_ = k;
  victim_truth_track_ = target.track_id;
  victim_ads_track_ = ads_id;
  last_victim_range_ = target.rel_position.x;

  log_.triggered = true;
  ++log_.triggers;
  log_.vector = v;
  log_.start_time = time;
  log_.delta_at_launch = delta;
  log_.v_rel_at_launch = target.rel_velocity;
  log_.a_rel_at_launch = accel_estimate(target.track_id);
  log_.predicted_delta = predicted_delta;
  log_.planned_k = k;
  log_.omega_target = omega;
  log_.victim_cls = target.cls;
  log_.victim_truth_id = target.last_truth_id;
}

void Robotack::maybe_arm(const std::vector<perception::WorldTrack>& world,
                         double ego_speed, double time) {
  if (log_.triggers >= config_.max_triggers) return;
  const auto* target = pick_target(world);
  if (target == nullptr) return;

  const double delta = malware_delta(*target, ego_speed);
  const math::Vec2 v_rel = target->rel_velocity;
  const math::Vec2 a_rel = accel_estimate(target->track_id);

  switch (config_.timing) {
    case TimingPolicy::kSafetyHijacker: {
      if (!sm_.matches(*target, config_.vector)) return;
      const ShDecision d =
          sh_.decide(config_.vector, target->cls, delta, v_rel, a_rel);
      if (d.attack) arm(*target, d.k, time, delta, d.predicted_delta);
      return;
    }
    case TimingPolicy::kRandomAfterMatch: {
      if (!sm_.matches(*target, config_.vector)) return;
      if (!first_match_time_) {
        first_match_time_ = time;
        random_delay_ = rng_.uniform(0.0, config_.random_delay_max);
      }
      if (time >= *first_match_time_ + random_delay_) {
        const int k = static_cast<int>(rng_.uniform_int(
            config_.random_k_min, config_.random_k_max));
        arm(*target, k, time, delta, 0.0);
      }
      return;
    }
    case TimingPolicy::kRandomUnconditional: {
      if (!random_params_drawn_) {
        random_params_drawn_ = true;
        random_start_time_ = rng_.uniform(config_.random_start_min,
                                          config_.random_start_max);
      }
      if (time >= random_start_time_) {
        const int k = static_cast<int>(rng_.uniform_int(
            config_.random_k_min, config_.random_k_max));
        arm(*target, k, time, delta, 0.0);
      }
      return;
    }
    case TimingPolicy::kAtDeltaThreshold: {
      if (!sm_.matches(*target, config_.vector)) return;
      if (delta <= config_.delta_trigger) {
        arm(*target, config_.fixed_k, time, delta, 0.0);
      }
      return;
    }
  }
}

void Robotack::process_in_place(perception::CameraFrame& frame,
                                double ego_speed) {
  // A spent attacker is a pass-through: nothing reads its replicas, its
  // projector or its kinematics again, and no burst can arm.
  if (spent()) return;

  // Until an attack arms, the ADS has received exactly the true frames, so
  // its replica is the truth replica as of frame t-1.
  if (!ads_diverged_) mot_ads_ = mot_truth_;

  // Phase 2: reconstruct the world from the hacked camera feed. The truth
  // replica consumes the frame *before* any perturbation is applied.
  mot_truth_.update_into(frame, truth_tracks_scratch_);
  projector_truth_.project_into(truth_tracks_scratch_, world_scratch_);
  const auto& world = world_scratch_;
  update_kinematics(world);

  if (!attack_active()) {
    maybe_arm(world, ego_speed, frame.time);
  }

  // Phase 3: trigger the trajectory hijacker.
  if (attack_active()) {
    // Victim's current true state (range + where its detection should be).
    std::optional<math::Bbox> victim_box;
    for (const auto& w : world) {
      if (w.track_id != victim_truth_track_) continue;
      last_victim_range_ = w.rel_position.x;
      break;
    }
    if (const auto tv = mot_truth_.track(victim_truth_track_)) {
      victim_box = tv->bbox;
    }

    // Find the victim's detection in the outgoing frame.
    std::optional<std::size_t> det_index;
    if (victim_box) {
      double best = 0.1;
      for (std::size_t i = 0; i < frame.detections.size(); ++i) {
        const double o = math::iou(frame.detections[i].bbox, *victim_box);
        if (o > best) {
          best = o;
          det_index = i;
        }
      }
    }

    const auto ads_pred = mot_ads_.predict_next_bbox(victim_ads_track_);
    const auto res =
        th_.apply(frame, det_index, ads_pred, last_victim_range_);
    if (res.perturbed) ++log_.frames_perturbed;
    --k_left_;
    if (k_left_ == 0) {
      log_.k_prime = th_.k_prime();
    }
  }

  // Keep a diverged ADS-view replica in lockstep with what the ADS
  // receives.
  if (ads_diverged_) mot_ads_.update_into(frame, ads_tracks_scratch_);
}

}  // namespace rt::core
