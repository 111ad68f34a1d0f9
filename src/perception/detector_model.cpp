#include "perception/detector_model.hpp"

#include <algorithm>
#include <cmath>

namespace rt::perception {

DetectorModel::DetectorModel(CameraModel camera, DetectorNoiseModel noise,
                             stats::Rng rng)
    : camera_(camera), noise_(noise), rng_(rng) {}

bool DetectorModel::in_streak(sim::ActorId id) const {
  const auto it = streak_left_.find(id);
  return it != streak_left_.end() && it->second.left > 0;
}

void DetectorModel::detect_into(
    const std::vector<sim::GroundTruthObject>& objects, double sim_time,
    CameraFrame& frame) {
  frame.time = sim_time;
  frame.detections.clear();
  for (const auto& obj : objects) {
    const auto truth_box = camera_.project(obj);
    if (!truth_box) {
      streak_left_.erase(obj.id);  // out of frustum: streak state is moot
      continue;
    }
    const ClassNoiseModel& m = noise_.for_class(obj.type);

    // Advance the misdetection streak process.
    Streak& streak = streak_left_[obj.id];
    bool degraded_frame = false;
    if (streak.left > 0) {
      --streak.left;
      if (!streak.degraded) continue;  // absent this frame
      degraded_frame = true;
    } else if (rng_.bernoulli(m.streak_start_prob)) {
      // Streak length ~ loc + Exp(rate), at least one frame (this one).
      // Heavy-tail streaks (the paper's empirical p99 of 31 ped / 59.4 veh
      // frames) are *degraded-localization* streaks; only the short core
      // streaks are true dropouts.
      const bool tail = rng_.bernoulli(m.streak_tail_weight);
      const double rate =
          tail ? m.streak.lambda * m.streak_tail_rate_mult : m.streak.lambda;
      const double len = m.streak.loc + rng_.exponential(rate);
      streak.left = std::max(0, static_cast<int>(std::lround(len)) - 1);
      streak.degraded = tail;
      if (tail) {
        streak.fx = rng_.uniform(0.30, 0.45) *
                    (rng_.bernoulli(0.5) ? 1.0 : -1.0);
        streak.fy = rng_.uniform(0.08, 0.18) *
                    (rng_.bernoulli(0.5) ? 1.0 : -1.0);
        streak.sw = rng_.uniform(0.90, 1.12);
        streak.sh = rng_.uniform(0.90, 1.12);
      }
      if (!tail) continue;  // absent this frame
      degraded_frame = true;
    }

    if (degraded_frame) {
      // Badly-localized box: the streak's persistent offset (plus small
      // per-frame jitter) keeps IoU with the truth below the 0.6
      // misdetection criterion while the tracker's association survives.
      Detection det;
      const double fx = streak.fx + rng_.normal(0.0, 0.03);
      const double fy = streak.fy + rng_.normal(0.0, 0.02);
      det.bbox = truth_box->translated(fx * truth_box->w,
                                       fy * truth_box->h);
      det.bbox.w = truth_box->w * streak.sw;
      det.bbox.h = truth_box->h * streak.sh;
      det.cls = obj.type;
      det.confidence = std::clamp(rng_.normal(0.5, 0.1), 0.2, 0.9);
      det.truth_id = obj.id;
      frame.detections.push_back(det);
      continue;
    }

    // Center error: two-component Gaussian mixture, normalized by bbox size.
    const bool outlier = rng_.bernoulli(m.outlier_prob);
    const double sx = outlier ? m.outlier_sigma(m.center_x.sigma, m.core_sigma_x)
                              : m.core_sigma_x;
    const double sy = outlier ? m.outlier_sigma(m.center_y.sigma, m.core_sigma_y)
                              : m.core_sigma_y;
    const double dx = rng_.normal(m.center_x.mu, sx) * truth_box->w;
    const double dy = rng_.normal(m.center_y.mu, sy) * truth_box->h;

    Detection det;
    det.bbox = truth_box->translated(dx, dy);
    det.bbox.w = truth_box->w * std::max(0.2, rng_.normal(1.0, m.size_jitter_sigma));
    det.bbox.h = truth_box->h * std::max(0.2, rng_.normal(1.0, m.size_jitter_sigma));
    det.cls = obj.type;
    det.confidence = std::clamp(rng_.normal(0.85, 0.08), 0.3, 1.0);
    det.truth_id = obj.id;
    frame.detections.push_back(det);
  }
}

}  // namespace rt::perception
