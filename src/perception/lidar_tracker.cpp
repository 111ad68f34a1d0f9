#include "perception/lidar_tracker.hpp"

#include <algorithm>
#include <limits>

namespace rt::perception {

void LidarTracker::update(const std::vector<LidarMeasurement>& scan) {
  // Predict every track forward one LiDAR period.
  for (LidarTrack& t : tracks_) {
    t.rel_position += t.rel_velocity * dt_;
  }

  // Greedy nearest-neighbour association (LiDAR centroids are precise
  // enough that global assignment buys nothing here).
  meas_used_.assign(scan.size(), 0);
  track_hit_.assign(tracks_.size(), 0);
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_i = scan.size();
    for (std::size_t i = 0; i < scan.size(); ++i) {
      if (meas_used_[i]) continue;
      const double d =
          tracks_[j].rel_position.distance_to(scan[i].rel_position);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    if (best_i < scan.size() && best <= config_.gate) {
      meas_used_[best_i] = 1;
      track_hit_[j] = 1;
      LidarTrack& t = tracks_[j];
      const math::Vec2 residual =
          scan[best_i].rel_position - t.rel_position;
      t.rel_position += residual * config_.alpha;
      // The first residual reflects the unknown initial velocity, not a
      // velocity error; start correcting the velocity from the second hit.
      if (t.hits >= 2) {
        t.rel_velocity += residual * (config_.beta / dt_);
        t.rel_velocity.x = std::clamp(t.rel_velocity.x, -40.0, 40.0);
        t.rel_velocity.y = std::clamp(t.rel_velocity.y, -5.0, 5.0);
      }
      ++t.hits;
      t.consecutive_misses = 0;
      t.last_truth_id = scan[best_i].truth_id;
    }
  }
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    if (!track_hit_[j]) ++tracks_[j].consecutive_misses;
  }
  // Spawn tracks for unclaimed measurements.
  for (std::size_t i = 0; i < scan.size(); ++i) {
    if (meas_used_[i]) continue;
    LidarTrack t;
    t.track_id = next_id_++;
    t.rel_position = scan[i].rel_position;
    t.rel_velocity = {0.0, 0.0};
    t.last_truth_id = scan[i].truth_id;
    tracks_.push_back(t);
  }
  // Retire silent tracks.
  std::erase_if(tracks_, [&](const LidarTrack& t) {
    return t.consecutive_misses > config_.max_misses;
  });
}

}  // namespace rt::perception
