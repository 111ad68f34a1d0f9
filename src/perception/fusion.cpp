#include "perception/fusion.hpp"

#include <algorithm>
#include <limits>

namespace rt::perception {

void Fusion::fuse_into(const std::vector<WorldTrack>& camera,
                       const std::vector<LidarTrack>& lidar,
                       std::vector<FusedObject>& out) {
  out.clear();

  lidar_used_scratch_.assign(lidar.size(), 0);
  std::vector<char>& lidar_used = lidar_used_scratch_;
  for (const WorldTrack& cam : camera) {
    // Nearest LiDAR track within the elliptical pairing gate.
    const double frac = cam.cls == sim::ActorType::kVehicle
                            ? config_.pair_gate_longitudinal_frac_vehicle
                            : config_.pair_gate_longitudinal_frac_pedestrian;
    const double gate_x = std::max(config_.pair_gate_longitudinal_min,
                                   frac * cam.rel_position.x);
    const double gate_y = config_.pair_gate_lateral;
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = lidar.size();
    for (std::size_t j = 0; j < lidar.size(); ++j) {
      if (lidar_used[j]) continue;
      const double dx =
          (cam.rel_position.x - lidar[j].rel_position.x) / gate_x;
      const double dy =
          (cam.rel_position.y - lidar[j].rel_position.y) / gate_y;
      const double d = dx * dx + dy * dy;
      if (d < best) {
        best = d;
        best_j = j;
      }
    }
    const bool paired = best_j < lidar.size() && best <= 1.0;

    FusedObject obj;
    obj.id = cam.track_id;
    obj.cls = cam.cls;
    obj.camera_hits = cam.hits;
    obj.last_truth_id = cam.last_truth_id;
    obj.lidar_expected =
        cam.rel_position.norm() <=
            lidar_config_.range_for(cam.cls) * config_.coverage_margin &&
        std::abs(cam.rel_position.y) <= lidar_config_.lateral_coverage;
    Record& rec = records_[cam.track_id];

    if (paired) {
      lidar_used[best_j] = 1;
      const double w = cam.cls == sim::ActorType::kVehicle
                           ? config_.lidar_weight_vehicle
                           : config_.lidar_weight_pedestrian;
      const LidarTrack& l = lidar[best_j];
      obj.rel_position = l.rel_position * w + cam.rel_position * (1.0 - w);
      const double wv = config_.lidar_velocity_weight;
      obj.rel_velocity = l.rel_velocity * wv + cam.rel_velocity * (1.0 - wv);
      obj.lidar_corroborated = true;
      if (cam.hits >= 2) rec.published = true;
    } else {
      obj.rel_position = cam.rel_position;
      obj.rel_velocity = cam.rel_velocity;
      obj.lidar_corroborated = false;
      const int needed = obj.lidar_expected ? config_.camera_only_age_near
                                            : config_.camera_only_age_far;
      if (cam.hits >= needed) rec.published = true;
    }

    rec.coast_left = config_.coast_frames;
    rec.last = obj;
    if (rec.published) out.push_back(obj);
  }

  // Coast published objects whose camera track vanished this frame, then
  // forget them. Liveness is a linear scan over the (small) camera list:
  // unlike a rebuilt hash set this costs zero allocations per frame.
  const auto camera_has = [&camera](int id) {
    for (const WorldTrack& cam : camera) {
      if (cam.track_id == id) return true;
    }
    return false;
  };
  for (auto it = records_.begin(); it != records_.end();) {
    if (camera_has(it->first)) {
      ++it;
      continue;
    }
    Record& rec = it->second;
    if (rec.published && rec.coast_left > 0) {
      --rec.coast_left;
      rec.last.rel_position += rec.last.rel_velocity * dt_;
      rec.last.coasting = true;
      out.push_back(rec.last);
      ++it;
    } else {
      it = records_.erase(it);
    }
  }
}

}  // namespace rt::perception
