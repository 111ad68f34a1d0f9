#include "perception/lidar_model.hpp"

#include <algorithm>
#include <cmath>

namespace rt::perception {

void LidarModel::scan_into(const std::vector<sim::GroundTruthObject>& objects,
                           std::vector<LidarMeasurement>& out) {
  out.clear();
  for (const auto& obj : objects) {
    const double range = obj.rel_position.norm();
    if (obj.rel_position.x < 1.0) continue;  // behind / alongside the sensor
    if (std::abs(obj.rel_position.y) > config_.lateral_coverage) continue;
    if (range > config_.range_for(obj.type)) continue;
    if (!rng_.bernoulli(config_.detect_prob_for(obj.type))) continue;

    LidarMeasurement m;
    m.rel_position = {
        obj.rel_position.x + rng_.normal(0.0, config_.position_sigma),
        obj.rel_position.y + rng_.normal(0.0, config_.position_sigma)};
    // Returned point count falls off with the square of range and scales
    // with the presented area; used by fusion as a confidence proxy.
    const double area = obj.dims.width * obj.dims.height;
    m.point_count = std::max(
        1, static_cast<int>(4000.0 * area / std::max(1.0, range * range)));
    m.truth_id = obj.id;
    out.push_back(m);
  }
}

}  // namespace rt::perception
