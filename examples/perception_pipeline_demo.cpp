// Domain example: the perception stack in isolation, watching the Kalman
// vulnerability the paper exploits. Feeds the tracking-by-detection pipeline
// (detector noise -> Hungarian -> per-object KF -> ground-plane transform ->
// camera/LiDAR fusion) with a hand-driven scene, then replays the same scene
// with an Eq.-4-style biased-noise injection and prints how the fused world
// model diverges from the truth without any single frame looking anomalous.

#include <cstdio>
#include <vector>

#include "core/trajectory_hijacker.hpp"
#include "perception/detector_model.hpp"
#include "perception/perception_system.hpp"
#include "sim/types.hpp"

using namespace rt;

namespace {

sim::GroundTruthObject lead_vehicle(double range) {
  sim::GroundTruthObject g;
  g.id = 1;
  g.type = sim::ActorType::kVehicle;
  g.dims = sim::default_dimensions(g.type);
  g.rel_position = {range, 0.0};
  return g;
}

}  // namespace

int main() {
  const perception::CameraModel cam;
  const auto noise = perception::DetectorNoiseModel::paper_defaults();
  const double dt = 1.0 / 15.0;

  std::printf("frame | clean fused y | attacked fused y | per-frame shift\n");
  std::printf("      |   (meters)    |    (meters)      |  (fraction of sigma)\n");

  perception::PerceptionSystem clean(cam, dt, 0.1);
  perception::PerceptionSystem attacked(cam, dt, 0.1);
  perception::DetectorModel det_clean(cam, noise, stats::Rng(12));
  perception::DetectorModel det_attacked(cam, noise, stats::Rng(12));
  perception::LidarModel lidar(perception::LidarConfig{}, stats::Rng(6));

  core::TrajectoryHijacker th(core::TrajectoryHijacker::Config{}, cam, noise);
  th.begin(core::AttackVector::kMoveOut, +1.0, 2.4);

  const double sigma_band =
      (noise.vehicle.center_x.mu + noise.vehicle.center_x.sigma);

  perception::MotTracker ads_replica(dt, perception::MotConfig{}, noise);
  std::vector<perception::TrackView> replica_tracks;
  const double range = 30.0;
  perception::PerceptionOutput clean_out;
  perception::PerceptionOutput attacked_out;
  const std::vector<sim::GroundTruthObject> gt{lead_vehicle(range)};
  std::vector<perception::LidarMeasurement> scan;
  perception::CameraFrame clean_frame;
  perception::CameraFrame frame;
  for (int f = 0; f < 60; ++f) {
    if (f % 2 == 0) {
      lidar.scan_into(gt, scan);
      clean.ingest_lidar(scan);
      attacked.ingest_lidar(scan);
    }
    det_clean.detect_into(gt, f * dt, clean_frame);
    clean.step_into(clean_frame, clean_out);

    det_attacked.detect_into(gt, f * dt, frame);
    double shift_frac = 0.0;
    if (f >= 15 && !frame.detections.empty()) {
      const auto pred = ads_replica.predict_next_bbox(1);
      const auto res = th.apply(frame, 0, pred, range);
      shift_frac = pred && !frame.detections.empty()
                       ? (frame.detections[0].bbox.cx - pred->cx) /
                             (sigma_band * frame.detections[0].bbox.w)
                       : 0.0;
      (void)res;
    }
    ads_replica.update_into(frame, replica_tracks);
    attacked.step_into(frame, attacked_out);

    if (f % 4 == 0) {
      const double cy = clean_out.world.empty()
                            ? 0.0
                            : clean_out.world[0].rel_position.y;
      const double ay = attacked_out.world.empty()
                            ? 0.0
                            : attacked_out.world[0].rel_position.y;
      std::printf(" %4d | %12.2f | %15.2f | %10.2f\n", f, cy, ay, shift_frac);
    }
  }

  std::printf(
      "\nEvery attacked frame deviates from the tracker's prediction by at\n"
      "most 1.0 of the characterized noise band (last column <= 1): the\n"
      "Kalman filter cannot distinguish biased noise from motion (the\n"
      "paper's central vulnerability, SIII-B). Natural degraded-detection\n"
      "streaks can evict the dragged track, which is one reason vehicle\n"
      "attacks succeed less often than pedestrian ones end to end.\n");
  return 0;
}
