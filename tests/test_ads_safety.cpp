#include <gtest/gtest.h>

#include "ads/ads_system.hpp"
#include "ads/pid.hpp"
#include "ads/planner.hpp"
#include "ads/prediction.hpp"
#include "perception/detector_model.hpp"
#include "safety/ids.hpp"
#include "safety/safety_model.hpp"
#include "safety/safety_monitor.hpp"

namespace rt {
namespace {

perception::FusedObject make_fused(int id, double x, double y,
                                   sim::ActorType cls, double vx = 0.0,
                                   double vy = 0.0, int hits = 20,
                                   bool lidar = true) {
  perception::FusedObject o;
  o.id = id;
  o.cls = cls;
  o.rel_position = {x, y};
  o.rel_velocity = {vx, vy};
  o.camera_hits = hits;
  o.lidar_corroborated = lidar;
  o.lidar_expected = true;
  return o;
}

ads::WorldModel make_world(double ego_speed,
                           std::vector<perception::FusedObject> objs) {
  ads::WorldModel w;
  w.ego_speed = ego_speed;
  w.objects = std::move(objs);
  return w;
}

// ------------------------------------------------------------- prediction

TEST(Prediction, CorridorPredicates) {
  const double ego_w = 1.8;
  auto in_lane = make_fused(1, 30.0, 0.0, sim::ActorType::kVehicle);
  EXPECT_TRUE(ads::Prediction::in_corridor_now(in_lane, ego_w));
  auto parked = make_fused(2, 30.0, -3.0, sim::ActorType::kVehicle);
  EXPECT_FALSE(ads::Prediction::in_corridor_now(parked, ego_w));
}

TEST(Prediction, EntryCappedByTimeToReach) {
  const double ego_w = 1.8;
  // Drifting toward the lane at 1 m/s from y=-3, but only 6 m ahead of an
  // EV doing 12 m/s: passed in 0.5 s, cannot become a threat.
  auto drifting =
      make_fused(1, 6.0, -3.0, sim::ActorType::kVehicle, -12.0, 1.0);
  EXPECT_FALSE(
      ads::Prediction::enters_corridor_within(drifting, ego_w, 1.5, 12.0));
  // Same object far ahead: full horizon applies; 1.5 m/s for 1.5 s from
  // -2.5 reaches the corridor.
  auto far = make_fused(2, 60.0, -2.5, sim::ActorType::kVehicle, -5.0, 1.5);
  EXPECT_TRUE(ads::Prediction::enters_corridor_within(far, ego_w, 1.5, 12.0));
}

TEST(Prediction, PedestrianPredicates) {
  const double ego_w = 1.8;
  auto crossing =
      make_fused(1, 40.0, -4.0, sim::ActorType::kPedestrian, -12.0, 1.2);
  EXPECT_TRUE(ads::Prediction::pedestrian_on_road(crossing));
  EXPECT_TRUE(ads::Prediction::pedestrian_crossing(crossing, ego_w));
  EXPECT_FALSE(ads::Prediction::pedestrian_receding(crossing));
  auto leaving =
      make_fused(2, 40.0, -4.0, sim::ActorType::kPedestrian, -12.0, -1.2);
  EXPECT_FALSE(ads::Prediction::pedestrian_crossing(leaving, ego_w));
  EXPECT_TRUE(ads::Prediction::pedestrian_receding(leaving));
  auto sidewalk =
      make_fused(3, 40.0, -6.5, sim::ActorType::kPedestrian, -12.0, 1.2);
  EXPECT_FALSE(ads::Prediction::pedestrian_on_road(sidewalk));
}

// ----------------------------------------------------------------- planner

TEST(Planner, CruisesTowardTargetSpeed) {
  ads::LongitudinalPlanner planner;
  const auto out = planner.plan(make_world(8.0, {}), 1.8, 4.6);
  EXPECT_GT(out.accel_command, 0.5);
  EXPECT_FALSE(out.eb_active);
}

TEST(Planner, BrakesForInLaneLead) {
  ads::LongitudinalPlanner planner;
  // Slow lead 15 m ahead while EV does 12.5.
  const auto lead =
      make_fused(1, 15.0, 0.0, sim::ActorType::kVehicle, -5.6, 0.0);
  const auto out = planner.plan(make_world(12.5, {lead}), 1.8, 4.6);
  EXPECT_LT(out.accel_command, -1.0);
  EXPECT_TRUE(out.lead_id.has_value());
}

TEST(Planner, IgnoresParkedVehicleOutsideCorridor) {
  ads::LongitudinalPlanner planner;
  const auto parked =
      make_fused(1, 30.0, -3.0, sim::ActorType::kVehicle, -10.0, 0.0);
  const auto out = planner.plan(make_world(10.0, {parked}), 1.8, 4.6);
  EXPECT_GT(out.accel_command, 0.0);
  EXPECT_FALSE(out.lead_id.has_value());
}

TEST(Planner, CutInTriggersEmergencyBraking) {
  ads::LongitudinalPlanner planner;
  const auto outside =
      make_fused(1, 30.0, -2.5, sim::ActorType::kVehicle, -12.5, 0.0);
  for (int i = 0; i < 5; ++i) {
    (void)planner.plan(make_world(12.5, {outside}), 1.8, 4.6);
  }
  // The same object suddenly inside the corridor, close ahead.
  const auto inside =
      make_fused(1, 28.0, 0.0, sim::ActorType::kVehicle, -12.5, 0.0);
  const auto out = planner.plan(make_world(12.5, {inside}), 1.8, 4.6);
  EXPECT_TRUE(out.eb_active);
  EXPECT_LT(out.accel_command, -5.0);
}

TEST(Planner, MaterializedObjectTriggersEmergencyBraking) {
  ads::LongitudinalPlanner planner;
  (void)planner.plan(make_world(12.5, {}), 1.8, 4.6);
  // A brand-new fused id already in the corridor at 20 m (the Disappear /
  // Move_Out reappearance signature).
  const auto ghost =
      make_fused(7, 20.0, 0.0, sim::ActorType::kVehicle, -12.5, 0.0);
  const auto out = planner.plan(make_world(12.5, {ghost}), 1.8, 4.6);
  EXPECT_TRUE(out.eb_active);
}

TEST(Planner, NoEbWhenSlow) {
  ads::LongitudinalPlanner planner;
  (void)planner.plan(make_world(3.0, {}), 1.8, 4.6);
  const auto ghost =
      make_fused(7, 14.0, 0.0, sim::ActorType::kPedestrian, -3.0, 0.0);
  const auto out = planner.plan(make_world(3.0, {ghost}), 1.8, 4.6);
  EXPECT_FALSE(out.eb_active);  // cut-in reflex requires speed
}

TEST(Planner, YieldsToCommittedCrossingPedestrian) {
  ads::LongitudinalPlanner planner;
  const auto crossing =
      make_fused(1, 45.0, -3.5, sim::ActorType::kPedestrian, -12.5, 1.2);
  ads::PlanOutput out;
  for (int i = 0; i < 5; ++i) {
    out = planner.plan(make_world(12.5, {crossing}), 1.8, 4.6);
  }
  EXPECT_TRUE(out.lead_id.has_value());
  EXPECT_LT(out.accel_command, 0.0);
}

TEST(Planner, PedCautionCapsSpeed) {
  ads::LongitudinalPlanner planner;
  // Standing pedestrian on the road edge, not crossing: no stop target,
  // but the caution cap requests deceleration above the cap speed.
  const auto standing =
      make_fused(1, 30.0, -3.0, sim::ActorType::kPedestrian, -12.5, 0.0);
  const auto out = planner.plan(make_world(12.5, {standing}), 1.8, 4.6);
  EXPECT_LT(out.accel_command, 0.0);
  EXPECT_FALSE(out.eb_active);
}

// --------------------------------------------------------------------- pid

TEST(Pid, ConvergesStepResponse) {
  ads::PidController pid({1.0, 2.0, 0.0}, -10.0, 10.0);
  double y = 0.0;
  for (int i = 0; i < 300; ++i) {
    const double u = pid.step(1.0 - y, 0.01);
    y += 0.05 * (u - y);  // simple first-order plant
  }
  EXPECT_NEAR(y, 1.0, 0.05);
}

TEST(Pid, OutputClampedWithAntiWindup) {
  ads::PidController pid({10.0, 10.0, 0.0}, -1.0, 1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LE(pid.step(100.0, 0.01), 1.0);
  }
  // Integrator did not wind up into the saturation.
  EXPECT_LT(pid.integral(), 1.0);
  pid.reset();
  EXPECT_DOUBLE_EQ(pid.integral(), 0.0);
}

// ------------------------------------------------------------ safety model

TEST(SafetyModel, StoppingDistanceAndDelta) {
  safety::SafetyModel model;  // comfort 3.5
  EXPECT_NEAR(model.stopping_distance(12.5), 12.5 * 12.5 / 7.0, 1e-9);
  EXPECT_NEAR(model.delta(30.0, 12.5), 30.0 - 12.5 * 12.5 / 7.0, 1e-9);
  EXPECT_DOUBLE_EQ(model.stopping_distance(0.0), 0.0);
}

TEST(SafetyModel, AssessWorld) {
  sim::EgoVehicle ego(0.0, 10.0);
  std::vector<sim::Actor> actors;
  actors.emplace_back(1, sim::ActorType::kVehicle, math::Vec2{30.0, 0.0});
  sim::World world(ego, std::move(actors));
  safety::SafetyModel model;
  const auto a = model.assess(world);
  EXPECT_NEAR(a.d_safe, 30.0 - 4.6, 1e-9);
  ASSERT_TRUE(a.bounding_object.has_value());
  EXPECT_EQ(*a.bounding_object, 1);
  EXPECT_NEAR(a.delta, a.d_safe - 100.0 / 7.0, 1e-9);
}

TEST(SafetyModel, ClearPath) {
  sim::World world(sim::EgoVehicle(0.0, 10.0), {});
  safety::SafetyModel model;
  const auto a = model.assess(world);
  EXPECT_DOUBLE_EQ(a.d_safe, model.config().clear_path_dsafe);
  EXPECT_FALSE(a.bounding_object.has_value());
}

TEST(SafetyMonitor, TracksMinimaAndEpisodes) {
  sim::World world(sim::EgoVehicle(0.0, 12.0), {});
  safety::SafetyMonitor mon(safety::SafetyModel{}, true);
  mon.record(world, false, false);
  mon.record(world, true, false);   // EB episode 1
  mon.record(world, true, true);    // attack begins
  mon.record(world, false, false);
  mon.record(world, true, false);   // EB episode 2
  EXPECT_TRUE(mon.emergency_braking_occurred());
  EXPECT_EQ(mon.eb_episodes(), 2);
  EXPECT_TRUE(mon.attack_observed());
  EXPECT_EQ(mon.timeline().size(), 5u);
  EXPECT_FALSE(mon.accident());  // clear path: delta large
}

TEST(SafetyMonitor, AccidentLabel) {
  // EV at speed right behind an in-path object: delta < 4.
  sim::EgoVehicle ego(0.0, 12.0);
  std::vector<sim::Actor> actors;
  actors.emplace_back(1, sim::ActorType::kVehicle, math::Vec2{15.0, 0.0});
  sim::World world(ego, std::move(actors));
  safety::SafetyMonitor mon;
  mon.record(world, false, true);
  EXPECT_TRUE(mon.accident());
  EXPECT_LT(mon.min_delta_since_attack(), 4.0);
}

// -------------------------------------------------------------------- ids

TEST(Ids, SilentOnNominalTraffic) {
  perception::CameraModel cam;
  safety::AttackIds ids(safety::IdsConfig{},
                        perception::DetectorNoiseModel::paper_defaults(), cam);
  perception::MotTracker mot(1.0 / 15.0);
  perception::DetectorModel det(
      cam, perception::DetectorNoiseModel::paper_defaults(), stats::Rng(21));
  sim::GroundTruthObject obj;
  obj.id = 1;
  obj.type = sim::ActorType::kVehicle;
  obj.dims = sim::default_dimensions(obj.type);
  obj.rel_position = {30.0, 0.0};
  const std::vector<sim::GroundTruthObject> objs{obj};
  std::vector<perception::TrackView> tracks;
  perception::CameraFrame frame;
  for (int f = 0; f < 400; ++f) {
    det.detect_into(objs, f / 15.0, frame);
    mot.update_into(frame, tracks);
    ids.observe(frame, tracks, {});
  }
  EXPECT_FALSE(ids.report().flagged);
}

TEST(Ids, FlagsLongCameraAbsenceWithLidarEvidence) {
  perception::CameraModel cam;
  safety::IdsConfig cfg;
  cfg.absence_p99_mult = 0.5;  // threshold ~29 frames
  safety::AttackIds ids(cfg,
                        perception::DetectorNoiseModel::paper_defaults(), cam);
  perception::LidarTrack l;
  l.track_id = 1;
  l.rel_position = {25.0, 0.0};
  l.hits = 50;
  perception::CameraFrame empty;
  for (int f = 0; f < 60; ++f) {
    ids.observe(empty, {}, {l});
  }
  EXPECT_TRUE(ids.report().flagged);
  EXPECT_GT(ids.report().absence_alarms, 0);
}

}  // namespace
}  // namespace rt
