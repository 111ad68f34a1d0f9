#include <gtest/gtest.h>

#include "sim/actor.hpp"
#include "sim/ego_vehicle.hpp"
#include "sim/road.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/world.hpp"

namespace rt::sim {
namespace {

TEST(Actor, FollowsWaypointAtSpeed) {
  Actor a(1, ActorType::kVehicle, {0.0, 0.0}, StartTrigger::immediately(),
          {{{10.0, 0.0}, 2.0}});
  for (int i = 0; i < 10; ++i) a.step(0.5, i * 0.5, 0.0);
  EXPECT_NEAR(a.state().position.x, 10.0, 1e-9);
  EXPECT_TRUE(a.route_finished());
  EXPECT_DOUBLE_EQ(a.state().velocity.x, 0.0);
}

TEST(Actor, TimeTrigger) {
  Actor a(1, ActorType::kPedestrian, {5.0, 0.0}, StartTrigger::at_time(1.0),
          {{{5.0, 10.0}, 1.0}});
  a.step(0.5, 0.5, 0.0);
  EXPECT_FALSE(a.started());
  EXPECT_DOUBLE_EQ(a.state().position.y, 0.0);
  a.step(0.5, 1.0, 0.0);
  EXPECT_TRUE(a.started());
  a.step(0.5, 1.5, 0.0);
  EXPECT_GT(a.state().position.y, 0.0);
}

TEST(Actor, EgoWithinTrigger) {
  Actor a(1, ActorType::kPedestrian, {50.0, -6.0},
          StartTrigger::ego_within(30.0), {{{50.0, 6.0}, 1.0}});
  a.step(0.1, 0.1, 0.0);  // ego 50 m away
  EXPECT_FALSE(a.started());
  a.step(0.1, 0.2, 25.0);  // ego 25 m away
  EXPECT_TRUE(a.started());
}

TEST(Actor, MultiLegRoute) {
  Actor a(1, ActorType::kVehicle, {0.0, 0.0}, StartTrigger::immediately(),
          {{{4.0, 0.0}, 4.0}, {{4.0, 3.0}, 1.0}});
  a.step(1.0, 1.0, 0.0);
  EXPECT_NEAR(a.state().position.x, 4.0, 1e-9);
  for (int i = 0; i < 3; ++i) a.step(1.0, 2.0 + i, 0.0);
  EXPECT_NEAR(a.state().position.y, 3.0, 1e-9);
}

TEST(EgoVehicle, AcceleratesWithJerkLimit) {
  EgoVehicle ego(0.0, 0.0);
  ego.step(0.1, 2.0);
  // Jerk limit (12 m/s^3) allows only 1.2 m/s^2 change in 0.1 s.
  EXPECT_NEAR(ego.acceleration(), 1.2, 1e-9);
  ego.step(0.1, 2.0);
  EXPECT_NEAR(ego.acceleration(), 2.0, 1e-9);
  EXPECT_GT(ego.speed(), 0.0);
}

TEST(EgoVehicle, NoReverseFromBraking) {
  EgoVehicle ego(0.0, 0.5);
  for (int i = 0; i < 50; ++i) ego.step(0.1, -6.0);
  EXPECT_DOUBLE_EQ(ego.speed(), 0.0);
  EXPECT_DOUBLE_EQ(ego.acceleration(), 0.0);
}

TEST(EgoVehicle, SpeedCap) {
  EgoVehicle ego(0.0, kph_to_mps(49.0));
  for (int i = 0; i < 200; ++i) ego.step(0.1, 2.5);
  EXPECT_LE(ego.speed(), ego.limits().max_speed + 1e-9);
}

TEST(EgoVehicle, CommandClamped) {
  EgoVehicle ego(0.0, 10.0);
  for (int i = 0; i < 30; ++i) ego.step(0.1, -100.0);
  // Deceleration saturates at max_decel.
  EXPECT_GE(ego.acceleration(), -ego.limits().max_decel - 1e-9);
}

TEST(Road, CorridorAndLanePredicates) {
  EXPECT_TRUE(Road::in_ego_lane(0.0));
  EXPECT_TRUE(Road::in_ego_lane(1.8));
  EXPECT_FALSE(Road::in_ego_lane(2.0));
  EXPECT_TRUE(Road::overlaps_ego_corridor(0.0, 1.8, 1.8));
  EXPECT_FALSE(Road::overlaps_ego_corridor(3.0, 1.8, 1.8));
  // Boundary: half widths sum to 1.8 -> 1.79 overlaps, 1.81 does not.
  EXPECT_TRUE(Road::overlaps_ego_corridor(1.79, 1.8, 1.8));
  EXPECT_FALSE(Road::overlaps_ego_corridor(1.81, 1.8, 1.8));
}

TEST(World, GroundTruthRelativeState) {
  EgoVehicle ego(10.0, 5.0);
  std::vector<Actor> actors;
  actors.emplace_back(1, ActorType::kVehicle, math::Vec2{40.0, 0.0},
                      StartTrigger::immediately(),
                      std::vector<Waypoint>{{{1000.0, 0.0}, 7.0}});
  World w(ego, std::move(actors));
  w.step(0.1, 0.0);
  std::vector<GroundTruthObject> gt;
  w.ground_truth_into(gt);
  ASSERT_EQ(gt.size(), 1u);
  EXPECT_NEAR(gt[0].rel_position.x, 30.0 + 0.7 - 0.5, 0.2);
  EXPECT_NEAR(gt[0].abs_velocity.x, 7.0, 1e-6);
  EXPECT_NEAR(gt[0].rel_velocity.x, 7.0 - w.ego().speed(), 1e-6);
  EXPECT_TRUE(w.ground_truth_for(1).has_value());
  EXPECT_FALSE(w.ground_truth_for(99).has_value());
}

TEST(World, LongitudinalGap) {
  GroundTruthObject g;
  g.dims = default_dimensions(ActorType::kVehicle);
  g.rel_position = {20.0, 0.0};
  // gap = 20 - 2.3 - 2.3 = 15.4
  EXPECT_NEAR(g.longitudinal_gap(4.6), 15.4, 1e-9);
  g.rel_position = {4.0, 0.0};
  EXPECT_DOUBLE_EQ(g.longitudinal_gap(4.6), 0.0);  // clamped at contact
}

TEST(World, CollisionDetection) {
  EgoVehicle ego(0.0, 0.0);
  std::vector<Actor> actors;
  actors.emplace_back(1, ActorType::kVehicle, math::Vec2{4.0, 0.0});
  World w(ego, std::move(actors));
  EXPECT_TRUE(w.collision());  // centers 4 m apart, lengths 4.6 each

  std::vector<Actor> far;
  far.emplace_back(1, ActorType::kVehicle, math::Vec2{10.0, 0.0});
  World w2(EgoVehicle(0.0, 0.0), std::move(far));
  EXPECT_FALSE(w2.collision());
}

TEST(World, NearestInPath) {
  EgoVehicle ego(0.0, 10.0);
  std::vector<Actor> actors;
  actors.emplace_back(1, ActorType::kVehicle, math::Vec2{50.0, 0.0});
  actors.emplace_back(2, ActorType::kVehicle, math::Vec2{30.0, 0.0});
  actors.emplace_back(3, ActorType::kVehicle,
                      math::Vec2{20.0, Road::kParkingLaneCenter});
  actors.emplace_back(4, ActorType::kVehicle, math::Vec2{-10.0, 0.0});
  World w(ego, std::move(actors));
  const auto nearest = w.nearest_in_path();
  ASSERT_TRUE(nearest.has_value());
  EXPECT_EQ(nearest->id, 2);  // in-lane and closest ahead
}

class ScenarioBuildTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioBuildTest, ConstructsConsistentWorld) {
  stats::Rng rng(3);
  const Scenario s = make_scenario(GetParam(), rng);
  EXPECT_EQ(s.key, GetParam());
  EXPECT_FALSE(s.actors.empty());
  EXPECT_GT(s.duration, 5.0);
  EXPECT_GT(s.ego_cruise_speed, 0.0);
  // The designated target exists.
  bool found = false;
  for (const auto& a : s.actors) found = found || a.id() == s.target_id;
  EXPECT_TRUE(found);
  World w = s.make_world();
  EXPECT_FALSE(w.collision());
  std::vector<GroundTruthObject> gt;
  w.ground_truth_into(gt);
  EXPECT_EQ(gt.size(), s.actors.size());
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioBuildTest,
                         ::testing::Values("DS-1", "DS-2", "DS-3", "DS-4",
                                           "DS-5", "cut-in",
                                           "staggered-crossing",
                                           "dense-follow"));

TEST(Scenario, Ds5Randomized) {
  stats::Rng r1(1);
  stats::Rng r2(2);
  const Scenario a = make_scenario("DS-5", r1);
  const Scenario b = make_scenario("DS-5", r2);
  // Different seeds produce different NPC layouts.
  bool differs = a.actors.size() != b.actors.size();
  for (std::size_t i = 0; !differs && i < a.actors.size() && i < b.actors.size();
       ++i) {
    differs = a.actors[i].state().position.x != b.actors[i].state().position.x;
  }
  EXPECT_TRUE(differs);
}

TEST(Types, UnitConversions) {
  EXPECT_DOUBLE_EQ(kph_to_mps(45.0), 12.5);
  EXPECT_DOUBLE_EQ(mps_to_kph(12.5), 45.0);
}

}  // namespace
}  // namespace rt::sim
