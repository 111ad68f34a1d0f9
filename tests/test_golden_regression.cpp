// Golden-value regression tests. These pin paper-facing semantics so that
// refactors (parallel scheduler, RNG changes, perception tweaks) cannot
// silently shift Table I / Table II behaviour. If a change breaks one of
// these on purpose, re-measure and update the pinned values in the same PR,
// and say so in CHANGES.md.

#include <gtest/gtest.h>

#include <vector>

#include "core/scenario_matcher.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/campaign.hpp"
#include "experiments/sh_training.hpp"
#include "sim/road.hpp"
#include "stats/hash.hpp"

namespace rt {
namespace {

using core::AttackVector;
using core::LateralTrajectory;
using core::ScenarioMatcher;

perception::WorldTrack target_at(double x, double y, double vy) {
  perception::WorldTrack t;
  t.track_id = 1;
  t.cls = sim::ActorType::kVehicle;
  t.rel_position = {x, y};
  t.rel_velocity = {0.0, vy};
  t.hits = 10;
  return t;
}

// ------------------------------------------------ Table I (pinned cells)

struct TableICell {
  const char* name;
  double y;   // lateral offset (ego-lane half width is 1.85)
  double vy;  // lateral velocity (Keep threshold is 0.25)
  std::vector<AttackVector> expected;
};

TEST(GoldenTableI, AdmissibleVectorsPerCell) {
  // One canonical target per cell of Table I, at mid attack range.
  const std::vector<TableICell> cells{
      // In EV lane, holding position -> Move_Out / Disappear.
      {"in-lane keep", 0.0, 0.0, {AttackVector::kMoveOut,
                                  AttackVector::kDisappear}},
      // In EV lane, moving toward a boundary -> Move_In (row 3, col 1).
      {"in-lane moving-out", 1.0, 1.0, {AttackVector::kMoveIn}},
      // Outside the lane, approaching -> Move_Out / Disappear (row 1).
      {"out-lane moving-in", 3.7, -1.0, {AttackVector::kMoveOut,
                                         AttackVector::kDisappear}},
      // Outside the lane, holding -> Move_In (row 2, col 2).
      {"out-lane keep", -3.0, 0.0, {AttackVector::kMoveIn}},
      // Outside the lane, receding -> no admissible vector (row 3, col 2).
      {"out-lane moving-out", 3.7, 1.0, {}},
  };
  ScenarioMatcher sm;
  for (const auto& cell : cells) {
    EXPECT_EQ(sm.admissible(target_at(30.0, cell.y, cell.vy)), cell.expected)
        << cell.name;
  }
}

TEST(GoldenTableI, RangeGateUnchanged) {
  ScenarioMatcher sm;
  EXPECT_TRUE(sm.admissible(target_at(2.9, 0.0, 0.0)).empty());   // too close
  EXPECT_FALSE(sm.admissible(target_at(3.1, 0.0, 0.0)).empty());
  EXPECT_FALSE(sm.admissible(target_at(99.0, 0.0, 0.0)).empty());
  EXPECT_TRUE(sm.admissible(target_at(101.0, 0.0, 0.0)).empty());  // too far
}

TEST(GoldenTableI, ClassifyBoundaries) {
  ScenarioMatcher sm;
  EXPECT_EQ(sm.classify(target_at(30.0, 0.0, 0.2)), LateralTrajectory::kKeep);
  EXPECT_EQ(sm.classify(target_at(30.0, 1.0, 0.3)),
            LateralTrajectory::kMovingOut);
  EXPECT_EQ(sm.classify(target_at(30.0, 3.7, -0.3)),
            LateralTrajectory::kMovingIn);
  EXPECT_EQ(sm.classify(target_at(30.0, -3.0, -0.3)),
            LateralTrajectory::kMovingOut);
}

// --------------------------------- Table II mini-campaign (pinned values)

// <DS-1, Disappear, R> with 8 runs and seed 20200613, driven by a small
// deterministically-trained Disappear oracle (reduced sweep + few epochs —
// launch quality doesn't matter here, only that the full R pipeline runs).
// The pinned aggregates were measured at commit time with the counter-based
// Rng::from_stream derivation; they are exact, not statistical — any drift
// means run semantics changed.
TEST(GoldenTableII, Ds1DisappearMiniCampaign) {
  experiments::LoopConfig loop;

  experiments::ShTrainingConfig sh;
  sh.delta_triggers = {12.0, 20.0};
  sh.ks = {10, 30};
  sh.repeats = 1;
  sh.seed = 99;
  sh.train.epochs = 10;
  sh.train.patience = 0;
  experiments::OracleSet oracles;
  oracles[AttackVector::kDisappear] = experiments::train_oracle(
      AttackVector::kDisappear, loop, sh);

  experiments::CampaignRunner runner(loop, oracles);
  experiments::CampaignSpec spec{"DS-1-Disappear-R",
                                 "DS-1",
                                 AttackVector::kDisappear,
                                 experiments::AttackMode::kRobotack,
                                 8,
                                 20200613};
  const auto result =
      experiments::CampaignScheduler(runner, 0).run_all({spec}).front();

  // Row shape (Table II columns: ID, K, #runs, EB, crash).
  ASSERT_EQ(result.n(), 8);
  EXPECT_EQ(result.spec.name, "DS-1-Disappear-R");

  // Pinned aggregates (see header comment before updating). Every run
  // triggers but none reaches emergency braking — the full-scale rates
  // live in bench/table2_attack_summary, not here.
  //
  // median_k re-pinned for the PR 8 counter-based noise migration: the
  // mini oracle trains on different noise draws and now launches at
  // mid-range k instead of the minimal k. Old pin (std::normal_distribution
  // noise; that path and RT_LEGACY_NOISE are now removed): median_k == 3.0.
  EXPECT_EQ(result.triggered_count(), 8);
  EXPECT_EQ(result.eb_count(), 0);
  EXPECT_EQ(result.crash_count(), 0);
  EXPECT_EQ(result.ids_flagged_count(), 0);
  EXPECT_NEAR(result.median_k(), 15.5, 1e-9);

  // Every triggered run reports a usable min-delta sample (Fig. 6 input).
  EXPECT_EQ(result.min_deltas().size(), 8u);
  // Disappear runs are excluded from K' (Fig. 7) by construction.
  EXPECT_TRUE(result.k_primes().empty());
}

// --------------------------- multi-burst closed loop (pinned run digest)

// DS-1 with a scripted Move_Out attacker allowed two bursts: the second
// burst resolves its victim against an ADS-view replica that has consumed
// the first burst's perturbed frames. No campaign golden sets
// max_triggers > 1, so this digest of the serialized RunResult is what
// pins that replica path.
TEST(GoldenClosedLoop, Ds1TwoBurstMoveOutRunDigest) {
  experiments::LoopConfig loop;
  stats::Rng rng(7);
  sim::Scenario sc = sim::make_scenario("DS-1", rng);
  experiments::ClosedLoop cl(sc, loop, 1001);
  auto cfg = experiments::make_attacker_config(
      loop, AttackVector::kMoveOut, core::TimingPolicy::kAtDeltaThreshold);
  cfg.delta_trigger = 30.0;
  cfg.fixed_k = 15;
  cfg.max_triggers = 2;
  cl.set_attacker(std::make_unique<core::Robotack>(
      cfg, loop.camera, loop.noise, loop.mot, 2002));
  const experiments::RunResult r = cl.run();
  ASSERT_EQ(r.attack.triggers, 2);
  EXPECT_EQ(stats::fnv1a_str(stats::kFnv1aOffset,
                             experiments::serialize_run_result(r)),
            0x37ba887a0910ad4bULL);
}

}  // namespace
}  // namespace rt
