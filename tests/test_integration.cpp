#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <string>

#include "experiments/campaign.hpp"
#include "experiments/characterization.hpp"
#include "experiments/reporting.hpp"
#include "experiments/sh_training.hpp"

namespace rt::experiments {
namespace {

/// Golden runs of every scenario must be accident-free.
class GoldenRunTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenRunTest, NoAccident) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    LoopConfig loop;
    stats::Rng rng(seed);
    sim::Scenario sc = sim::make_scenario(GetParam(), rng);
    ClosedLoop cl(sc, loop, seed * 97);
    const RunResult r = cl.run();
    EXPECT_FALSE(r.crash) << GetParam() << " seed " << seed;
    EXPECT_FALSE(r.collision);
    EXPECT_GT(r.min_delta, 4.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, GoldenRunTest,
                         ::testing::Values("DS-1", "DS-2", "DS-3", "DS-4",
                                           "DS-5", "cut-in",
                                           "staggered-crossing",
                                           "dense-follow"));

TEST(AttackedRun, ScriptedDisappearOnDs2CausesAccidents) {
  // Even with dumb scripted timing (no NN), hiding the crossing pedestrian
  // near the stopping decision point produces accidents in a large
  // fraction of runs.
  int crashes = 0;
  int triggered = 0;
  for (int i = 0; i < 6; ++i) {
    LoopConfig loop;
    stats::Rng rng(7);
    sim::Scenario sc = sim::make_scenario("DS-2", rng);
    ClosedLoop cl(sc, loop, 1001 + i);
    auto cfg = make_attacker_config(loop, core::AttackVector::kDisappear,
                                    core::TimingPolicy::kAtDeltaThreshold);
    cfg.delta_trigger = 12.0;
    cfg.fixed_k = 31;
    cl.set_attacker(std::make_unique<core::Robotack>(
        cfg, loop.camera, loop.noise, loop.mot, 2002 + i));
    const RunResult r = cl.run();
    triggered += static_cast<int>(r.attack.triggered);
    crashes += static_cast<int>(r.crash);
  }
  // Re-pinned for the PR 8 counter-based noise migration: one of the six
  // seeds no longer dips below the 12 m trigger before the pedestrian
  // clears (old std::normal_distribution pin, from the now-removed
  // legacy path: triggered == 6).
  EXPECT_EQ(triggered, 5);
  EXPECT_GE(crashes, 1);
}

TEST(AttackedRun, ScriptedMoveOutOnDs1ForcesHardOutcome) {
  LoopConfig loop;
  stats::Rng rng(7);
  sim::Scenario sc = sim::make_scenario("DS-1", rng);
  ClosedLoop cl(sc, loop, 1001);
  auto cfg = make_attacker_config(loop, core::AttackVector::kMoveOut,
                                  core::TimingPolicy::kAtDeltaThreshold);
  cfg.delta_trigger = 14.0;
  cfg.fixed_k = 65;
  cl.set_attacker(std::make_unique<core::Robotack>(
      cfg, loop.camera, loop.noise, loop.mot, 2002));
  const RunResult r = cl.run();
  EXPECT_TRUE(r.attack.triggered);
  EXPECT_TRUE(r.eb || r.crash);
  EXPECT_GT(r.attack.k_prime, 0);  // Move_Out has a shift phase
}

TEST(Campaign, Aggregation) {
  CampaignResult result;
  result.runs.resize(4);
  result.runs[0].eb = true;
  result.runs[0].crash = true;
  result.runs[0].attack.triggered = true;
  result.runs[0].attack.planned_k = 10;
  result.runs[0].attack.k_prime = 4;
  result.runs[0].attack.vector = core::AttackVector::kMoveOut;
  result.runs[0].min_delta_since_attack = 2.0;
  result.runs[1].eb = true;
  result.runs[1].attack.triggered = true;
  result.runs[1].attack.planned_k = 20;
  result.runs[1].attack.vector = core::AttackVector::kDisappear;
  result.runs[1].min_delta_since_attack = 9.0;
  EXPECT_EQ(result.eb_count(), 2);
  EXPECT_EQ(result.crash_count(), 1);
  EXPECT_EQ(result.triggered_count(), 2);
  EXPECT_DOUBLE_EQ(result.eb_rate(), 0.5);
  EXPECT_DOUBLE_EQ(result.median_k(), 15.0);
  EXPECT_EQ(result.k_primes().size(), 1u);  // Disappear excluded
  EXPECT_EQ(result.min_deltas().size(), 2u);
}

TEST(Campaign, SpecsCoverTable2) {
  const auto specs = table2_campaigns(10, 1);
  ASSERT_EQ(specs.size(), 7u);
  EXPECT_EQ(specs.back().mode, AttackMode::kRandomBaseline);
  EXPECT_EQ(no_sh_campaigns(10, 1).size(), 6u);
}

TEST(Campaign, GoldenModeRunsWithoutAttacker) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignSpec spec{"golden", "DS-3",
                    core::AttackVector::kMoveIn, AttackMode::kGolden, 3, 42};
  const auto result = runner.run(spec);
  EXPECT_EQ(result.n(), 3);
  EXPECT_EQ(result.triggered_count(), 0);
  EXPECT_EQ(result.crash_count(), 0);
}

TEST(Campaign, DeterministicAcrossInvocations) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignSpec spec{"nosh", "DS-2",
                    core::AttackVector::kDisappear, AttackMode::kNoSh, 3, 5};
  const auto a = runner.run(spec);
  const auto b = runner.run(spec);
  ASSERT_EQ(a.n(), b.n());
  for (int i = 0; i < a.n(); ++i) {
    EXPECT_EQ(a.runs[static_cast<std::size_t>(i)].eb,
              b.runs[static_cast<std::size_t>(i)].eb);
    EXPECT_DOUBLE_EQ(a.runs[static_cast<std::size_t>(i)].min_delta,
                     b.runs[static_cast<std::size_t>(i)].min_delta);
  }
}

TEST(ShTraining, DatasetNonEmptyAndLabeled) {
  LoopConfig loop;
  ShTrainingConfig cfg;
  cfg.delta_triggers = {16.0, 24.0};
  cfg.ks = {10, 30};
  cfg.repeats = 1;
  const nn::Dataset ds =
      generate_sh_dataset(core::AttackVector::kDisappear, loop, cfg);
  ASSERT_GT(ds.size(), 4u);
  // Longer attacks produce smaller post-attack safety potential on average.
  double sum_short = 0.0;
  double sum_long = 0.0;
  int n_short = 0;
  int n_long = 0;
  for (std::size_t j = 0; j < ds.size(); ++j) {
    if (ds.x(5, j) < 20.0) {
      sum_short += ds.y(0, j);
      ++n_short;
    } else {
      sum_long += ds.y(0, j);
      ++n_long;
    }
  }
  ASSERT_GT(n_short, 0);
  ASSERT_GT(n_long, 0);
  EXPECT_GT(sum_short / n_short, sum_long / n_long);
}

TEST(Characterization, FitsRecoverGeneratorStatistics) {
  CharacterizationConfig cfg;
  cfg.duration_s = 120.0;  // shortened for test runtime
  const auto result = characterize_detector(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults());
  // Both classes produced samples.
  EXPECT_GT(result.vehicle.deltas_x.size(), 1000u);
  EXPECT_GT(result.pedestrian.deltas_x.size(), 1000u);
  EXPECT_GT(result.vehicle.streaks.size(), 5u);
  // The pedestrian x-error population is much wider than the vehicle's
  // (paper: 2.01 vs 0.464).
  EXPECT_GT(result.pedestrian.fit_x.sigma, result.vehicle.fit_x.sigma);
  // Misdetection rates are moderate.
  EXPECT_GT(result.vehicle.misdetection_rate(), 0.01);
  EXPECT_LT(result.vehicle.misdetection_rate(), 0.45);
}

// Each actor's lane follows its own id, whatever order a compiler evaluates
// constructor arguments in (the Fig. 5 CSV depends on these positions).
TEST(Characterization, ActorLanesArePinned) {
  const auto actors = characterization_actors();
  const double expected_y[] = {3.7, 0.0, 3.7, 0.0, 3.7,
                               -5.0, -3.0, -5.0, -3.0, -5.0};
  ASSERT_EQ(actors.size(), 10u);
  for (std::size_t i = 0; i < actors.size(); ++i) {
    EXPECT_EQ(actors[i].id(), static_cast<sim::ActorId>(i + 1));
    EXPECT_EQ(actors[i].type(), i < 5 ? sim::ActorType::kVehicle
                                      : sim::ActorType::kPedestrian);
    EXPECT_EQ(actors[i].state().position.y, expected_y[i]) << "actor " << i + 1;
  }
}

TEST(Reporting, TableAndFormat) {
  const std::string table =
      format_table({"a", "bb"}, {{"1", "2"}, {"333", "4"}});
  EXPECT_NE(table.find("333"), std::string::npos);
  EXPECT_NE(table.find("| a "), std::string::npos);
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_pct(0.526), "52.6%");
}

TEST(Reporting, CsvEscapeRfc4180) {
  // Clean cells pass through untouched.
  EXPECT_EQ(csv_escape("DS-1-Disappear-R"), "DS-1-Disappear-R");
  EXPECT_EQ(csv_escape(""), "");
  // Commas, quotes and newlines force quoting; inner quotes double.
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line1\nline2"), "\"line1\nline2\"");
  EXPECT_EQ(csv_escape("cr\rcell"), "\"cr\rcell\"");
  EXPECT_EQ(csv_escape("both,\"x\""), "\"both,\"\"x\"\"\"");
}

TEST(Reporting, ParseUintIsStrict) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const auto runs = [](const std::string& s) {
    return parse_uint(s, 1, std::numeric_limits<int>::max());
  };
  const auto threads = [](const std::string& s) {
    return parse_uint(s, 0, 4096);
  };
  EXPECT_EQ(runs("12"), 12u);
  EXPECT_EQ(threads("007"), 7u);
  // Empty, signed, padded and junk-suffixed text is rejected, never read
  // as 0 or wrapped (strtoull takes "-1" as 2^64 - 1).
  for (const char* bad : {"", "-1", "+1", "-0", " 1", "1 ", "\t1", "12x",
                          "0x10", "1.5", "1e3"}) {
    EXPECT_FALSE(parse_uint(bad, 0, kMax).has_value()) << "'" << bad << "'";
  }
  // Overflow: 2^64 - 1 parses, one more digit's worth does not.
  EXPECT_EQ(parse_uint("18446744073709551615", 0, kMax), kMax);
  EXPECT_FALSE(parse_uint("18446744073709551616", 0, kMax).has_value());
  EXPECT_FALSE(parse_uint("99999999999999999999999", 0, kMax).has_value());
  // Both bounds are inclusive.
  EXPECT_FALSE(runs("0").has_value());
  EXPECT_EQ(runs("1"), 1u);
  EXPECT_EQ(runs("2147483647"), 2147483647u);
  EXPECT_FALSE(runs("2147483648").has_value());
  EXPECT_EQ(threads("0"), 0u);
  EXPECT_EQ(threads("4096"), 4096u);
  EXPECT_FALSE(threads("4097").has_value());
  EXPECT_FALSE(threads("4294967295").has_value());
}

TEST(Reporting, WriteCsvQuotesDirtyCells) {
  const std::string path =
      ::testing::TempDir() + "/robotack_write_csv_test.csv";
  write_csv(path, {"id", "note"},
            {{"r1", "contains, comma"}, {"r2", "quote \" inside"}});
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "id,note");
  std::getline(is, line);
  EXPECT_EQ(line, "r1,\"contains, comma\"");
  std::getline(is, line);
  EXPECT_EQ(line, "r2,\"quote \"\" inside\"");
}

TEST(Ids, RandomLongDisappearTripsAbsenceTest) {
  // A random-length Disappear on a LiDAR-visible vehicle beyond the streak
  // p99 must be flagged; RoboTack's K_max-bounded one on DS-1 stays under
  // far more often. Here: scripted 80-frame blackout on DS-1.
  LoopConfig loop;
  loop.enable_ids = true;
  stats::Rng rng(7);
  sim::Scenario sc = sim::make_scenario("DS-1", rng);
  ClosedLoop cl(sc, loop, 31);
  auto cfg = make_attacker_config(loop, core::AttackVector::kDisappear,
                                  core::TimingPolicy::kAtDeltaThreshold);
  cfg.delta_trigger = 16.0;
  cfg.fixed_k = 80;  // beyond the vehicle p99 of 59.4
  cl.set_attacker(std::make_unique<core::Robotack>(
      cfg, loop.camera, loop.noise, loop.mot, 77));
  const RunResult r = cl.run();
  EXPECT_TRUE(r.attack.triggered);
  EXPECT_TRUE(r.ids_flagged);
}

}  // namespace
}  // namespace rt::experiments
