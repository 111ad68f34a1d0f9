// Cross-module property and invariant tests: sweeps over parameter grids
// that pin down behaviours the individual unit tests only spot-check.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ads/planner.hpp"
#include "experiments/reporting.hpp"
#include "core/scenario_matcher.hpp"
#include "core/trajectory_hijacker.hpp"
#include "perception/camera_model.hpp"
#include "perception/detector_model.hpp"
#include "perception/fusion.hpp"
#include "sim/ego_vehicle.hpp"
#include "stats/fit.hpp"
#include "stats/summary.hpp"

namespace rt {
namespace {

// ---------------------------------------------------------------- ego plant

/// Property: from any initial speed, full braking stops the EV within the
/// analytic stopping distance plus the jerk-ramp allowance, and never
/// produces reverse motion.
class EgoStoppingTest : public ::testing::TestWithParam<double> {};

TEST_P(EgoStoppingTest, StopsWithinEnvelope) {
  const double v0 = GetParam();
  sim::EgoVehicle ego(0.0, v0);
  const double dt = 1.0 / 15.0;
  int steps = 0;
  while (ego.speed() > 0.0 && steps < 3000) {
    ego.step(dt, -ego.limits().max_decel);
    ++steps;
  }
  EXPECT_EQ(ego.speed(), 0.0);
  const double analytic = v0 * v0 / (2.0 * ego.limits().max_decel);
  // Jerk ramp: reaching full decel takes max_decel/max_jerk seconds.
  const double ramp = ego.limits().max_decel / ego.limits().max_jerk;
  const double allowance = v0 * (ramp + dt) + 1.0;
  EXPECT_LE(ego.x(), analytic + allowance);
  EXPECT_GE(ego.x(), analytic * 0.8);
}

INSTANTIATE_TEST_SUITE_P(Speeds, EgoStoppingTest,
                         ::testing::Values(3.0, 6.94, 10.0, 12.5));

// ------------------------------------------------------------ camera model

/// Property: image-x position is monotone in world lateral offset, and
/// bbox width is monotone (decreasing) in range.
TEST(CameraProperty, MonotoneGeometry) {
  perception::CameraModel cam;
  double prev_u = 1e18;
  for (double y = -6.0; y <= 6.0; y += 1.0) {
    sim::GroundTruthObject g;
    g.type = sim::ActorType::kVehicle;
    g.dims = sim::default_dimensions(g.type);
    g.rel_position = {40.0, y};
    const auto box = cam.project(g);
    ASSERT_TRUE(box.has_value());
    EXPECT_LT(box->cx, prev_u);  // left in world = smaller u, strictly
    prev_u = box->cx;
  }
  double prev_w = 1e18;
  for (double x = 10.0; x <= 120.0; x += 10.0) {
    sim::GroundTruthObject g;
    g.type = sim::ActorType::kVehicle;
    g.dims = sim::default_dimensions(g.type);
    g.rel_position = {x, 0.0};
    const auto box = cam.project(g);
    ASSERT_TRUE(box.has_value());
    EXPECT_LT(box->w, prev_w);
    prev_w = box->w;
  }
}

/// Property: back_project(project(x)) is the identity over a dense grid.
TEST(CameraProperty, RoundTripGrid) {
  perception::CameraModel cam;
  for (double x = 5.0; x <= 140.0; x += 7.5) {
    for (double y = -7.0; y <= 7.0; y += 1.75) {
      sim::GroundTruthObject g;
      g.type = sim::ActorType::kPedestrian;
      g.dims = sim::default_dimensions(g.type);
      g.rel_position = {x, y};
      const auto box = cam.project(g);
      if (!box) continue;  // outside frustum
      const auto pos = cam.back_project(*box);
      ASSERT_TRUE(pos.has_value());
      EXPECT_NEAR(pos->x, x, 1e-6);
      EXPECT_NEAR(pos->y, y, 1e-6);
    }
  }
}

// -------------------------------------------------------------- noise model

/// Property: the mixture's outlier sigma formula preserves the population
/// variance for every class/axis combination.
TEST(NoiseModelProperty, MixtureVariancePreserved) {
  const auto model = perception::DetectorNoiseModel::paper_defaults();
  for (const auto cls :
       {sim::ActorType::kVehicle, sim::ActorType::kPedestrian}) {
    const auto& m = model.for_class(cls);
    const double so = m.outlier_sigma(m.center_x.sigma, m.core_sigma_x);
    const double mix_var = (1.0 - m.outlier_prob) * m.core_sigma_x *
                               m.core_sigma_x +
                           m.outlier_prob * so * so;
    EXPECT_NEAR(mix_var, m.center_x.sigma * m.center_x.sigma, 1e-9);
  }
}

/// Property: the paper's class asymmetries are encoded: pedestrians have a
/// wider lateral noise band but a shorter streak tail than vehicles.
TEST(NoiseModelProperty, ClassAsymmetries) {
  const auto m = perception::DetectorNoiseModel::paper_defaults();
  EXPECT_GT(m.pedestrian.center_x.sigma, m.vehicle.center_x.sigma);
  EXPECT_LT(m.pedestrian.streak_p99, m.vehicle.streak_p99);
  EXPECT_GT(m.pedestrian.streak.lambda, m.vehicle.streak.lambda);
}

// ----------------------------------------------------------------- matcher

/// Property: Move_Out and Disappear are interchangeable in Table I — any
/// state admitting one admits the other (§IV-A).
TEST(ScenarioMatcherProperty, MoveOutDisappearInterchangeable) {
  core::ScenarioMatcher sm;
  for (double y = -6.0; y <= 6.0; y += 0.5) {
    for (double vy = -2.0; vy <= 2.0; vy += 0.25) {
      perception::WorldTrack t;
      t.cls = sim::ActorType::kVehicle;
      t.rel_position = {30.0, y};
      t.rel_velocity = {0.0, vy};
      EXPECT_EQ(sm.matches(t, core::AttackVector::kMoveOut),
                sm.matches(t, core::AttackVector::kDisappear))
          << "y=" << y << " vy=" << vy;
    }
  }
}

/// Property: exactly one Table-I row applies — Move_In is never admissible
/// together with Move_Out.
TEST(ScenarioMatcherProperty, MoveInExclusive) {
  core::ScenarioMatcher sm;
  for (double y = -6.0; y <= 6.0; y += 0.5) {
    for (double vy = -2.0; vy <= 2.0; vy += 0.25) {
      perception::WorldTrack t;
      t.cls = sim::ActorType::kPedestrian;
      t.rel_position = {25.0, y};
      t.rel_velocity = {0.0, vy};
      EXPECT_FALSE(sm.matches(t, core::AttackVector::kMoveIn) &&
                   sm.matches(t, core::AttackVector::kMoveOut))
          << "y=" << y << " vy=" << vy;
    }
  }
}

// ------------------------------------------------------ trajectory hijacker

/// Property sweep over ranges and directions: the hold phase always
/// presents the full +-Omega offset with the correct sign, and K' shrinks
/// as the noise band widens.
class HijackerRangeTest : public ::testing::TestWithParam<double> {};

TEST_P(HijackerRangeTest, HoldOffsetSignAndMagnitude) {
  const double range = GetParam();
  const perception::CameraModel cam;
  const auto noise = perception::DetectorNoiseModel::paper_defaults();
  for (const double dir : {+1.0, -1.0}) {
    core::TrajectoryHijacker th(core::TrajectoryHijacker::Config{}, cam,
                                noise);
    th.begin(core::AttackVector::kMoveOut, dir, 2.4);
    sim::GroundTruthObject g;
    g.type = sim::ActorType::kVehicle;
    g.dims = sim::default_dimensions(g.type);
    g.rel_position = {range, 0.0};
    const auto truth = cam.project(g);
    ASSERT_TRUE(truth.has_value());
    math::Bbox pred = *truth;
    for (int f = 0; f < 80 && !th.in_hold_phase(); ++f) {
      perception::CameraFrame frame;
      perception::Detection d;
      d.bbox = *truth;
      d.cls = g.type;
      frame.detections.push_back(d);
      th.apply(frame, 0, pred, range);
      pred = frame.detections[0].bbox;
    }
    ASSERT_TRUE(th.in_hold_phase()) << "range " << range << " dir " << dir;
    EXPECT_NEAR(th.accumulated_offset_m(), dir * 2.4, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, HijackerRangeTest,
                         ::testing::Values(15.0, 25.0, 45.0, 70.0));

TEST(HijackerProperty, WiderBandShiftsFaster) {
  const perception::CameraModel cam;
  const auto noise = perception::DetectorNoiseModel::paper_defaults();
  auto k_prime_for = [&](double sigma_mult) {
    core::TrajectoryHijacker::Config cfg;
    cfg.sigma_mult = sigma_mult;
    core::TrajectoryHijacker th(cfg, cam, noise);
    th.begin(core::AttackVector::kMoveOut, 1.0, 2.4);
    sim::GroundTruthObject g;
    g.type = sim::ActorType::kVehicle;
    g.dims = sim::default_dimensions(g.type);
    g.rel_position = {30.0, 0.0};
    const auto truth = cam.project(g);
    math::Bbox pred = *truth;
    for (int f = 0; f < 120 && !th.in_hold_phase(); ++f) {
      perception::CameraFrame frame;
      perception::Detection d;
      d.bbox = *truth;
      d.cls = g.type;
      frame.detections.push_back(d);
      th.apply(frame, 0, pred, 30.0);
      pred = frame.detections[0].bbox;
    }
    return th.k_prime();
  };
  EXPECT_LE(k_prime_for(1.0), k_prime_for(0.5));
}

// ------------------------------------------------------------------ planner

/// Property: the planner's output command is always inside the actuation
/// envelope, across a grid of lead states.
TEST(PlannerProperty, CommandAlwaysBounded) {
  ads::LongitudinalPlanner planner;
  for (double gap = 5.0; gap <= 80.0; gap += 7.5) {
    for (double rel_v = -14.0; rel_v <= 4.0; rel_v += 2.0) {
      perception::FusedObject o;
      o.id = 1;
      o.cls = sim::ActorType::kVehicle;
      o.rel_position = {gap, 0.0};
      o.rel_velocity = {rel_v, 0.0};
      o.camera_hits = 20;
      o.lidar_corroborated = true;
      ads::WorldModel w;
      w.ego_speed = 12.5;
      w.objects = {o};
      const auto out = planner.plan(w, 1.8, 4.6);
      EXPECT_LE(out.accel_command, planner.config().max_accel + 1e-9);
      EXPECT_GE(out.accel_command, -planner.config().eb_command_decel - 1e-9);
      EXPECT_GE(out.required_decel, 0.0);
    }
  }
}

/// Property: closer + faster-closing leads never demand *less* deceleration.
TEST(PlannerProperty, RequiredDecelMonotoneInGap) {
  for (double v = 6.0; v <= 12.5; v += 2.0) {
    double prev_req = 1e18;
    for (double gap = 8.0; gap <= 60.0; gap += 4.0) {
      ads::LongitudinalPlanner planner;  // fresh: avoid hysteresis carryover
      perception::FusedObject o;
      o.id = 1;
      o.cls = sim::ActorType::kVehicle;
      o.rel_position = {gap + 4.6, 0.0};
      o.rel_velocity = {-v, 0.0};  // stationary obstacle
      o.camera_hits = 20;
      o.lidar_corroborated = true;
      ads::WorldModel w;
      w.ego_speed = v;
      w.objects = {o};
      const auto out = planner.plan(w, 1.8, 4.6);
      EXPECT_LE(out.required_decel, prev_req + 1e-9)
          << "v=" << v << " gap=" << gap;
      prev_req = out.required_decel;
    }
  }
}

// ------------------------------------------------------------------ fusion

/// Property: publication is latched — once an object is published, frames
/// where its camera track persists keep it published even if its hit count
/// classification would no longer qualify.
TEST(FusionProperty, PublicationLatch) {
  perception::Fusion fusion(perception::FusionConfig{},
                            perception::LidarConfig{}, 1.0 / 15.0);
  perception::WorldTrack cam;
  cam.track_id = 1;
  cam.cls = sim::ActorType::kVehicle;
  cam.rel_position = {30.0, 0.0};
  cam.hits = 2;
  perception::LidarTrack lid;
  lid.track_id = 1;
  lid.rel_position = {30.0, 0.0};
  lid.hits = 5;
  std::vector<perception::FusedObject> out;
  // Paired: published immediately.
  fusion.fuse_into({cam}, {lid}, out);
  EXPECT_EQ(out.size(), 1u);
  // LiDAR lost (e.g. hijacked camera track drifted): still published.
  cam.rel_position.y = 2.5;
  fusion.fuse_into({cam}, {}, out);
  EXPECT_EQ(out.size(), 1u);
}

// -------------------------------------------------------------------- fits

/// Property: Normal quantile/fit round-trip across parameter grid.
class NormalFitRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(NormalFitRoundTrip, QuantileMatchesSampling) {
  const auto [mu, sigma] = GetParam();
  stats::Rng rng(2024);
  std::vector<double> xs;
  for (int i = 0; i < 40000; ++i) xs.push_back(rng.normal(mu, sigma));
  const auto fit = stats::fit_normal(xs);
  EXPECT_NEAR(fit.mu, mu, 0.03 * std::max(1.0, std::abs(mu)) + 0.02);
  EXPECT_NEAR(fit.sigma, sigma, 0.03 * sigma + 0.01);
  const double p99_emp = stats::percentile(xs, 99.0);
  EXPECT_NEAR(fit.p99(), p99_emp, 0.12 * sigma + 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NormalFitRoundTrip,
    ::testing::Values(std::tuple{0.0, 1.0}, std::tuple{0.023, 0.464},
                      std::tuple{0.254, 2.010}, std::tuple{-1.5, 0.2}));

// ------------------------------------------------------------- csv round trip

/// Strict RFC-4180 parser used only by the round-trip property below: records
/// separated by '\n', cells by ',', quoted cells may embed separators and
/// doubled quotes. Returns rows of unescaped cells.
std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"' && cell.empty()) {
      quoted = true;
    } else if (c == ',') {
      row.push_back(std::move(cell));
      cell.clear();
    } else if (c == '\n') {
      row.push_back(std::move(cell));
      cell.clear();
      rows.push_back(std::move(row));
      row.clear();
    } else {
      cell += c;
    }
  }
  if (!cell.empty() || !row.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Property: any cell content — commas, quotes, embedded newlines, CR,
/// non-ASCII bytes — survives write_csv unchanged once parsed back per
/// RFC 4180. Randomized over a dirty alphabet; failures print the seed.
TEST(CsvProperty, RandomizedCellsRoundTripThroughWriteCsv) {
  const std::string alphabet = "abzAZ09 ,\"\n\r;|\t'éπ–";
  stats::Rng rng(4180);
  const std::string path =
      ::testing::TempDir() + "/robotack_csv_roundtrip.csv";
  for (int trial = 0; trial < 40; ++trial) {
    const int n_rows = static_cast<int>(rng.uniform_int(1, 5));
    const int n_cols = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<std::string> header;
    for (int c = 0; c < n_cols; ++c) header.push_back("h" + std::to_string(c));
    std::vector<std::vector<std::string>> rows(n_rows);
    for (auto& row : rows) {
      for (int c = 0; c < n_cols; ++c) {
        std::string cell;
        const int len = static_cast<int>(rng.uniform_int(0, 12));
        for (int k = 0; k < len; ++k) {
          cell += alphabet[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
        }
        // A lone trailing CR is indistinguishable from a CRLF line ending
        // on read-back; RFC 4180 writers quote it, and the newline split
        // below is '\n'-exact, so keep the cell but make the case explicit.
        row.push_back(std::move(cell));
      }
    }
    experiments::write_csv(path, header, rows);
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::stringstream buffer;
    buffer << is.rdbuf();
    const auto parsed = parse_csv(buffer.str());
    ASSERT_EQ(parsed.size(), rows.size() + 1) << "trial " << trial;
    EXPECT_EQ(parsed[0], header) << "trial " << trial;
    for (int r = 0; r < n_rows; ++r) {
      EXPECT_EQ(parsed[static_cast<std::size_t>(r) + 1],
                rows[static_cast<std::size_t>(r)])
          << "trial " << trial << " row " << r;
    }
  }
}

}  // namespace
}  // namespace rt
