// Tests of the rt::defense runtime-attack-monitor subsystem: registry
// validation, per-monitor unit behaviour on synthetic perception streams,
// the passivity contract (monitors never change driving outcomes), and
// pinned detection-rate / frames-to-detection / false-positive goldens on
// the attack-vs-defense grid at fixed seeds.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "defense/innovation_gate_monitor.hpp"
#include "defense/kinematics_monitor.hpp"
#include "defense/monitor_registry.hpp"
#include "defense/monitor_stack.hpp"
#include "defense/sensor_consistency_monitor.hpp"
#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/defense_grid.hpp"

namespace rt {
namespace {

using defense::AttackMonitor;
using defense::MonitorContext;
using defense::MonitorRegistry;
using defense::MonitorSpec;
using defense::MonitorStack;

// ------------------------------------------------------------- registry

TEST(MonitorRegistry, BuiltinsRegisteredInStableOrder) {
  auto& registry = MonitorRegistry::global();
  ASSERT_GE(registry.size(), 3u);
  const auto keys = registry.keys();
  EXPECT_EQ(keys[0], "innovation-gate");
  EXPECT_EQ(keys[1], "sensor-consistency");
  EXPECT_EQ(keys[2], "kinematics");
  EXPECT_EQ(registry.index_of("innovation-gate"), 0u);
  EXPECT_EQ(registry.index_of("kinematics"), 2u);
  EXPECT_TRUE(registry.contains("sensor-consistency"));
  EXPECT_FALSE(registry.contains("no-such-monitor"));
  for (const auto& key : keys) {
    EXPECT_FALSE(registry.get(key).description.empty()) << key;
    auto monitor = registry.make(key, MonitorContext{});
    ASSERT_NE(monitor, nullptr);
    EXPECT_EQ(monitor->key(), key);
    EXPECT_FALSE(monitor->report().fired);
  }
}

TEST(MonitorRegistry, UnknownKeyListsKnownKeys) {
  auto& registry = MonitorRegistry::global();
  try {
    (void)registry.get("definitely-unknown");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("definitely-unknown"), std::string::npos);
    EXPECT_NE(message.find("innovation-gate"), std::string::npos);
    EXPECT_NE(message.find("sensor-consistency"), std::string::npos);
    EXPECT_NE(message.find("kinematics"), std::string::npos);
  }
}

TEST(MonitorRegistry, RejectsBadRegistrations) {
  MonitorRegistry registry;
  const MonitorSpec::Factory factory =
      [](const MonitorContext& ctx) -> std::unique_ptr<AttackMonitor> {
    return std::make_unique<defense::KinematicsMonitor>(
        ctx.tuning.kinematics, ctx.dt);
  };
  EXPECT_THROW(registry.register_monitor({"", "empty key", factory}),
               std::invalid_argument);
  EXPECT_THROW(registry.register_monitor({"no-factory", "missing", nullptr}),
               std::invalid_argument);
  registry.register_monitor({"ok", "fine", factory});
  EXPECT_THROW(registry.register_monitor({"ok", "duplicate", factory}),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MonitorStack, UnknownKeyThrowsAndGridBuilderValidatesEagerly) {
  EXPECT_THROW(MonitorStack({"nope"}, MonitorContext{}), std::out_of_range);
  EXPECT_THROW(experiments::CampaignGridBuilder().monitors({"nope"}),
               std::out_of_range);
  EXPECT_THROW(experiments::CampaignGridBuilder().monitors({}),
               std::invalid_argument);
}

// ------------------------------------------ synthetic monitor behaviour

/// A camera track at ~30 m range (bottom edge at v=620 back-projects to
/// 30 m with the default camera), matched and mature.
perception::TrackView track_at_30m(int id = 1) {
  perception::TrackView t;
  t.track_id = id;
  t.cls = sim::ActorType::kVehicle;
  t.bbox = {960.0, 600.0, 90.0, 40.0};
  t.predicted_bbox = t.bbox;
  t.hits = 12;
  t.matched_this_frame = true;
  return t;
}

perception::PerceptionOutput frame_with(perception::TrackView t,
                                        double time) {
  perception::PerceptionOutput out;
  out.time = time;
  out.camera_tracks = {t};
  return out;
}

TEST(InnovationGateMonitor, SustainedMahalanobisSpikesFire) {
  defense::InnovationGateConfig cfg;
  defense::InnovationGateMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults());
  perception::CameraFrame frame;
  // Spikes below the consecutive requirement never fire.
  for (int i = 0; i < cfg.spike_consecutive - 1; ++i) {
    auto t = track_at_30m();
    t.innovation_m2 = cfg.gate_m2 * 2.0;
    monitor.observe(frame, frame_with(t, 0.1 * i));
  }
  auto calm = track_at_30m();
  calm.innovation_m2 = 1.0;
  monitor.observe(frame, frame_with(calm, 0.5));
  EXPECT_FALSE(monitor.report().fired);
  // A full streak fires.
  for (int i = 0; i < cfg.spike_consecutive; ++i) {
    auto t = track_at_30m();
    t.innovation_m2 = cfg.gate_m2 * 2.0;
    monitor.observe(frame, frame_with(t, 1.0 + 0.1 * i));
  }
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("Mahalanobis"), std::string::npos);
}

TEST(InnovationGateMonitor, BiasedDriftAccumulatesZeroMeanDoesNot) {
  const auto noise = perception::DetectorNoiseModel::paper_defaults();
  defense::InnovationGateConfig cfg;
  const double sigma = noise.vehicle.center_x.sigma;
  const double mu = noise.vehicle.center_x.mu;
  {
    // Alternating-sign sub-sigma noise: the CUSUM must stay quiet even
    // after many frames.
    defense::InnovationGateMonitor monitor(cfg, perception::CameraModel{},
                                           noise);
    perception::CameraFrame frame;
    for (int i = 0; i < 400; ++i) {
      auto t = track_at_30m();
      t.innovation_m2 = 1.0;
      t.innovation_x = mu + (i % 2 == 0 ? sigma : -sigma);
      monitor.observe(frame, frame_with(t, 0.1 * i));
    }
    EXPECT_FALSE(monitor.report().fired);
  }
  {
    // A persistent one-sigma bias — the §III-B attacker's envelope —
    // accumulates (1 - slack) per frame and must cross the threshold.
    defense::InnovationGateMonitor monitor(cfg, perception::CameraModel{},
                                           noise);
    perception::CameraFrame frame;
    const int frames_needed = static_cast<int>(
        cfg.cusum_threshold / (1.0 - cfg.cusum_slack)) + 2;
    for (int i = 0; i < frames_needed; ++i) {
      auto t = track_at_30m();
      t.innovation_m2 = 1.0;
      t.innovation_x = mu + sigma;
      monitor.observe(frame, frame_with(t, 0.1 * i));
    }
    EXPECT_TRUE(monitor.report().fired);
    EXPECT_NE(monitor.report().reason.find("CUSUM"), std::string::npos);
  }
}

TEST(InnovationGateMonitor, ClosePassRegimeIsExempt) {
  defense::InnovationGateConfig cfg;
  defense::InnovationGateMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults());
  perception::CameraFrame frame;
  for (int i = 0; i < 50; ++i) {
    auto t = track_at_30m();
    // Bottom edge at v=820 back-projects to ~8.6 m — inside min_range_m.
    t.predicted_bbox = {960.0, 740.0, 300.0, 160.0};
    t.bbox = t.predicted_bbox;
    t.innovation_m2 = cfg.gate_m2 * 10.0;
    monitor.observe(frame, frame_with(t, 0.1 * i));
  }
  EXPECT_FALSE(monitor.report().fired);
}

perception::WorldTrack world_track(int id, double x, double y,
                                   double vy = 0.0,
                                   sim::ActorType cls =
                                       sim::ActorType::kVehicle) {
  perception::WorldTrack w;
  w.track_id = id;
  w.cls = cls;
  w.rel_position = {x, y};
  w.rel_velocity = {0.0, vy};
  w.hits = 12;
  w.matched_this_frame = true;
  return w;
}

perception::LidarTrack lidar_track(int id, double x, double y) {
  perception::LidarTrack l;
  l.track_id = id;
  l.rel_position = {x, y};
  l.hits = 6;
  return l;
}

TEST(SensorConsistencyMonitor, BreakawayFromCorroboratedTrackFires) {
  defense::SensorConsistencyConfig cfg;
  defense::SensorConsistencyMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults(),
      perception::LidarConfig{});
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  // Corroborated phase: camera and LiDAR agree.
  for (int i = 0; i < cfg.min_paired_frames + 2; ++i) {
    out.time = 0.1 * i;
    out.camera_world = {world_track(1, 30.0, 0.0)};
    out.lidar_tracks = {lidar_track(7, 30.0, 0.0)};
    monitor.observe(frame, out);
  }
  EXPECT_FALSE(monitor.report().fired);
  // Hijacked phase: the camera estimate walks out laterally while LiDAR
  // keeps reporting the truth — the Move_Out breakaway signature.
  for (int i = 0; i < cfg.breakaway_consecutive; ++i) {
    out.time = 2.0 + 0.1 * i;
    out.camera_world = {world_track(1, 30.0, 3.0)};
    out.lidar_tracks = {lidar_track(7, 30.0, 0.0)};
    monitor.observe(frame, out);
  }
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("broke away"), std::string::npos);
}

TEST(SensorConsistencyMonitor, LidarAbsenceFiresBeyondStreakTail) {
  defense::SensorConsistencyConfig cfg;
  const auto noise = perception::DetectorNoiseModel::paper_defaults();
  defense::SensorConsistencyMonitor monitor(cfg, perception::CameraModel{},
                                            noise,
                                            perception::LidarConfig{});
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  const int limit =
      static_cast<int>(noise.vehicle.streak_p99 * cfg.absence_p99_mult);
  for (int i = 0; i <= limit; ++i) {
    out.time = 0.1 * i;
    out.camera_world = {};
    out.lidar_tracks = {lidar_track(7, 30.0, 0.0)};
    monitor.observe(frame, out);
    if (i < limit) {
      EXPECT_FALSE(monitor.report().fired) << "fired early at frame " << i;
    }
  }
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("missing from camera"),
            std::string::npos);
}

TEST(SensorConsistencyMonitor, GhostCountsOnlyInCoverageFrames) {
  defense::SensorConsistencyConfig cfg;
  defense::SensorConsistencyMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults(),
      perception::LidarConfig{});
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  out.lidar_tracks = {};
  // A long camera-only life *outside* LiDAR coverage must not arm the
  // ghost test (nothing to disagree with out there)...
  for (int i = 0; i < cfg.ghost_frames + 10; ++i) {
    out.time = 0.1 * i;
    out.camera_world = {world_track(1, 75.0, 0.0)};
    monitor.observe(frame, out);
  }
  EXPECT_FALSE(monitor.report().fired);
  // ...but the same track never corroborated *inside* coverage is a ghost.
  for (int i = 0; i < cfg.ghost_frames; ++i) {
    out.time = 20.0 + 0.1 * i;
    out.camera_world = {world_track(1, 30.0, 0.0)};
    monitor.observe(frame, out);
  }
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("camera-only"), std::string::npos);
}

TEST(SensorConsistencyMonitor, SpuriousPairingFramesDoNotWhitelistGhosts) {
  // A few frames of transient LiDAR clutter inside the pairing gate must
  // not permanently exempt an injected camera-only object from the ghost
  // test (maturity for the breakaway test is min_paired_frames; anything
  // below stays uncorroborated for the ghost counter).
  defense::SensorConsistencyConfig cfg;
  ASSERT_GT(cfg.min_paired_frames, 2);
  defense::SensorConsistencyMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults(),
      perception::LidarConfig{});
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  // Two clutter frames pair the ghost...
  for (int i = 0; i < 2; ++i) {
    out.time = 0.1 * i;
    out.camera_world = {world_track(1, 30.0, 0.0)};
    out.lidar_tracks = {lidar_track(7, 30.0, 0.0)};
    monitor.observe(frame, out);
  }
  // ...then the clutter vanishes and the camera-only object persists.
  out.lidar_tracks = {};
  for (int i = 0; i < cfg.ghost_frames; ++i) {
    out.time = 1.0 + 0.1 * i;
    out.camera_world = {world_track(1, 30.0, 0.0)};
    monitor.observe(frame, out);
  }
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("camera-only"), std::string::npos);
}

TEST(SensorConsistencyMonitor, SingleFrameJumpForgivenSustainedTeleportNot) {
  defense::SensorConsistencyConfig cfg;
  defense::SensorConsistencyMonitor monitor(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults(),
      perception::LidarConfig{});
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  out.lidar_tracks = {lidar_track(7, 30.0, 0.0)};
  const auto step = [&](double y, double time) {
    out.time = time;
    out.camera_world = {world_track(1, 30.0, y)};
    // Keep the LiDAR pair glued to the camera estimate so only the
    // teleport test is exercised.
    out.lidar_tracks = {lidar_track(7, 30.0, y)};
    monitor.observe(frame, out);
  };
  // One benign ID-switch-style jump, then stable: forgiven.
  step(0.0, 0.0);
  step(0.0, 0.1);
  step(5.0, 0.2);
  for (int i = 0; i < 10; ++i) step(5.0, 0.3 + 0.1 * i);
  EXPECT_FALSE(monitor.report().fired);
  // Sustained jumping: fires on the second consecutive over-bound jump.
  step(0.0, 2.0);
  step(5.0, 2.1);
  EXPECT_TRUE(monitor.report().fired);
  EXPECT_NE(monitor.report().reason.find("teleported"), std::string::npos);
}

TEST(KinematicsMonitor, ImplausibleLateralRampFiresConstantVelocityDoesNot) {
  defense::KinematicsConfig cfg;
  const double dt = 1.0 / 15.0;
  {
    defense::KinematicsMonitor monitor(cfg, dt);
    perception::CameraFrame frame;
    perception::PerceptionOutput out;
    // Constant lateral velocity: zero acceleration, silent.
    for (int i = 0; i < 60; ++i) {
      out.time = dt * i;
      out.camera_world = {world_track(1, 30.0, 0.1 * i, 1.5)};
      monitor.observe(frame, out);
    }
    EXPECT_FALSE(monitor.report().fired);
  }
  {
    defense::KinematicsMonitor monitor(cfg, dt);
    perception::CameraFrame frame;
    perception::PerceptionOutput out;
    // Lateral velocity ramping 3 m/s per frame = 45 m/s^2: far beyond any
    // vehicle.
    for (int i = 0; i < 30; ++i) {
      out.time = dt * i;
      out.camera_world = {world_track(1, 30.0, 0.0, 3.0 * i)};
      monitor.observe(frame, out);
    }
    EXPECT_TRUE(monitor.report().fired);
    EXPECT_NE(monitor.report().reason.find("lateral"), std::string::npos);
  }
  {
    // The same absurd ramp outside the judged range window: exempt.
    defense::KinematicsMonitor monitor(cfg, dt);
    perception::CameraFrame frame;
    perception::PerceptionOutput out;
    for (int i = 0; i < 30; ++i) {
      out.time = dt * i;
      out.camera_world = {
          world_track(1, cfg.max_range_m + 20.0, 0.0, 3.0 * i)};
      monitor.observe(frame, out);
    }
    EXPECT_FALSE(monitor.report().fired);
  }
}

TEST(MonitorStack, ReportAggregatesEarliestAlert) {
  MonitorContext ctx;
  MonitorStack stack({"innovation-gate", "sensor-consistency", "kinematics"},
                     ctx);
  EXPECT_EQ(stack.size(), 3u);
  perception::CameraFrame frame;
  // Drive only the innovation monitor over its spike threshold.
  for (int i = 0; i < 10; ++i) {
    auto t = track_at_30m();
    t.innovation_m2 = 100.0;
    stack.on_perception(frame, frame_with(t, 1.0 + 0.1 * i));
  }
  const auto report = stack.report();
  EXPECT_TRUE(report.flagged);
  EXPECT_EQ(report.first_monitor, "innovation-gate");
  ASSERT_EQ(report.monitors.size(), 3u);
  EXPECT_TRUE(report.monitors[0].fired);
  EXPECT_FALSE(report.monitors[1].fired);
  EXPECT_FALSE(report.monitors[2].fired);
  EXPECT_GE(report.first_alert_time, 1.0);
  // Detection labels are the harness's job; a raw stack report leaves them.
  EXPECT_FALSE(report.detected);
  EXPECT_EQ(report.frames_to_detection, -1);
}

// ------------------------------------- campaign integration + goldens

experiments::CampaignSpec nosh_spec(const std::string& scenario,
                                    const std::string& monitor, int runs,
                                    std::uint64_t seed) {
  experiments::CampaignSpec spec;
  spec.name = scenario + "-defense";
  spec.scenario = scenario;
  spec.vector = core::AttackVector::kMoveOut;
  spec.mode = experiments::AttackMode::kNoSh;
  spec.runs = runs;
  spec.seed = seed;
  if (!monitor.empty()) spec.monitors = {monitor};
  return spec;
}

TEST(DefenseCampaign, MonitorsArePassiveDrivingOutcomesBitIdentical) {
  // The passivity contract: deploying the full stack changes nothing about
  // the driving outcome of any run — only the defense fields differ.
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  auto undefended = nosh_spec("DS-1", "", 6, 777);
  auto defended = nosh_spec("DS-1", "sensor-consistency", 6, 777);
  defended.monitors = {"innovation-gate", "sensor-consistency",
                       "kinematics"};
  const auto a = runner.run(undefended);
  const auto b = runner.run(defended);
  ASSERT_EQ(a.n(), b.n());
  for (int i = 0; i < a.n(); ++i) {
    const auto& ra = a.runs[static_cast<std::size_t>(i)];
    const auto& rb = b.runs[static_cast<std::size_t>(i)];
    EXPECT_EQ(ra.eb, rb.eb) << i;
    EXPECT_EQ(ra.crash, rb.crash) << i;
    EXPECT_DOUBLE_EQ(ra.min_delta, rb.min_delta) << i;
    EXPECT_DOUBLE_EQ(ra.end_time, rb.end_time) << i;
    EXPECT_EQ(ra.attack.triggered, rb.attack.triggered) << i;
    EXPECT_DOUBLE_EQ(ra.attack.start_time, rb.attack.start_time) << i;
  }
  // The undefended twin reports no defense activity at all.
  EXPECT_EQ(a.detected_count(), 0);
  EXPECT_EQ(a.false_alarm_count(), 0);
}

TEST(DefenseCampaign, DetectionSemanticsAreConsistent) {
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  const auto result =
      runner.run(nosh_spec("DS-1", "sensor-consistency", 10, 4242));
  const double dt = loop.camera_dt();
  for (const auto& r : result.runs) {
    if (r.defense.detected) {
      EXPECT_TRUE(r.attack.triggered);
      EXPECT_TRUE(r.defense.flagged);
      EXPECT_GE(r.defense.frames_to_detection, 0);
      // Detection is judged per monitor: the credited monitor's own first
      // alert is at/after launch and consistent with the latency, even if
      // another monitor (or the stack's earliest alert) predates launch.
      ASSERT_FALSE(r.defense.detected_by.empty());
      bool credited_found = false;
      for (const auto& m : r.defense.monitors) {
        if (m.monitor != r.defense.detected_by) continue;
        credited_found = true;
        EXPECT_TRUE(m.fired);
        EXPECT_GE(m.first_alert_time, r.attack.start_time - 1e-9);
        EXPECT_NEAR(r.defense.frames_to_detection,
                    (m.first_alert_time - r.attack.start_time) / dt, 0.51);
      }
      EXPECT_TRUE(credited_found);
    } else {
      EXPECT_EQ(r.defense.frames_to_detection, -1);
      EXPECT_TRUE(r.defense.detected_by.empty());
    }
  }
  EXPECT_EQ(result.detected_count(),
            static_cast<int>(result.frames_to_detection().size()));
}

// Pinned goldens, measured at commit time with the counter-based
// Rng::from_stream derivation (exact, not statistical — drift means run or
// monitor semantics changed; re-measure and update in the same PR, noting
// it in CHANGES.md).
//
// Re-pinned for the PR 8 counter-based noise migration: Rng::normal now
// draws one engine word through the inverse CDF, so every run's sensor
// noise moved. Old pins (std::normal_distribution noise; that path and
// its RT_LEGACY_NOISE switch are now removed): DS-1 detected 12/12 with
// median 12 frames,
// cut-in detected 11/12 with median 13 frames.
TEST(GoldenDefense, Ds1NoShSensorConsistencyPins) {
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  const auto result =
      runner.run(nosh_spec("DS-1", "sensor-consistency", 12, 4242));
  EXPECT_EQ(result.triggered_count(), 12);
  EXPECT_EQ(result.detected_count(), 10);
  EXPECT_EQ(result.false_alarm_count(), 0);
  EXPECT_NEAR(result.detection_rate(), 10.0 / 12.0, 1e-12);
  EXPECT_NEAR(result.median_frames_to_detection(), 11.0, 1e-9);
}

TEST(GoldenDefense, CutInNoShSensorConsistencyPins) {
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  const auto result =
      runner.run(nosh_spec("cut-in", "sensor-consistency", 12, 4242));
  EXPECT_EQ(result.triggered_count(), 12);
  EXPECT_EQ(result.detected_count(), 10);
  EXPECT_EQ(result.false_alarm_count(), 0);
  EXPECT_NEAR(result.median_frames_to_detection(), 12.5, 1e-9);
}

TEST(GoldenDefense, FalsePositivePinsOnNoAttackBaselines) {
  // Full three-monitor stack on golden (no-attack) campaigns: the pinned
  // false-positive budget is zero on every family's baseline.
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  for (const char* scenario : {"DS-1", "DS-2", "DS-3", "DS-4", "cut-in"}) {
    experiments::CampaignSpec spec;
    spec.name = std::string(scenario) + "-Golden-stack";
    spec.scenario = scenario;
    spec.mode = experiments::AttackMode::kGolden;
    spec.runs = 8;
    spec.seed = 4242;
    spec.monitors = {"innovation-gate", "sensor-consistency", "kinematics"};
    const auto result = runner.run(spec);
    EXPECT_EQ(result.false_alarm_count(), 0) << scenario;
    EXPECT_EQ(result.detected_count(), 0) << scenario;
  }
}

TEST(DefenseGrid, SmallGridSchemaAndAggregates) {
  experiments::DefenseGridConfig cfg;
  cfg.scenarios = {"DS-1", "cut-in"};
  cfg.monitors = {"", "sensor-consistency"};
  cfg.modes = {experiments::AttackMode::kNoSh,
               experiments::AttackMode::kGolden};
  cfg.runs = 4;
  cfg.seed = 4242;
  const experiments::CampaignRunner runner(experiments::LoopConfig{}, {});
  const experiments::CampaignScheduler scheduler(runner, 1);
  const auto grid = experiments::run_defense_grid(
      cfg, [&](const auto& specs) { return scheduler.run_all(specs); });
  // 2 scenarios x 2 modes x 2 monitor cells.
  ASSERT_EQ(grid.cells.size(), 8u);
  const auto rows = grid.csv_rows();
  ASSERT_EQ(rows.size(), grid.cells.size());
  for (const auto& row : rows) {
    EXPECT_EQ(row.size(), experiments::DefenseGrid::csv_header().size());
  }
  for (const auto& cell : grid.cells) {
    EXPECT_EQ(cell.n, 4);
    EXPECT_EQ(cell.vector_name, "Move_Out");
    if (cell.mode == "Golden") EXPECT_EQ(cell.triggered, 0);
    if (cell.monitor.empty()) {
      EXPECT_EQ(cell.detected, 0);
      EXPECT_EQ(cell.false_alarms, 0);
      EXPECT_EQ(cell.median_frames_to_detection, -1.0);
    }
  }
  // The undefended and defended cells of the same campaign share driving
  // outcomes (passivity seen through the grid).
  EXPECT_DOUBLE_EQ(grid.cells[0].eb_rate, grid.cells[1].eb_rate);
  EXPECT_DOUBLE_EQ(grid.cells[0].crash_rate, grid.cells[1].crash_rate);
}

TEST(DefenseGrid, GridBuilderMonitorAxisNamingAndSeeds) {
  const auto specs = experiments::CampaignGridBuilder()
                         .runs(3)
                         .seed(100)
                         .modes({experiments::AttackMode::kNoSh})
                         .vectors({core::AttackVector::kMoveOut})
                         .monitors({"", "kinematics"})
                         .scenarios({"DS-1"})
                         .build();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "DS-1-Move_Out-RwoSH");
  EXPECT_TRUE(specs[0].monitors.empty());
  EXPECT_EQ(specs[0].seed, 100u);
  EXPECT_EQ(specs[1].name, "DS-1-Move_Out-RwoSH-kinematics");
  ASSERT_EQ(specs[1].monitors.size(), 1u);
  EXPECT_EQ(specs[1].monitors[0], "kinematics");
  // Monitor variants of one campaign cell share the cell seed (passive
  // monitors observe the exact same runs); the next cell advances it.
  EXPECT_EQ(specs[1].seed, 100u);
  const auto two_cells = experiments::CampaignGridBuilder()
                             .runs(3)
                             .seed(100)
                             .modes({experiments::AttackMode::kNoSh})
                             .vectors({core::AttackVector::kMoveOut})
                             .monitors({"", "kinematics"})
                             .scenarios({"DS-1", "DS-2"})
                             .build();
  ASSERT_EQ(two_cells.size(), 4u);
  EXPECT_EQ(two_cells[2].seed, 1100u);
  EXPECT_EQ(two_cells[3].seed, 1100u);
}

}  // namespace
}  // namespace rt
