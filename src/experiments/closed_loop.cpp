#include "experiments/closed_loop.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace rt::experiments {

ClosedLoop::ClosedLoop(sim::Scenario scenario, LoopConfig config,
                       std::uint64_t seed)
    : scenario_(std::move(scenario)), config_(config), seed_(seed) {}

void ClosedLoop::set_attacker(std::unique_ptr<core::Robotack> attacker) {
  attacker_ = std::move(attacker);
}

core::RobotackConfig make_attacker_config(const LoopConfig& loop,
                                          core::AttackVector vector,
                                          core::TimingPolicy timing) {
  core::RobotackConfig cfg;
  cfg.vector = vector;
  cfg.timing = timing;
  cfg.dt = loop.camera_dt();
  cfg.comfort_decel = loop.safety.comfort_decel;
  cfg.ego_length =
      sim::default_dimensions(sim::ActorType::kVehicle).length;
  cfg.breakaway_gate = loop.fusion.pair_gate_lateral;
  // The association gate the ADS tracker uses; the hijacker must stay
  // strictly inside it.
  cfg.th.association_iou_min = (1.0 - loop.mot.max_cost) + 0.05;
  return cfg;
}

RunResult ClosedLoop::run(std::optional<int> horizon) {
  const double dt = config_.camera_dt();
  stats::Rng root(seed_);

  sim::World world = scenario_.make_world();
  perception::DetectorModel detector(config_.camera, config_.noise,
                                     root.derive(1));
  perception::LidarModel lidar(config_.lidar, root.derive(2));

  ads::PlannerConfig planner_cfg = config_.planner;
  planner_cfg.cruise_speed = scenario_.ego_cruise_speed;
  ads::AdsSystem ads(config_.camera, dt, config_.lidar_dt(), planner_cfg,
                     config_.mot, config_.fusion, config_.lidar,
                     config_.noise);

  safety::SafetyMonitor monitor(safety::SafetyModel(config_.safety),
                                config_.keep_timeline);
  safety::AttackIds ids(config_.ids, config_.noise, config_.camera);

  // Runtime attack monitors: a fresh per-run stack observing the perception
  // pipeline from inside the ADS. Passive by contract — wiring it up never
  // changes the driving outcome.
  defense::MonitorStack monitors;
  if (!config_.monitors.empty()) {
    monitors =
        defense::MonitorStack(config_.monitors, config_.monitor_context());
    ads.set_perception_observer(&monitors);
  }

  RunResult result;
  double next_lidar = 0.0;
  const int steps =
      static_cast<int>(std::ceil(scenario_.duration / dt));
  // Per-frame buffers hoisted out of the loop: ground truth, LiDAR scan,
  // camera frame, and the full ADS output reuse their capacity across the
  // ~600 frames of a run instead of reallocating every cycle.
  std::vector<sim::GroundTruthObject> gt;
  std::vector<perception::LidarMeasurement> scan;
  perception::CameraFrame frame;
  ads::AdsOutput out;
  for (int i = 0; i < steps; ++i) {
    const double t = world.time();
    world.ground_truth_into(gt);

    if (t + 1e-9 >= next_lidar) {
      lidar.scan_into(gt, scan);
      ads.ingest_lidar(scan);
      next_lidar += config_.lidar_dt();
    }

    detector.detect_into(gt, t, frame);
    if (attacker_) {
      // In place on the hoisted frame buffer: the malware's man-in-the-
      // middle step copies nothing on the per-frame hot path.
      attacker_->process_in_place(frame, world.ego().speed());
    }

    ads.step_into(frame, world.ego().speed(), world.ego().acceleration(),
                  out);

    if (config_.enable_ids) {
      ids.observe(frame, out.perception.camera_tracks,
                  out.perception.lidar_tracks);
    }
    monitor.record(world, out.eb_active,
                   attacker_ && attacker_->attack_active(),
                   scenario_.target_id);

    // LGSVL-style halt: physically collided or within the 4 m envelope.
    const auto nearest = world.nearest_in_path();
    const bool too_close =
        nearest &&
        nearest->longitudinal_gap(world.ego().dims().length) <
            config_.halt_gap &&
        world.ego().speed() > 0.5;
    if (world.collision() || too_close) {
      result.halted_early = true;
      break;
    }
    if (horizon && attacker_ && attacker_->log().triggered &&
        i >= std::llround(attacker_->log().start_time / dt) + *horizon) {
      break;
    }

    world.step(dt, out.accel_command);
  }

  result.eb = monitor.emergency_braking_occurred();
  result.eb_episodes = monitor.eb_episodes();
  result.collision = monitor.collision_occurred();
  result.min_delta = monitor.min_delta();
  result.min_delta_since_attack = monitor.min_delta_since_attack();
  result.crash = monitor.accident();
  result.end_time = world.time();
  if (attacker_) result.attack = attacker_->log();
  result.ids_flagged = ids.report().flagged;
  result.ids_reason = ids.report().reason;
  if (!monitors.empty()) {
    result.defense = monitors.report();
    static const obs::Counter monitor_alarms =
        obs::MetricsRegistry::global().counter(
            "rt_monitor_alarms_total",
            "Alarm frames raised by runtime attack monitors");
    std::uint64_t alarms = 0;
    for (const auto& m : result.defense.monitors) {
      if (m.alarms > 0) alarms += static_cast<std::uint64_t>(m.alarms);
    }
    if (alarms > 0) monitor_alarms.inc(alarms);
    // Ground-truth detection labels, judged PER MONITOR: an alert at/after
    // the launch of a triggered attack counts as a detection even when a
    // different monitor false-alarmed earlier (a stack-wide earliest-alert
    // test would let one noisy monitor mask another's genuine detection).
    // A run that only alerted pre-launch stays a false alarm.
    if (result.attack.triggered) {
      const double launch = result.attack.start_time;
      double best_time = 0.0;
      for (const auto& m : result.defense.monitors) {
        if (!m.fired || m.first_alert_time < launch - 1e-9) continue;
        if (result.defense.detected && m.first_alert_time >= best_time) {
          continue;
        }
        best_time = m.first_alert_time;
        result.defense.detected = true;
        result.defense.frames_to_detection =
            static_cast<int>(std::lround((best_time - launch) / dt));
        result.defense.detected_by = m.monitor;
      }
    }
  }
  result.timeline = monitor.timeline();
  return result;
}

}  // namespace rt::experiments
