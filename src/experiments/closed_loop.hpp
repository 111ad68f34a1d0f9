#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ads/ads_system.hpp"
#include "core/robotack.hpp"
#include "defense/monitor_stack.hpp"
#include "perception/detector_model.hpp"
#include "perception/lidar_model.hpp"
#include "safety/ids.hpp"
#include "safety/safety_monitor.hpp"
#include "sim/scenario.hpp"

namespace rt::experiments {

/// Shared configuration of a closed-loop simulation (the stand-in for the
/// paper's LGSVL + Apollo rig).
struct LoopConfig {
  double camera_hz{15.0};  ///< master control rate (paper: 15 Hz camera)
  double lidar_hz{10.0};
  bool keep_timeline{false};
  bool enable_ids{false};
  /// LGSVL halts the simulation when the EV gets closer than 4 m to an
  /// obstacle; we reproduce that (the run ends, the accident label comes
  /// from the safety monitor).
  double halt_gap{4.0};

  perception::CameraModel camera{};
  perception::DetectorNoiseModel noise{
      perception::DetectorNoiseModel::paper_defaults()};
  perception::MotConfig mot{};
  perception::FusionConfig fusion{};
  perception::LidarConfig lidar{};
  ads::PlannerConfig planner{};
  safety::SafetyModelConfig safety{};
  safety::IdsConfig ids{};

  /// Runtime attack monitors deployed on this run (defense::MonitorRegistry
  /// keys; empty = no defense). Monitors are passive observers, so any
  /// stack leaves the driving outcome bit-identical.
  std::vector<std::string> monitors{};
  defense::MonitorTuning defense{};

  [[nodiscard]] double camera_dt() const { return 1.0 / camera_hz; }
  [[nodiscard]] double lidar_dt() const { return 1.0 / lidar_hz; }

  /// The context the loop hands monitor factories: the perception stack's
  /// own configuration plus the tuning bundle.
  [[nodiscard]] defense::MonitorContext monitor_context() const {
    return {camera_dt(), camera, noise, mot, fusion, lidar, defense};
  }
};

/// Everything one simulation run produced.
struct RunResult {
  bool eb{false};                  ///< any forced emergency braking
  int eb_episodes{0};
  bool crash{false};               ///< paper's accident label (delta < 4 m)
  bool collision{false};           ///< physical footprint overlap
  double min_delta{0.0};
  double min_delta_since_attack{0.0};
  double end_time{0.0};
  bool halted_early{false};
  core::AttackLog attack;
  bool ids_flagged{false};
  std::string ids_reason;
  /// What the deployed monitor stack concluded (empty stack = all-clear).
  defense::DefenseReport defense;
  std::vector<safety::SafetySample> timeline;
};

/// One closed-loop run: ground-truth world + sensor models + (optional)
/// malware on the camera link + the ADS + the ground-truth safety monitor.
class ClosedLoop {
 public:
  /// `seed` derives all per-run randomness (detector noise, LiDAR noise,
  /// attacker draws). The attacker, if any, must have been built with the
  /// same MOT config as `config.mot` (it replicates the ADS tracker).
  ClosedLoop(sim::Scenario scenario, LoopConfig config, std::uint64_t seed);

  /// Installs the malware on the camera link (nullptr = golden run).
  void set_attacker(std::unique_ptr<core::Robotack> attacker);

  /// Runs the scenario to completion (or early halt) and returns the
  /// result. Single-shot: build a new ClosedLoop per run.
  ///
  /// `horizon`, when set, ends the run early once the attack has
  /// triggered: the loop stops after it records frame
  /// `llround(attack.start_time / camera_dt) + *horizon`. Everything up to
  /// that frame — the timeline prefix, the attack log of an attack no longer
  /// than the horizon — is bit-identical to the full run's. A run whose
  /// attack never triggers still runs to the end. Campaign cells run
  /// without a horizon; the oracle's dataset stops each launch at its label
  /// frame (`generate_sh_dataset`).
  [[nodiscard]] RunResult run(std::optional<int> horizon = std::nullopt);

  [[nodiscard]] const LoopConfig& config() const { return config_; }
  [[nodiscard]] const sim::Scenario& scenario() const { return scenario_; }

 private:
  sim::Scenario scenario_;
  LoopConfig config_;
  std::uint64_t seed_;
  std::unique_ptr<core::Robotack> attacker_;
};

/// Convenience: a RobotackConfig pre-wired for this loop config (dt, MOT
/// replica settings, safety-model constants).
[[nodiscard]] core::RobotackConfig make_attacker_config(
    const LoopConfig& loop, core::AttackVector vector,
    core::TimingPolicy timing);

}  // namespace rt::experiments
