#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "core/attack_vector.hpp"
#include "core/safety_hijacker.hpp"
#include "core/scenario_matcher.hpp"
#include "core/trajectory_hijacker.hpp"
#include "perception/camera_model.hpp"
#include "perception/detection.hpp"
#include "perception/mot_tracker.hpp"
#include "perception/track_projection.hpp"
#include "stats/rng.hpp"

namespace rt::core {

/// When the malware pulls the trigger. `kSafetyHijacker` is RoboTack
/// proper; the others realize the paper's comparison conditions.
enum class TimingPolicy : std::uint8_t {
  /// Full RoboTack: NN-timed launch (Table II "R" rows).
  kSafetyHijacker,
  /// "R w/o SH" (§VI-B/D): scenario matcher + trajectory hijacker, but the
  /// launch time is random (uniform delay after the first SM match) and K
  /// is random in [15, 85].
  kRandomAfterMatch,
  /// "Baseline-Random" (Table II last row): random target, random vector,
  /// random start time, random K — no SM, no SH.
  kRandomUnconditional,
  /// Scripted launch at a delta threshold with a fixed K — used to generate
  /// the safety hijacker's training data (§IV-B's delta_inject sweeps).
  kAtDeltaThreshold,
};

[[nodiscard]] constexpr const char* to_string(TimingPolicy p) {
  switch (p) {
    case TimingPolicy::kSafetyHijacker:
      return "R";
    case TimingPolicy::kRandomAfterMatch:
      return "R w/o SH";
    case TimingPolicy::kRandomUnconditional:
      return "Baseline-Random";
    case TimingPolicy::kAtDeltaThreshold:
      return "Scripted";
  }
  return "?";
}

/// Everything the deployed malware is configured with (Phase 1 of §III-D).
struct RobotackConfig {
  AttackVector vector{AttackVector::kMoveOut};
  TimingPolicy timing{TimingPolicy::kSafetyHijacker};
  /// Attack bursts allowed per run (Table II campaigns use one).
  int max_triggers{1};

  /// Lateral drift target Omega: breakaway gate + margin for Move_Out;
  /// |y| (to lane center) for Move_In.
  double breakaway_gate{2.5};
  double omega_margin{0.4};

  /// kRandomAfterMatch: launch delay ~ U[0, random_delay_max] seconds after
  /// the first SM match.
  double random_delay_max{8.0};
  /// kRandomUnconditional: start time ~ U[min, max] seconds.
  double random_start_min{1.0};
  double random_start_max{20.0};
  /// Random-policy attack duration ~ U[k_min, k_max] frames (paper: 15-85).
  int random_k_min{15};
  int random_k_max{85};
  bool randomize_vector{false};  ///< kRandomUnconditional picks the vector
  bool randomize_target{false};  ///< kRandomUnconditional picks the victim

  /// kAtDeltaThreshold: launch when delta_t <= delta_trigger, for fixed_k.
  double delta_trigger{20.0};
  int fixed_k{30};

  /// Safety-model parameters the malware replicates (ADS source access).
  double comfort_decel{2.0};
  double ego_length{4.6};

  double dt{1.0 / 15.0};

  TrajectoryHijacker::Config th{};
  SafetyHijacker::Config sh{};
  ScenarioMatcher::Config sm{};
};

/// Everything the evaluation needs to know about one run's attack.
struct AttackLog {
  bool triggered{false};
  int triggers{0};
  AttackVector vector{AttackVector::kMoveOut};
  double start_time{0.0};
  double delta_at_launch{0.0};
  /// Malware-estimated relative velocity/acceleration of the victim at
  /// launch (the oracle's input features).
  math::Vec2 v_rel_at_launch;
  math::Vec2 a_rel_at_launch;
  double predicted_delta{0.0};  ///< SH's delta_{t+K} (0 for random policies)
  int planned_k{0};
  int frames_perturbed{0};
  int k_prime{-1};
  double omega_target{0.0};
  sim::ActorType victim_cls{sim::ActorType::kVehicle};
  sim::ActorId victim_truth_id{-1};
};

/// RoboTack: the smart malware on the camera link (Algorithm 1).
///
/// Sits man-in-the-middle between the camera's detector output and the ADS.
/// Each camera frame flows through `process_in_place`, which
///  1. updates the malware's *truth replica* of the perception stack (its
///     own MOT + projection on the unperturbed feed — the paper's
///     "Perception(I_t)" giving O_t and S_hat_t);
///  2. while dormant, picks the victim (object closest to the EV), runs the
///     scenario matcher (Table I) and the timing policy (safety hijacker
///     for RoboTack proper) to decide whether to arm;
///  3. while armed, runs the trajectory hijacker on the outgoing frame and
///     keeps a second *ADS-view replica* tracker in sync with what the ADS
///     actually received — the state Eq. 4's association constraint is
///     evaluated against.
///
/// The two replicas are built with the same dt, MotConfig and noise model,
/// and the tracker is deterministic. Until the first attack arms, every
/// outgoing frame equals the incoming one, so both replicas consume the
/// same frames and hold the same state. The ADS-view replica is therefore
/// refreshed as a copy of the truth replica (taken before the truth update,
/// i.e. the state after frame t-1 that `arm` resolves the victim against)
/// instead of running a second tracker update. From the first successful
/// arm on it consumes the outgoing frames as in Algorithm 1, and once the
/// last permitted burst has ended nothing reads it again, so it stops.
/// Every value the malware reads from it is the one a lockstep replica
/// would hold: the paper's replica semantics are kept exactly.
///
/// The malware never touches LiDAR, never reads ground truth, and derives
/// everything (delta_t, relative velocity/acceleration) from its camera-only
/// world reconstruction plus the ego's own speed.
class Robotack {
 public:
  Robotack(RobotackConfig config, perception::CameraModel camera,
           perception::DetectorNoiseModel noise,
           perception::MotConfig mot_config, std::uint64_t seed);

  /// Installs a trained oracle for an attack vector.
  void set_oracle(AttackVector v, std::shared_ptr<SafetyOracle> oracle);

  /// Intercepts one camera frame *in place*: `frame` arrives as the true
  /// detector output and leaves as what the ADS will receive. This is the
  /// campaign hot path — zero heap allocations at steady state (the malware
  /// reuses member scratch for its replica trackers and world buffers).
  void process_in_place(perception::CameraFrame& frame, double ego_speed);

  [[nodiscard]] bool attack_active() const { return k_left_ > 0; }
  [[nodiscard]] const AttackLog& log() const { return log_; }
  [[nodiscard]] const RobotackConfig& config() const { return config_; }
  [[nodiscard]] const SafetyHijacker& safety_hijacker() const { return sh_; }

 private:
  struct Kinematics {
    math::Vec2 prev_velocity;
    math::Vec2 accel_ema;
    bool has_prev{false};
  };

  void maybe_arm(const std::vector<perception::WorldTrack>& world,
                 double ego_speed, double time);
  void arm(const perception::WorldTrack& target, int k, double time,
           double delta, double predicted_delta);
  [[nodiscard]] const perception::WorldTrack* pick_target(
      const std::vector<perception::WorldTrack>& world);
  [[nodiscard]] double malware_delta(const perception::WorldTrack& target,
                                     double ego_speed) const;
  [[nodiscard]] math::Vec2 accel_estimate(int track_id) const;
  void update_kinematics(const std::vector<perception::WorldTrack>& world);
  /// False once the last permitted burst has ended: nothing reads the
  /// ADS-view replica after that.
  [[nodiscard]] bool ads_view_needed() const {
    return attack_active() || log_.triggers < config_.max_triggers;
  }

  RobotackConfig config_;
  perception::CameraModel camera_;
  perception::DetectorNoiseModel noise_;
  stats::Rng rng_;

  // Truth replica (fed with unperturbed frames).
  perception::MotTracker mot_truth_;
  perception::TrackProjector projector_truth_;
  // ADS-view replica (fed with exactly what the ADS receives). A copy of
  // the truth replica until `ads_diverged_` (see the class comment).
  perception::MotTracker mot_ads_;
  bool ads_diverged_{false};

  ScenarioMatcher sm_;
  SafetyHijacker sh_;
  TrajectoryHijacker th_;

  std::unordered_map<int, Kinematics> kinematics_;

  // Per-frame buffers reused across `process_in_place` calls so the attack
  // path allocates nothing at steady state (pinned in test_alloc).
  std::vector<perception::TrackView> truth_tracks_scratch_;
  std::vector<perception::WorldTrack> world_scratch_;
  std::vector<perception::TrackView> ads_tracks_scratch_;
  std::vector<const perception::WorldTrack*> candidates_scratch_;

  // Armed-attack state.
  int k_left_{0};
  int victim_truth_track_{-1};
  int victim_ads_track_{-1};
  double last_victim_range_{30.0};

  // Timing-policy state.
  std::optional<double> first_match_time_;
  double random_delay_{0.0};
  double random_start_time_{0.0};
  bool random_params_drawn_{false};

  AttackLog log_;
};

}  // namespace rt::core
