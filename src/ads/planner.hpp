#pragma once

#include <optional>
#include <unordered_map>

#include "ads/world_model.hpp"

namespace rt::ads {

/// Planner tunables. Defaults reproduce the golden-run behaviours the paper
/// describes per scenario (§V-C): 45 kph cruise, ~20 m following gap behind
/// a 25 kph lead, a >= 10 m stop short of a crossing pedestrian, a 35 kph
/// slowdown near an on-road pedestrian.
struct PlannerConfig {
  double cruise_speed{12.5};        ///< m/s (45 kph), per-scenario override
  double max_accel{1.8};            ///< IDM a_max
  double comfort_decel{2.0};        ///< IDM b
  double time_headway{1.5};         ///< IDM T
  double min_gap_vehicle{8.0};      ///< IDM s0 for vehicles
  double min_gap_pedestrian{10.0};  ///< stop margin for pedestrians (>=10 m)
  double prediction_horizon{1.5};   ///< corridor-entry lookahead (s)
  /// Required decel beyond this triggers emergency braking...
  double eb_trigger_decel{2.8};
  /// ...but an obstacle that *newly appears* as a threat already needing
  /// more than this triggers EB immediately (panic response to surprise —
  /// the reaction Disappear / Move_In attacks provoke).
  double eb_surprise_decel{2.5};
  /// Frames since an object was last a threat for its reappearance to count
  /// as a surprise.
  int surprise_memory_frames{5};
  /// Cut-in reflex: an object observed *entering* the corridor (or a newly
  /// registered object already inside it) within this range while the EV is
  /// at speed triggers emergency braking outright — the uncomfortable
  /// reaction the paper's Move_In vector provokes (and AEB systems exhibit).
  double cut_in_panic_range{45.0};
  double cut_in_min_required_decel{1.5};
  double cut_in_min_speed{7.0};
  /// ...and EB releases once the required decel falls below this.
  double eb_release_decel{1.5};
  double eb_command_decel{6.0};     ///< what EB commands
  /// On-road pedestrian caution: cap speed within this range.
  double ped_caution_range{55.0};
  double ped_caution_speed{9.72};   ///< m/s (35 kph)
  /// Proportional gain of the cruise speed loop.
  double cruise_gain{0.6};
  /// Safety-envelope speed cap: never drive faster than what allows a
  /// comfortable stop (at `envelope_decel`) within the perceived gap minus
  /// `envelope_buffer`. This is the planner-side mirror of the safety
  /// model's d_stop <= d_safe invariant.
  double envelope_decel{2.0};
  double envelope_buffer{8.0};
  /// An out-of-corridor object must be predicted to enter the corridor for
  /// this many consecutive frames before it is treated as a lead obstacle
  /// (multi-frame consistency filters perception noise spurts).
  int threat_persistence{3};
  /// Velocity-based threat predicates (corridor-entry prediction, crossing
  /// pedestrian) only apply to tracks at least this old; an in-corridor
  /// object is a threat regardless of age.
  int mature_hits{6};
};

/// Planner output for one frame.
struct PlanOutput {
  double accel_command{0.0};
  bool eb_active{false};
  /// The fused object the planner is reacting to, if any.
  std::optional<int> lead_id;
  /// Deceleration needed to stop short of the lead (0 when receding).
  double required_decel{0.0};
};

/// Longitudinal planner + behaviour layer (the "Planning & control" stage).
///
/// Behaviour per frame:
///  1. select the nearest fused object that is in (or predicted to enter)
///     the EV corridor -> lead obstacle;
///  2. IDM car-following toward the lead (stop margin depends on class);
///  3. emergency braking (with hysteresis) when the kinematically required
///     deceleration exceeds the comfortable envelope — this flag is the
///     paper's "forced emergency braking" metric;
///  4. on-road-pedestrian caution: speed cap while a pedestrian is on the
///     pavement nearby (DS-4 golden behaviour);
///  5. otherwise cruise at the scenario speed.
class LongitudinalPlanner {
 public:
  explicit LongitudinalPlanner(PlannerConfig config = {})
      : config_(config) {}

  [[nodiscard]] PlanOutput plan(const WorldModel& world, double ego_width,
                                double ego_length);

  [[nodiscard]] const PlannerConfig& config() const { return config_; }

 private:
  PlannerConfig config_;
  bool eb_latched_{false};
  /// Consecutive frames each fused object satisfied the predicted
  /// corridor-entry condition (keyed by fused object id).
  std::unordered_map<int, int> entry_streak_;
  /// Latched yield decision per crossing pedestrian (fused object id).
  std::unordered_map<int, bool> yield_latch_;
  /// Lateral position-trend tracker per on-road pedestrian: |y| sampled
  /// every `kTrendFrames`; a consistent decrease marks a crossing even when
  /// the instantaneous velocity estimate is too noisy to clear a threshold.
  struct YTrend {
    double anchor_abs_y{0.0};
    int anchor_frame{0};
    bool valid{false};
  };
  std::unordered_map<int, YTrend> y_trend_;
  /// Last frame each object counted as a threat (for surprise detection).
  std::unordered_map<int, int> last_threat_frame_;
  /// Corridor membership of each object in the previous frame.
  std::unordered_map<int, bool> was_in_corridor_;
  /// First frame each fused id was observed.
  std::unordered_map<int, int> first_seen_frame_;
  int frame_{0};
};

}  // namespace rt::ads
