#pragma once

#include <vector>

#include "core/attack_vector.hpp"
#include "perception/track_projection.hpp"

namespace rt::core {

/// Lateral trajectory classification of the target object relative to the
/// EV lane, as used by Table I.
enum class LateralTrajectory : std::uint8_t {
  kMovingIn,   ///< approaching the EV lane from outside
  kKeep,       ///< holding its lateral position
  kMovingOut,  ///< leaving the EV lane / receding from it
};

[[nodiscard]] constexpr const char* to_string(LateralTrajectory t) {
  switch (t) {
    case LateralTrajectory::kMovingIn:
      return "Moving-In";
    case LateralTrajectory::kKeep:
      return "Keep";
    case LateralTrajectory::kMovingOut:
      return "Moving-Out";
  }
  return "?";
}

/// The rule-based scenario matcher ("SM", §IV-A).
///
/// Implements Table I verbatim:
///
///   TO trajectory | TO in EV-lane        | TO not in EV-lane
///   Moving In     | —                    | Move_Out / Disappear
///   Keep          | Move_Out / Disappear | Move_In
///   Moving Out    | Move_In              | —
///
/// Deliberately rule-based (no learning) to keep its execution time — and
/// hence the malware's runtime footprint — negligible.
class ScenarioMatcher {
 public:
  struct Config {
    /// Lateral speeds below this are classified "Keep".
    double lateral_speed_threshold{0.25};
    /// Targets further ahead than this are not worth attacking.
    double max_target_range{100.0};
    /// Targets closer than this are already past the point of attack.
    double min_target_range{3.0};
  };

  ScenarioMatcher() : ScenarioMatcher(Config{}) {}
  explicit ScenarioMatcher(Config config) : config_(config) {}

  /// Classifies the target's lateral trajectory w.r.t. the EV lane.
  [[nodiscard]] LateralTrajectory classify(
      const perception::WorldTrack& target) const;

  /// Admissible attack vectors for the target per Table I (empty when the
  /// target is out of attack range or the table row is "—").
  [[nodiscard]] std::vector<AttackVector> admissible(
      const perception::WorldTrack& target) const;

  /// Convenience: true if `v` is admissible for the target.
  [[nodiscard]] bool matches(const perception::WorldTrack& target,
                             AttackVector v) const;

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// Table I as a bit set over AttackVector values. `matches` runs on every
  /// dormant attacker frame, so it tests a bit instead of building a vector.
  [[nodiscard]] unsigned admissible_mask(
      const perception::WorldTrack& target) const;

  Config config_;
};

}  // namespace rt::core
