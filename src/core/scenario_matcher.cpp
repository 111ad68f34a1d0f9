#include "core/scenario_matcher.hpp"

#include <cmath>

#include "sim/road.hpp"

namespace rt::core {

LateralTrajectory ScenarioMatcher::classify(
    const perception::WorldTrack& target) const {
  const double y = target.rel_position.y;
  const double vy = target.rel_velocity.y;
  if (std::abs(vy) < config_.lateral_speed_threshold) {
    return LateralTrajectory::kKeep;
  }
  if (sim::Road::in_ego_lane(y)) {
    // Inside the EV lane, any sustained motion toward a lane boundary is
    // "moving out"; drifting across the center is effectively keeping.
    const bool toward_boundary = (y >= 0.0 && vy > 0.0) ||
                                 (y < 0.0 && vy < 0.0) ||
                                 std::abs(y) < 0.3;
    return toward_boundary ? LateralTrajectory::kMovingOut
                           : LateralTrajectory::kKeep;
  }
  // Outside the EV lane: approaching the lane center is "moving in".
  const bool approaching = (y > 0.0 && vy < 0.0) || (y < 0.0 && vy > 0.0);
  return approaching ? LateralTrajectory::kMovingIn
                     : LateralTrajectory::kMovingOut;
}

namespace {

constexpr unsigned bit(AttackVector v) {
  return 1u << static_cast<unsigned>(v);
}

}  // namespace

unsigned ScenarioMatcher::admissible_mask(
    const perception::WorldTrack& target) const {
  const double range = target.rel_position.x;
  if (range < config_.min_target_range || range > config_.max_target_range) {
    return 0;
  }
  const bool in_lane = sim::Road::in_ego_lane(target.rel_position.y);
  const unsigned out_or_gone =
      bit(AttackVector::kMoveOut) | bit(AttackVector::kDisappear);
  switch (classify(target)) {
    case LateralTrajectory::kMovingIn:
      // Only defined for targets outside the lane (Table I row 1).
      return in_lane ? 0 : out_or_gone;
    case LateralTrajectory::kKeep:
      return in_lane ? out_or_gone : bit(AttackVector::kMoveIn);
    case LateralTrajectory::kMovingOut:
      return in_lane ? bit(AttackVector::kMoveIn) : 0;
  }
  return 0;
}

std::vector<AttackVector> ScenarioMatcher::admissible(
    const perception::WorldTrack& target) const {
  const unsigned mask = admissible_mask(target);
  std::vector<AttackVector> out;
  for (const AttackVector v : {AttackVector::kMoveOut, AttackVector::kMoveIn,
                               AttackVector::kDisappear}) {
    if (mask & bit(v)) out.push_back(v);
  }
  return out;
}

bool ScenarioMatcher::matches(const perception::WorldTrack& target,
                              AttackVector v) const {
  return (admissible_mask(target) & bit(v)) != 0;
}

}  // namespace rt::core
