#include "sim/world.hpp"

#include <algorithm>
#include <cmath>

namespace rt::sim {

World::World(EgoVehicle ego, std::vector<Actor> actors)
    : ego_(ego), actors_(std::move(actors)) {}

void World::step(double dt, double ego_accel_command) {
  time_ += dt;
  for (Actor& a : actors_) {
    a.step(dt, time_, ego_.x());
  }
  ego_.step(dt, ego_accel_command);
}

GroundTruthObject World::snapshot(const Actor& a) const {
  GroundTruthObject g;
  g.id = a.id();
  g.type = a.type();
  g.dims = a.dims();
  g.rel_position = {a.state().position.x - ego_.x(), a.state().position.y};
  g.abs_velocity = a.state().velocity;
  g.rel_velocity = {a.state().velocity.x - ego_.speed(),
                    a.state().velocity.y};
  g.abs_acceleration = a.state().acceleration;
  return g;
}

void World::ground_truth_into(std::vector<GroundTruthObject>& out) const {
  out.clear();
  out.reserve(actors_.size());
  for (const Actor& a : actors_) out.push_back(snapshot(a));
}

std::optional<GroundTruthObject> World::ground_truth_for(ActorId id) const {
  for (const Actor& a : actors_) {
    if (a.id() == id) return snapshot(a);
  }
  return std::nullopt;
}

bool World::collision() const {
  const double ego_half_len = ego_.dims().length / 2.0;
  const double ego_half_wid = ego_.dims().width / 2.0;
  for (const Actor& a : actors_) {
    const double dx = std::abs(a.state().position.x - ego_.x());
    const double dy = std::abs(a.state().position.y);
    if (dx < ego_half_len + a.dims().length / 2.0 &&
        dy < ego_half_wid + a.dims().width / 2.0) {
      return true;
    }
  }
  return false;
}

std::optional<GroundTruthObject> World::nearest_in_path() const {
  std::optional<GroundTruthObject> best;
  for (const Actor& a : actors_) {
    const GroundTruthObject g = snapshot(a);
    if (g.rel_position.x <= 0.0) continue;  // behind or alongside
    if (!Road::overlaps_ego_corridor(g.rel_position.y, g.dims.width,
                                     ego_.dims().width)) {
      continue;
    }
    if (!best || g.rel_position.x < best->rel_position.x) best = g;
  }
  return best;
}

}  // namespace rt::sim
