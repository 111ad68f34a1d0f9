#include "sim/scenario_registry.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "sim/road.hpp"

namespace rt::sim {

namespace {

/// Resolves `VictimGeometry::kAuto` by replaying the family's canonical
/// world (defaults, fixed resolution seed, ego cruising without reacting)
/// and checking whether the designated victim ever overlaps the ego
/// corridor. A family without a resolvable victim defaults to in-corridor,
/// preserving Move_Out as the natural vector for unknown geometries.
VictimGeometry resolve_victim_geometry(const ScenarioSpec& spec) {
  stats::Rng rng(0x9e0);  // local seed: resolution is registration-order-free
  const Scenario sc = spec.generate(spec.defaults, rng);
  World world = sc.make_world();
  const double dt = 1.0 / 15.0;
  const int steps = static_cast<int>(std::ceil(sc.duration / dt));
  bool victim_seen = false;
  for (int i = 0; i <= steps; ++i) {
    const auto g = world.ground_truth_for(sc.target_id);
    if (g) {
      victim_seen = true;
      if (Road::overlaps_ego_corridor(g->rel_position.y, g->dims.width,
                                      world.ego().dims().width)) {
        return VictimGeometry::kInCorridor;
      }
    }
    world.step(dt, 0.0);
  }
  return victim_seen ? VictimGeometry::kOutOfCorridor
                     : VictimGeometry::kInCorridor;
}

}  // namespace

void ScenarioRegistry::register_scenario(ScenarioSpec spec) {
  if (spec.key.empty()) {
    throw std::invalid_argument("ScenarioRegistry: empty scenario key");
  }
  if (!spec.generate) {
    throw std::invalid_argument("ScenarioRegistry: scenario '" + spec.key +
                                "' has no generator");
  }
  if (index_.count(spec.key) != 0) {
    throw std::invalid_argument("ScenarioRegistry: duplicate scenario key '" +
                                spec.key + "'");
  }
  if (spec.victim_geometry == VictimGeometry::kAuto) {
    spec.victim_geometry = resolve_victim_geometry(spec);
  }
  index_.emplace(spec.key, specs_.size());
  specs_.push_back(std::move(spec));
}

bool ScenarioRegistry::contains(const std::string& key) const {
  return index_.count(key) != 0;
}

const ScenarioSpec& ScenarioRegistry::get(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) {
    std::string known;
    for (const auto& spec : specs_) {
      if (!known.empty()) known += ", ";
      known += spec.key;
    }
    throw std::out_of_range("ScenarioRegistry: unknown scenario '" + key +
                            "' (known: " + known + ")");
  }
  return specs_[it->second];
}

std::size_t ScenarioRegistry::index_of(const std::string& key) const {
  return static_cast<std::size_t>(&get(key) - specs_.data());
}

std::vector<std::string> ScenarioRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(spec.key);
  return out;
}

ScenarioParams ScenarioRegistry::defaults(const std::string& key) const {
  return get(key).defaults;
}

Scenario ScenarioRegistry::make(const std::string& key,
                                stats::Rng& rng) const {
  const ScenarioSpec& spec = get(key);
  return spec.generate(spec.defaults, rng);
}

Scenario ScenarioRegistry::make(const std::string& key,
                                const ScenarioParams& params,
                                stats::Rng& rng) const {
  return get(key).generate(params, rng);
}

namespace {

/// Wraps a deterministic generator (one that takes no Rng).
ScenarioSpec::Generator deterministic(Scenario (*fn)(const ScenarioParams&)) {
  return [fn](const ScenarioParams& p, stats::Rng&) { return fn(p); };
}

void register_builtins(ScenarioRegistry& reg) {
  // The paper's five scenarios, in enum-era order — their registry indices
  // (0..4) seed the SH-training RNG streams and must never change.
  {
    ScenarioParams p;  // struct defaults are the DS-1 paper values
    reg.register_scenario(
        {"DS-1",
         "EV follows a 25 kph target vehicle starting 60 m ahead in the ego "
         "lane",
         p, deterministic(&make_ds1)});
  }
  {
    ScenarioParams p;
    p.duration = 35.0;
    reg.register_scenario(
        {"DS-2", "pedestrian illegally crosses the street ahead of the EV",
         p, deterministic(&make_ds2)});
  }
  {
    ScenarioParams p;
    p.duration = 25.0;
    p.target_gap = 120.0;
    reg.register_scenario({"DS-3", "target vehicle parked in the parking lane",
                           p, deterministic(&make_ds3)});
  }
  {
    ScenarioParams p;
    p.duration = 25.0;
    p.target_gap = 110.0;
    p.trigger_distance = 90.0;
    p.pedestrian_gait = 1.4;
    reg.register_scenario(
        {"DS-4",
         "pedestrian walks toward the EV in the parking lane for 5 m, then "
         "stands still",
         p, deterministic(&make_ds4)});
  }
  {
    ScenarioParams p;
    p.pedestrian_gait = 1.3;
    reg.register_scenario(
        {"DS-5",
         "EV follows a target vehicle; NPC vehicles with randomized speeds "
         "and positions share the road",
         p, &make_ds5});
  }
  // Extended families (not in the paper).
  {
    ScenarioParams p;
    p.duration = 35.0;
    p.target_gap = 50.0;
    p.target_speed_kph = 32.0;
    p.trigger_distance = 45.0;
    reg.register_scenario(
        {"cut-in",
         "vehicle in the adjacent lane overtakes and merges into the ego "
         "lane ahead of the EV, then slows to target speed",
         p, deterministic(&make_cut_in)});
  }
  {
    ScenarioParams p;
    p.duration = 40.0;
    reg.register_scenario(
        {"staggered-crossing",
         "two pedestrians cross from opposite curbs, the second staggered "
         "further down the road",
         p, deterministic(&make_staggered_crossing)});
  }
  {
    ScenarioParams p;
    p.npc_vehicles = 5;
    p.pedestrian_gait = 1.3;
    reg.register_scenario(
        {"dense-follow",
         "DS-1-style car following inside randomized dense traffic: NPCs "
         "drawn into random lanes plus sidewalk pedestrians",
         p, &make_dense_follow});
  }
  // Composite families (PR 6): seeds for the procedural scenario sampler.
  {
    ScenarioParams p;
    p.duration = 35.0;
    p.target_gap = 40.0;
    p.target_speed_kph = 30.0;
    p.trigger_distance = 70.0;
    reg.register_scenario(
        {"intersection-turn",
         "vehicle pulls out of a side street and turns into the ego lane "
         "ahead of the EV; oncoming NPC in the adjacent lane",
         p, deterministic(&make_intersection_turn)});
  }
  {
    ScenarioParams p;
    p.duration = 35.0;
    p.target_gap = 80.0;
    p.trigger_distance = 75.0;
    p.pedestrian_gait = 1.2;
    p.npc_vehicles = 2;
    p.npc_pedestrians = 2;
    reg.register_scenario(
        {"occlusion-reveal",
         "pedestrian steps out from between a parked vehicle and the curb "
         "and crosses the street; parked NPC clutter ahead",
         p, &make_occlusion_reveal});
  }
  {
    ScenarioParams p;
    p.duration = 40.0;
    p.target_speed_kph = 28.0;
    p.target_gap = 55.0;
    p.trigger_distance = 60.0;
    reg.register_scenario(
        {"multi-lane-overtake",
         "EV follows a slow lead while a faster NPC overtakes both in the "
         "adjacent lane and merges ahead of the lead",
         p, deterministic(&make_multi_lane_overtake)});
  }
}

}  // namespace

ScenarioRegistry& ScenarioRegistry::global() {
  static ScenarioRegistry* reg = [] {
    auto* r = new ScenarioRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

Scenario make_scenario(const std::string& key, stats::Rng& rng) {
  return ScenarioRegistry::global().make(key, rng);
}

namespace {

struct ParamField {
  const char* name;
  double ScenarioParams::*dfield;
  int ScenarioParams::*ifield;
};

constexpr ParamField kParamFields[] = {
    {"duration", &ScenarioParams::duration, nullptr},
    {"ego_speed_kph", &ScenarioParams::ego_speed_kph, nullptr},
    {"target_speed_kph", &ScenarioParams::target_speed_kph, nullptr},
    {"target_gap", &ScenarioParams::target_gap, nullptr},
    {"pedestrian_gait", &ScenarioParams::pedestrian_gait, nullptr},
    {"trigger_distance", &ScenarioParams::trigger_distance, nullptr},
    {"walk_distance", &ScenarioParams::walk_distance, nullptr},
    {"npc_vehicles", nullptr, &ScenarioParams::npc_vehicles},
    {"npc_pedestrians", nullptr, &ScenarioParams::npc_pedestrians},
};

const ParamField& find_param(const std::string& name) {
  for (const ParamField& f : kParamFields) {
    if (name == f.name) return f;
  }
  std::string known;
  for (const ParamField& f : kParamFields) {
    if (!known.empty()) known += ", ";
    known += f.name;
  }
  throw std::invalid_argument("unknown scenario parameter '" + name +
                              "' (known: " + known + ")");
}

}  // namespace

std::vector<std::string> scenario_param_names() {
  std::vector<std::string> out;
  for (const ParamField& f : kParamFields) out.emplace_back(f.name);
  return out;
}

void set_scenario_param(ScenarioParams& params, const std::string& name,
                        double value) {
  const ParamField& f = find_param(name);
  if (f.dfield != nullptr) {
    params.*(f.dfield) = value;
  } else {
    params.*(f.ifield) = static_cast<int>(std::llround(value));
  }
}

double get_scenario_param(const ScenarioParams& params,
                          const std::string& name) {
  const ParamField& f = find_param(name);
  return f.dfield != nullptr ? params.*(f.dfield)
                             : static_cast<double>(params.*(f.ifield));
}

}  // namespace rt::sim
