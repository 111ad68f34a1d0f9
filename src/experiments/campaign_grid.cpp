#include "experiments/campaign_grid.hpp"

#include <cstdio>
#include <stdexcept>

#include "defense/monitor_registry.hpp"

namespace rt::experiments {

namespace {

std::string fmt_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string spec_name(const std::string& scenario, core::AttackVector v,
                      AttackMode m) {
  switch (m) {
    case AttackMode::kGolden:
      return scenario + "-Golden";
    case AttackMode::kRandomBaseline:
      return scenario + "-Baseline-Random";
    case AttackMode::kRobotack:
      return scenario + "-" + core::to_string(v) + "-R";
    case AttackMode::kNoSh:
      return scenario + "-" + core::to_string(v) + "-RwoSH";
  }
  return scenario;
}

}  // namespace

CampaignGridBuilder& CampaignGridBuilder::scenarios(
    std::vector<std::string> keys) {
  scenarios_ = std::move(keys);
  dirty_ = true;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::vectors(
    std::vector<core::AttackVector> vectors) {
  vectors_ = std::move(vectors);
  dirty_ = true;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::modes(std::vector<AttackMode> modes) {
  modes_ = std::move(modes);
  dirty_ = true;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::monitors(
    std::vector<std::string> keys) {
  if (keys.empty()) {
    throw std::invalid_argument("CampaignGridBuilder: empty monitor axis");
  }
  // Validate eagerly so a typo fails at grid-definition time ("" is the
  // undefended cell and always valid).
  for (const auto& key : keys) {
    if (!key.empty()) (void)defense::MonitorRegistry::global().get(key);
  }
  monitors_ = std::move(keys);
  dirty_ = true;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::runs(int n) {
  runs_ = n;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::seed(std::uint64_t s) {
  seed_ = s;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::params(sim::ScenarioParams base) {
  base_params_ = base;
  dirty_ = true;
  return *this;
}

CampaignGridBuilder& CampaignGridBuilder::sweep(std::string param,
                                                std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("CampaignGridBuilder: empty sweep for '" +
                                param + "'");
  }
  // Validate the name eagerly so a typo fails at grid-definition time, not
  // mid-campaign.
  sim::ScenarioParams probe;
  sim::set_scenario_param(probe, param, values.front());
  sweeps_.emplace_back(std::move(param), std::move(values));
  dirty_ = true;
  return *this;
}

void CampaignGridBuilder::flush() {
  if (scenarios_.empty()) {
    throw std::invalid_argument(
        "CampaignGridBuilder: no scenarios in the current grid block");
  }
  if (vectors_.empty() || modes_.empty()) {
    throw std::invalid_argument(
        "CampaignGridBuilder: empty vector or mode axis");
  }
  const auto& registry = sim::ScenarioRegistry::global();
  for (const AttackMode mode : modes_) {
    // Golden runs have no attacker and Baseline-Random randomizes its own
    // vector, so the vector axis collapses for them — otherwise a
    // multi-vector grid would emit duplicate-named, redundant campaigns.
    const bool vector_matters =
        mode == AttackMode::kRobotack || mode == AttackMode::kNoSh;
    const std::vector<core::AttackVector> mode_vectors =
        vector_matters ? vectors_
                       : std::vector<core::AttackVector>{vectors_.front()};
    for (const core::AttackVector vector : mode_vectors) {
      for (const std::string& scenario : scenarios_) {
        (void)registry.get(scenario);  // unknown keys fail at build time
        // Cross product over the sweep axes (one pass with no axes).
        std::vector<std::size_t> idx(sweeps_.size(), 0);
        while (true) {
          // Every monitor variant of one campaign cell shares the cell's
          // seed, so the variants differ only in name and monitors: run i
          // of each is one drive, simulated once with every variant's
          // monitor stack observing it (GridDrive). Detection rates across
          // monitors (and the undefended control) therefore compare the
          // exact same attacks. With the default single undefended variant
          // this reduces to the historical seed-per-spec convention.
          const std::uint64_t cell_seed = seed_ + seeded_cells_ * 1000;
          ++seeded_cells_;
          for (const std::string& monitor : monitors_) {
            CampaignSpec spec;
            spec.name = spec_name(scenario, vector, mode);
            spec.scenario = scenario;
            spec.vector = vector;
            spec.mode = mode;
            spec.runs = runs_;
            spec.seed = cell_seed;
            if (!monitor.empty()) {
              spec.monitors = {monitor};
              spec.name += "-" + monitor;
            }
            if (base_params_ || !sweeps_.empty()) {
              sim::ScenarioParams p =
                  base_params_ ? *base_params_ : registry.defaults(scenario);
              for (std::size_t a = 0; a < sweeps_.size(); ++a) {
                const double value = sweeps_[a].second[idx[a]];
                sim::set_scenario_param(p, sweeps_[a].first, value);
                spec.name += "-" + sweeps_[a].first + "=" + fmt_value(value);
              }
              spec.params = p;
            }
            specs_.push_back(std::move(spec));
          }
          // Advance the sweep odometer (innermost axis fastest).
          bool wrapped = sweeps_.empty();
          for (std::size_t a = sweeps_.size(); !wrapped && a > 0;) {
            --a;
            if (++idx[a] < sweeps_[a].second.size()) break;
            idx[a] = 0;
            wrapped = a == 0;
          }
          if (wrapped) break;
        }
      }
    }
  }
  // Block-local state resets; scenario/vector/mode axes and runs/seed
  // persist so chained blocks only restate what changes.
  sweeps_.clear();
  base_params_.reset();
  dirty_ = false;
}

CampaignGridBuilder& CampaignGridBuilder::add_grid() {
  flush();
  return *this;
}

std::vector<CampaignSpec> CampaignGridBuilder::build() {
  if (dirty_ || specs_.empty()) flush();  // empty build throws in flush()
  return std::move(specs_);
}

}  // namespace rt::experiments
