#pragma once

#include <string>
#include <utility>
#include <vector>

#include "experiments/campaign.hpp"

namespace rt::experiments {

/// Fluent builder for campaign grids: the cross product of scenario keys ×
/// attack vectors × modes × monitors × parameter sweeps, with per-spec
/// seeds derived
/// from a base seed exactly as the historical hand-rolled tables did
/// (`seed + spec_index * 1000`).
///
///   auto specs = CampaignGridBuilder()
///                    .runs(60).seed(20200613)
///                    .scenarios({"DS-1", "cut-in"})
///                    .vectors({core::AttackVector::kMoveOut})
///                    .sweep("target_speed_kph", {20.0, 25.0, 30.0})
///                    .build();
///
/// `add_grid()` flushes the current axes into the spec list and lets the
/// next axis calls define a further block (seeds keep counting across
/// blocks), so heterogeneous tables like Table II are a chain of small
/// grids. `build()` flushes any pending block and returns everything.
///
/// Names follow the established convention: "<scenario>-<vector>-R",
/// "...-RwoSH", "<scenario>-Golden", "<scenario>-Baseline-Random", with
/// "-<param>=<value>" appended per sweep axis.
class CampaignGridBuilder {
 public:
  CampaignGridBuilder& scenarios(std::vector<std::string> keys);
  CampaignGridBuilder& vectors(std::vector<core::AttackVector> vectors);
  CampaignGridBuilder& modes(std::vector<AttackMode> modes);
  /// Monitor axis: one spec per key, each deploying that single runtime
  /// attack monitor, named "...-<monitor>". The empty string "" is the
  /// undefended cell (no suffix — the historical naming). Non-empty keys
  /// are validated eagerly against defense::MonitorRegistry::global().
  /// All monitor variants of one campaign cell share the cell's seed —
  /// monitors are passive, so their runs share one drive (simulated once
  /// by the grid executors, see GridDrive) and detection rates compare the
  /// exact same attacks. Default: one undefended cell, so existing grids
  /// are unchanged.
  CampaignGridBuilder& monitors(std::vector<std::string> keys);
  CampaignGridBuilder& runs(int n);
  CampaignGridBuilder& seed(std::uint64_t s);
  /// Base parameter overrides for the block; sweeps are applied on top.
  /// Without this (and without sweeps) specs use the family defaults.
  CampaignGridBuilder& params(sim::ScenarioParams base);
  /// Adds a sweep axis over a named ScenarioParams field (see
  /// sim::scenario_param_names). Multiple sweeps form a cross product.
  CampaignGridBuilder& sweep(std::string param, std::vector<double> values);

  /// Flushes the current axes as one grid block and starts the next.
  CampaignGridBuilder& add_grid();

  /// Flushes any pending block and returns all specs built so far.
  [[nodiscard]] std::vector<CampaignSpec> build();

 private:
  void flush();

  std::vector<std::string> scenarios_;
  std::vector<core::AttackVector> vectors_{core::AttackVector::kMoveOut};
  std::vector<AttackMode> modes_{AttackMode::kRobotack};
  std::vector<std::string> monitors_{std::string{}};
  int runs_{60};
  std::uint64_t seed_{1234};
  std::optional<sim::ScenarioParams> base_params_{};
  std::vector<std::pair<std::string, std::vector<double>>> sweeps_;
  bool dirty_{false};
  /// Campaign cells seeded so far (monitor variants share one cell seed;
  /// equals specs_.size() for the default single-variant monitor axis).
  std::size_t seeded_cells_{0};
  std::vector<CampaignSpec> specs_;
};

}  // namespace rt::experiments
