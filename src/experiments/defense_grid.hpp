#pragma once

#include <string>
#include <vector>

#include "experiments/campaign.hpp"

namespace rt::experiments {

/// Configuration of the attack-vs-defense evaluation grid: every cell is a
/// <scenario family, natural vector, attack mode, monitor> campaign. How the
/// grid runs (threads, workers, cache, oracles) is the executor's business,
/// not the config's: see run_defense_grid.
struct DefenseGridConfig {
  /// Scenario families (registry keys). Empty = every registered family.
  std::vector<std::string> scenarios{};
  /// Monitors (defense registry keys; "" = the undefended cell). Empty =
  /// every registered monitor.
  std::vector<std::string> monitors{};
  /// Attack conditions per cell. Golden rows measure the false-positive
  /// rate on no-attack baselines; R rows need trained oracles.
  std::vector<AttackMode> modes{AttackMode::kRobotack, AttackMode::kNoSh,
                                AttackMode::kGolden};
  int runs{8};
  std::uint64_t seed{20200613};
};

/// One aggregated cell of the matrix.
struct DefenseCell {
  std::string campaign;  ///< full spec name
  std::string scenario;
  std::string vector_name;
  std::string mode;
  std::string monitor;  ///< "" for the undefended cell
  int n{0};
  int triggered{0};
  int detected{0};
  int false_alarms{0};
  double detection_rate{0.0};
  double false_alarm_rate{0.0};
  /// Median launch-to-first-alert latency (camera frames); -1 = none.
  double median_frames_to_detection{-1.0};
  double eb_rate{0.0};
  double crash_rate{0.0};
};

/// The full grid, in campaign-spec order (scenario-major, then mode,
/// then monitor).
struct DefenseGrid {
  std::vector<DefenseCell> cells;

  /// Stable CSV schema (matches `csv_rows` column for column).
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;
};

/// Builds the attack-vs-defense matrix and runs it as one batch on the
/// caller's executor (e.g. rt::service::CampaignService::executor(), whose
/// runner supplies the loop config and the oracles R rows need): for every
/// scenario family its natural attack vector (from the victim-geometry
/// metadata, see transfer_vector_for) is crossed with the configured modes
/// and monitors. Deterministic for a fixed config on any conforming
/// executor — monitors consume no randomness and every run's streams are
/// counter-based.
[[nodiscard]] DefenseGrid run_defense_grid(const DefenseGridConfig& cfg,
                                           const GridExecutor& executor);

}  // namespace rt::experiments
