#pragma once

#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/sh_training.hpp"

namespace rt::experiments {

/// One training cell of the transfer matrix: a named scenario curriculum.
struct TransferTrainSet {
  std::string name;                   ///< row label (default: the family)
  std::vector<std::string> families;  ///< ScenarioRegistry keys
};

/// Configuration of a train-on-X / eval-on-Y oracle transfer study.
struct TransferConfig {
  /// Row cells. Empty = one single-family train set per eval family.
  std::vector<TransferTrainSet> train_sets{};
  /// Column families. Empty = every family in the global registry.
  std::vector<std::string> eval_families{};
  /// Launch grid + nn hyper-parameters shared by every cell (`curricula`
  /// is set per family by the harness, and `threads` is unused: the
  /// matrix runs on `TransferConfig::threads`).
  ShTrainingConfig sh{};
  /// Fraction of each family's launches held out for evaluation (the
  /// remainder trains the oracles of the train sets containing the family).
  double holdout_fraction{0.4};
  /// |predicted - ground-truth| <= tolerance counts as accurate (§IV-B:
  /// ~5 m for vehicles, ~1.5 m for pedestrians).
  double tolerance_m{5.0};
  /// Closed-loop R-mode runs per (train set, eval family) cell with the
  /// trained oracle deployed through the CampaignScheduler (0 disables the
  /// behavioral columns).
  int campaign_runs{8};
  /// 0 = one thread per core. Results are thread-count-invariant.
  unsigned threads{0};
};

/// One (train set, eval family) cell of the matrix.
struct TransferCell {
  std::string train_set;
  std::string eval_family;
  // Predictive transfer over the family's held-out launches.
  int n_eval{0};          ///< held-out launches scored
  double accuracy{0.0};   ///< fraction within tolerance_m
  double mae_m{0.0};      ///< mean |predicted - ground-truth| delta (m)
  double ttc_err_s{0.0};  ///< mae divided by the launch closing speed (s)
  // Behavioral transfer: the oracle deployed in full R mode on the family.
  int campaign_n{0};
  double triggered_rate{0.0};
  double eb_rate{0.0};
  double crash_rate{0.0};
};

/// Full matrix, row-major over (train_sets × eval_families).
struct TransferMatrix {
  std::vector<std::string> train_sets;
  std::vector<std::string> eval_families;
  std::vector<TransferCell> cells;

  /// Throws std::out_of_range when either label is unknown.
  [[nodiscard]] const TransferCell& at(const std::string& train_set,
                                       const std::string& eval_family) const;

  /// Stable CSV schema (matches `csv_rows` column for column).
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;
};

/// The attack vector a family's launches are scripted (and its campaigns
/// attacked) with, read from the family's `sim::ScenarioSpec` victim-
/// geometry metadata: out-of-corridor victims (DS-3/DS-4's parking-lane
/// "keep" geometries, per Table I) take Move_In, in-corridor victims take
/// Move_Out. User-registered families resolve automatically at
/// registration — no key string-matching.
[[nodiscard]] core::AttackVector transfer_vector_for(
    const std::string& family);

/// Trains one oracle per train set (on the train split of each member
/// family's launch grid), scores every oracle on the held-out split of
/// every eval family, and — when `campaign_runs > 0` — deploys each oracle
/// in closed-loop R-mode campaigns on every eval family through the
/// CampaignScheduler. Deterministic for a fixed config at any thread count.
[[nodiscard]] TransferMatrix run_transfer_matrix(const TransferConfig& cfg,
                                                 const LoopConfig& loop);

}  // namespace rt::experiments
