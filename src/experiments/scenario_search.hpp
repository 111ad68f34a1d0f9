#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "sim/invariants.hpp"
#include "sim/scenario_sampler.hpp"

namespace rt::experiments {

/// What run_scenario_search maximizes per sampled configuration.
enum class SearchObjective : std::uint8_t {
  /// crash_rate + 0.5 * eb_rate under attack: the classic "find the corner
  /// where the malware does the most damage".
  kAttackSuccess,
  /// Fraction of runs whose attack triggered, did damage (EB or crash) and
  /// still evaded every deployed monitor: corners where the defense stack
  /// of cfg.monitors is blind.
  kEvadeMonitors,
};

[[nodiscard]] constexpr const char* to_string(SearchObjective o) {
  switch (o) {
    case SearchObjective::kAttackSuccess:
      return "attack-success";
    case SearchObjective::kEvadeMonitors:
      return "evade-monitors";
  }
  return "?";
}

/// Clean-run verdict of one sampled scenario: the full invariant suite on
/// the canonical world plus one golden closed-loop pass.
struct CleanRunCheck {
  /// Structural + cruise-replay + closed-loop violations (empty = clean).
  sim::InvariantReport report;
  /// The golden run that was judged (timeline retained).
  RunResult golden;

  [[nodiscard]] bool ok() const { return report.ok(); }
};

/// Judges one sampled scenario as a *clean* world: structural and
/// cruise-replay invariants (sim/invariants.hpp), then one golden
/// (unattacked) closed-loop run with `base.monitors` deployed, which must
/// end collision-free, crash-free, inside the ego actuation envelope, and
/// without a single monitor alert (zero false positives on clean worlds).
/// Every violation carries the sample's spec string, so a failure is
/// replayable from `(template, seed)` alone.
[[nodiscard]] CleanRunCheck check_clean_run(const sim::SampledScenario& sample,
                                            const LoopConfig& base);

/// Configuration of the coverage-guided scenario search. How each round's
/// specs run is the executor's business, not the config's: see
/// run_scenario_search.
struct ScenarioSearchConfig {
  /// Templates to fuzz (registry keys). Empty = every registered family.
  std::vector<std::string> templates{};
  SearchObjective objective{SearchObjective::kAttackSuccess};
  /// Bandit rounds: each round allocates `samples_per_round` fresh samples
  /// across templates proportionally to the best score seen per template
  /// (plus a uniform exploration floor), then scores them on the parallel
  /// campaign engine.
  int rounds{4};
  int samples_per_round{12};
  /// Closed-loop runs per sampled configuration (one CampaignSpec each).
  int runs_per_sample{6};
  std::uint64_t seed{20200613};
  /// Attack condition scored by the search. kNoSh works on an executor
  /// whose runner has no oracles (no training), which keeps the bench
  /// driver hermetic.
  AttackMode mode{AttackMode::kNoSh};
  /// Monitor stack deployed on every scored run (defense registry keys).
  /// Required for kEvadeMonitors; optional context otherwise.
  std::vector<std::string> monitors{};
};

/// One evaluated sample on the search frontier.
struct SearchFrontierEntry {
  std::string template_key;
  std::uint64_t sample_seed{0};
  double score{0.0};
  double crash_rate{0.0};
  double eb_rate{0.0};
  double detection_rate{0.0};
  int runs{0};
  /// Full registrable spec (sim::SampledScenario::spec_string()).
  std::string spec;

  [[nodiscard]] std::string corpus_line() const {
    return template_key + " " + std::to_string(sample_seed);
  }
};

/// Outcome of a search: the per-template frontier (best sample each,
/// score-descending) plus every evaluated sample.
struct ScenarioSearchResult {
  SearchObjective objective{SearchObjective::kAttackSuccess};
  std::vector<SearchFrontierEntry> frontier;
  std::vector<SearchFrontierEntry> evaluated;
  /// Samples rejected by the structural pre-check before scoring.
  int rejected_samples{0};
  int total_runs{0};

  /// Stable CSV schema for the frontier (matches csv_rows).
  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;
};

/// Coverage-guided search over the sampled scenario space: a deterministic
/// multi-armed bandit over templates (allocation follows the best score
/// seen per template, with a uniform floor so no family starves) whose
/// every evaluation is a seeded campaign; each round's specs run as one
/// batch on the caller's executor (e.g.
/// rt::service::CampaignService::executor()). Fully reproducible: sample
/// seeds derive from (cfg.seed, template, counter) via FNV-1a, so the
/// result is identical on any conforming executor, and every frontier
/// entry is replayable from its corpus line.
[[nodiscard]] ScenarioSearchResult run_scenario_search(
    const ScenarioSearchConfig& cfg, const GridExecutor& executor);

}  // namespace rt::experiments
