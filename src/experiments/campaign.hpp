#pragma once

#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "experiments/closed_loop.hpp"
#include "sim/scenario_registry.hpp"

namespace rt::experiments {

/// Attack condition of a campaign (a set of runs sharing one scenario and
/// one condition) — Table II's row structure.
enum class AttackMode : std::uint8_t {
  kGolden,          ///< no malware (baseline behaviour / sanity)
  kRobotack,        ///< full RoboTack ("R")
  kNoSh,            ///< RoboTack without the safety hijacker ("R w/o SH")
  kRandomBaseline,  ///< DS-5 style random attack ("Baseline-Random")
};

[[nodiscard]] constexpr const char* to_string(AttackMode m) {
  switch (m) {
    case AttackMode::kGolden:
      return "Golden";
    case AttackMode::kRobotack:
      return "R";
    case AttackMode::kNoSh:
      return "R w/o SH";
    case AttackMode::kRandomBaseline:
      return "Baseline-Random";
  }
  return "?";
}

/// One experimental campaign: N seeded runs of <scenario, vector, mode>.
/// `scenario` is a ScenarioRegistry key; `params`, when set, overrides the
/// family defaults for every run (nullopt = paper defaults).
struct CampaignSpec {
  std::string name;  ///< e.g. "DS-1-Disappear-R"
  std::string scenario{"DS-1"};
  core::AttackVector vector{core::AttackVector::kDisappear};
  AttackMode mode{AttackMode::kRobotack};
  int runs{120};
  std::uint64_t seed{1234};
  std::optional<sim::ScenarioParams> params{};
  /// Runtime attack monitors deployed on every run of the campaign
  /// (defense::MonitorRegistry keys; empty = undefended, the historical
  /// behaviour). Monitors are passive, so the driving outcomes of a
  /// campaign are identical with or without them.
  std::vector<std::string> monitors{};
};

/// Aggregated campaign outcome (plus every per-run result).
struct CampaignResult {
  CampaignSpec spec;
  std::vector<RunResult> runs;

  [[nodiscard]] int n() const { return static_cast<int>(runs.size()); }
  [[nodiscard]] int eb_count() const;
  [[nodiscard]] int crash_count() const;
  [[nodiscard]] int triggered_count() const;
  [[nodiscard]] int ids_flagged_count() const;
  [[nodiscard]] double eb_rate() const;
  [[nodiscard]] double crash_rate() const;
  /// Median planned K over triggered runs (Table II's "K" column).
  [[nodiscard]] double median_k() const;
  /// K' samples (shift frames) over triggered Move_* runs (Fig. 7).
  [[nodiscard]] std::vector<double> k_primes() const;
  /// Min safety potential since attack start, per triggered run (Fig. 6).
  [[nodiscard]] std::vector<double> min_deltas() const;

  // Defense outcomes (all zero / empty when the spec deployed no monitors).
  /// Runs whose triggered attack was flagged at/after launch.
  [[nodiscard]] int detected_count() const;
  /// detected / triggered (0 when nothing triggered) — the headline
  /// detection rate of the attack-vs-defense matrix.
  [[nodiscard]] double detection_rate() const;
  /// Runs the stack flagged without a post-launch attack to blame: golden
  /// runs, untriggered runs, or alerts that predate the launch.
  [[nodiscard]] int false_alarm_count() const;
  /// false alarms / n — the false-positive rate on no-attack baselines.
  [[nodiscard]] double false_alarm_rate() const;
  /// Launch-to-first-alert latency (camera frames) per detected run.
  [[nodiscard]] std::vector<double> frames_to_detection() const;
  /// Median detection latency; -1 when nothing was detected.
  [[nodiscard]] double median_frames_to_detection() const;
};

/// Why a campaign in a grid request could not be completed. Typed so
/// clients can branch on the cause without parsing prose; the message is
/// diagnostic detail only.
enum class CampaignErrorCode : std::uint8_t {
  kDeadlineExceeded,  ///< the request deadline expired at a cell boundary
  kExecutionFailed,   ///< a run raised; retries/fallback could not finish
};

[[nodiscard]] constexpr const char* to_string(CampaignErrorCode c) {
  switch (c) {
    case CampaignErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case CampaignErrorCode::kExecutionFailed:
      return "execution-failed";
  }
  return "?";
}

/// Per-campaign typed error record: spec `spec_index` of the request could
/// not be completed. A campaign either appears complete in the results or
/// carries one of these — never a silently partial result.
struct CampaignError {
  std::size_t spec_index{0};
  CampaignErrorCode code{CampaignErrorCode::kExecutionFailed};
  std::string message;
};

/// A checked grid run, the one result type of every grid executor (the
/// in-process scheduler, the multi-process sharder, the campaign service):
/// complete campaigns in `results` (spec order; an errored spec's `runs` is
/// empty, never partially filled) and one typed error per incomplete
/// campaign in `errors` (spec_index ascending).
struct GridOutcome {
  std::vector<CampaignResult> results;
  std::vector<CampaignError> errors;
  /// First exception a cell raised, when one caused the errors.
  std::exception_ptr first_failure{};

  /// The results of a run without a deadline: rethrows the first cell
  /// exception (or throws on any other error), so callers get complete
  /// campaigns or an exception, never a silently partial grid.
  [[nodiscard]] std::vector<CampaignResult> complete_or_throw() &&;
};

/// Optional hard deadline of a grid run: execution stops at the next cell
/// boundary once it has passed. nullopt = unbounded.
using GridDeadline = std::optional<std::chrono::steady_clock::time_point>;

[[nodiscard]] inline bool deadline_passed(const GridDeadline& deadline) {
  return deadline && std::chrono::steady_clock::now() >= *deadline;
}

/// The trained per-vector oracles RoboTack deploys with.
using OracleSet =
    std::map<core::AttackVector, std::shared_ptr<core::SafetyOracle>>;

/// Runs campaigns over a shared loop configuration and oracle set.
///
/// Every run's randomness is a pure function of (spec.seed, run_index) via
/// `stats::Rng::from_stream`, so `run_one` is thread-safe and a campaign's
/// results are identical whether its runs execute serially, out of order,
/// or on any number of threads (see CampaignScheduler). The oracles are
/// shared (not cloned) across concurrent runs; that is safe because
/// inference forwards mutate nothing (see SafetyOracle::predict).
class CampaignRunner {
 public:
  CampaignRunner(LoopConfig base, OracleSet oracles)
      : base_(std::move(base)), oracles_(std::move(oracles)) {}

  [[nodiscard]] CampaignResult run(const CampaignSpec& spec) const;

  /// One run of the campaign: run_index in [0, spec.runs). Const and
  /// re-entrant; callable concurrently for distinct (spec, index) pairs.
  [[nodiscard]] RunResult run_one(const CampaignSpec& spec,
                                  int run_index) const;

  /// Builds the attacker for one run of a campaign (exposed for tests).
  [[nodiscard]] std::unique_ptr<core::Robotack> make_attacker(
      const CampaignSpec& spec, std::uint64_t run_seed) const;

  [[nodiscard]] const LoopConfig& loop_config() const { return base_; }
  [[nodiscard]] const OracleSet& oracles() const { return oracles_; }

 private:
  LoopConfig base_;
  OracleSet oracles_;
};

/// One <spec, run_index> cell of a campaign grid — the unit the in-process
/// scheduler, the multi-process sharder (rt::service) and the result cache
/// all operate on.
struct GridCell {
  std::size_t spec{0};
  int run{0};
};

/// Flattens a grid into its cell list, spec-major (all runs of spec 0, then
/// spec 1, ...) — the enumeration order run_all has always used, so a cell
/// index addresses the same <spec, run> pair in every process of a sharded
/// run.
[[nodiscard]] std::vector<GridCell> grid_cells(
    const std::vector<CampaignSpec>& specs);

/// The slots one grid run fills: every campaign's `runs` pre-sized and one
/// filled flag per grid_cells() index. Each cell writes only its own slot,
/// so any mix of executors (a thread pool, forked workers, both) that fills
/// every cell reassembles bit-identical campaigns, and finish() is the one
/// place where unfilled cells become typed errors.
class GridSlots {
 public:
  explicit GridSlots(const std::vector<CampaignSpec>& specs);

  [[nodiscard]] const std::vector<GridCell>& cells() const { return cells_; }
  [[nodiscard]] bool filled(std::size_t cell) const {
    return filled_[cell] != 0;
  }
  /// Indices of the cells not filled yet, ascending.
  [[nodiscard]] std::vector<std::size_t> unfilled() const;
  /// Stores one cell's result. Distinct cells may be filled concurrently.
  void fill(std::size_t cell, RunResult run);

  /// Runs the listed cells over a `threads`-thread pool (0 = one per core),
  /// each into its slot. Cells not yet started when `deadline` passes are
  /// skipped; a cell that throws stays unfilled, and the first exception is
  /// kept for finish().
  void run(const CampaignRunner& runner,
           const std::vector<std::size_t>& cell_indices, unsigned threads,
           const GridDeadline& deadline);

  /// Hands the results over. Every campaign with an unfilled cell loses its
  /// runs and becomes one CampaignError: kDeadlineExceeded when
  /// `deadline_expired`, else kExecutionFailed with the first exception's
  /// text as its message.
  [[nodiscard]] GridOutcome finish(bool deadline_expired) &&;

 private:
  std::vector<GridCell> cells_;
  std::vector<char> filled_;
  GridOutcome out_;
};

/// Campaign-batch executor: runs every spec and returns results in spec
/// order. Grid harnesses (defense grid, scenario search) run only through
/// the one their caller passes, so the caller owns the single runner (loop
/// config + oracles) a grid runs on. Drivers pass
/// rt::service::CampaignService::executor(), whose cache and forked
/// workers the harness never sees; tests may wrap a CampaignScheduler.
using GridExecutor = std::function<std::vector<CampaignResult>(
    const std::vector<CampaignSpec>&)>;

/// Batches whole campaign grids (e.g. all of Table II) over a fixed thread
/// pool. Every <spec, run_index> cell becomes one task; each task writes
/// its RunResult into a pre-assigned slot, so aggregates are bit-identical
/// at any thread count and specs of very different sizes still pack the
/// pool densely (no per-campaign barrier).
class CampaignScheduler {
 public:
  /// `threads == 0` means runtime::ThreadPool::default_threads().
  explicit CampaignScheduler(const CampaignRunner& runner,
                             unsigned threads = 0);

  /// Runs every spec to completion and returns results in spec order;
  /// rethrows the first exception a run raised.
  [[nodiscard]] std::vector<CampaignResult> run_all(
      const std::vector<CampaignSpec>& specs) const;

  /// Like run_all, but stops at `deadline` and degrades instead of
  /// throwing: campaigns that could not be completed come back as typed
  /// errors next to the completed results.
  [[nodiscard]] GridOutcome run_all_checked(
      const std::vector<CampaignSpec>& specs,
      const GridDeadline& deadline = {}) const;

  [[nodiscard]] unsigned threads() const { return threads_; }

 private:
  const CampaignRunner& runner_;
  unsigned threads_;
};

/// The seven campaigns of Table II (see campaign_grid.hpp for the builder
/// these are defined with).
[[nodiscard]] std::vector<CampaignSpec> table2_campaigns(int runs_per,
                                                         std::uint64_t seed);

/// The "R w/o SH" twins of the six attack campaigns (Fig. 6 comparison).
[[nodiscard]] std::vector<CampaignSpec> no_sh_campaigns(int runs_per,
                                                        std::uint64_t seed);

}  // namespace rt::experiments
