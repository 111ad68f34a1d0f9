#include "experiments/campaign.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "experiments/campaign_grid.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/summary.hpp"

namespace rt::experiments {

namespace {

/// Registered once per process; the handle itself is a trivially copyable
/// pointer wrapper, so the per-cell cost is one relaxed fetch_add.
const obs::Counter& campaign_cells_counter() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter(
      "rt_campaign_cells_total",
      "Campaign cells (individual closed-loop runs) executed in-process");
  return c;
}

}  // namespace

int CampaignResult::eb_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.eb; }));
}

int CampaignResult::crash_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.crash; }));
}

int CampaignResult::triggered_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.attack.triggered; }));
}

int CampaignResult::ids_flagged_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.ids_flagged; }));
}

double CampaignResult::eb_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(eb_count()) /
                            static_cast<double>(runs.size());
}

double CampaignResult::crash_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(crash_count()) /
                            static_cast<double>(runs.size());
}

double CampaignResult::median_k() const {
  std::vector<double> ks;
  for (const auto& r : runs) {
    if (r.attack.triggered) ks.push_back(r.attack.planned_k);
  }
  return ks.empty() ? 0.0 : stats::median(ks);
}

std::vector<double> CampaignResult::k_primes() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.attack.triggered && r.attack.k_prime >= 0 &&
        r.attack.vector != core::AttackVector::kDisappear) {
      out.push_back(r.attack.k_prime);
    }
  }
  return out;
}

std::vector<double> CampaignResult::min_deltas() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.attack.triggered) out.push_back(r.min_delta_since_attack);
  }
  return out;
}

int CampaignResult::detected_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.defense.detected; }));
}

double CampaignResult::detection_rate() const {
  const int triggered = triggered_count();
  return triggered == 0 ? 0.0
                        : static_cast<double>(detected_count()) /
                              static_cast<double>(triggered);
}

int CampaignResult::false_alarm_count() const {
  return static_cast<int>(std::count_if(
      runs.begin(), runs.end(), [](const RunResult& r) {
        return r.defense.flagged && !r.defense.detected;
      }));
}

double CampaignResult::false_alarm_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(false_alarm_count()) /
                            static_cast<double>(runs.size());
}

std::vector<double> CampaignResult::frames_to_detection() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.defense.detected) {
      out.push_back(static_cast<double>(r.defense.frames_to_detection));
    }
  }
  return out;
}

double CampaignResult::median_frames_to_detection() const {
  const auto frames = frames_to_detection();
  return frames.empty() ? -1.0 : stats::median(frames);
}

std::unique_ptr<core::Robotack> CampaignRunner::make_attacker(
    const CampaignSpec& spec, std::uint64_t run_seed) const {
  if (spec.mode == AttackMode::kGolden) return nullptr;

  core::TimingPolicy timing = core::TimingPolicy::kSafetyHijacker;
  switch (spec.mode) {
    case AttackMode::kRobotack:
      timing = core::TimingPolicy::kSafetyHijacker;
      break;
    case AttackMode::kNoSh:
      timing = core::TimingPolicy::kRandomAfterMatch;
      break;
    case AttackMode::kRandomBaseline:
      timing = core::TimingPolicy::kRandomUnconditional;
      break;
    case AttackMode::kGolden:
      break;
  }

  core::RobotackConfig cfg =
      make_attacker_config(base_, spec.vector, timing);
  if (spec.mode == AttackMode::kRandomBaseline) {
    cfg.randomize_vector = true;
    cfg.randomize_target = true;
  }
  auto attacker = std::make_unique<core::Robotack>(
      cfg, base_.camera, base_.noise, base_.mot, run_seed);
  if (spec.mode == AttackMode::kRobotack) {
    for (const auto& [v, oracle] : oracles_) {
      attacker->set_oracle(v, oracle);
    }
  }
  return attacker;
}

RunResult CampaignRunner::run_one(const CampaignSpec& spec,
                                  int run_index) const {
  RT_TRACE_SPAN("campaign_cell", "campaign",
                static_cast<std::uint64_t>(run_index), "run");
  campaign_cells_counter().inc();
  // Counter-based: stream k is a pure function of (spec.seed, k), with no
  // parent generator shared between runs. This is what makes the parallel
  // scheduler's results independent of thread count and execution order.
  stats::Rng run_rng = stats::Rng::from_stream(
      spec.seed, static_cast<std::uint64_t>(run_index) + 1);
  const auto scenario_seed = run_rng.engine()();
  const auto loop_seed = run_rng.engine()();
  const auto attacker_seed = run_rng.engine()();

  stats::Rng scenario_rng(scenario_seed);
  const auto& registry = sim::ScenarioRegistry::global();
  sim::Scenario scenario =
      spec.params ? registry.make(spec.scenario, *spec.params, scenario_rng)
                  : registry.make(spec.scenario, scenario_rng);

  LoopConfig cfg = base_;
  cfg.keep_timeline = false;
  cfg.monitors = spec.monitors;
  ClosedLoop loop(scenario, cfg, loop_seed);
  loop.set_attacker(make_attacker(spec, attacker_seed));
  return loop.run();
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  CampaignResult result;
  result.spec = spec;
  result.runs.reserve(static_cast<std::size_t>(spec.runs));
  for (int i = 0; i < spec.runs; ++i) {
    result.runs.push_back(run_one(spec, i));
  }
  return result;
}

CampaignScheduler::CampaignScheduler(const CampaignRunner& runner,
                                     unsigned threads)
    : runner_(runner),
      threads_(threads == 0 ? runtime::ThreadPool::default_threads()
                            : threads) {}

std::vector<GridCell> grid_cells(const std::vector<CampaignSpec>& specs) {
  std::vector<GridCell> cells;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int i = 0; i < specs[s].runs; ++i) cells.push_back({s, i});
  }
  return cells;
}

std::vector<CampaignResult> GridOutcome::complete_or_throw() && {
  if (first_failure) std::rethrow_exception(first_failure);
  if (!errors.empty()) {
    throw std::runtime_error("grid run incomplete: " +
                             errors.front().message);
  }
  return std::move(results);
}

GridSlots::GridSlots(const std::vector<CampaignSpec>& specs,
                     CampaignComplete on_complete)
    : cells_(grid_cells(specs)),
      filled_(cells_.size(), 0),
      missing_(specs.size()),
      on_complete_(std::move(on_complete)) {
  out_.results.resize(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const int runs = std::max(0, specs[s].runs);
    out_.results[s].spec = specs[s];
    out_.results[s].runs.resize(static_cast<std::size_t>(runs));
    missing_[s].store(runs);
    // A campaign with no runs has no cell to land: it is complete already.
    if (runs == 0 && on_complete_) on_complete_(s, out_.results[s]);
  }
}

std::vector<std::size_t> GridSlots::unfilled() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!filled_[i]) out.push_back(i);
  }
  return out;
}

void GridSlots::fill(std::size_t cell, RunResult run) {
  const GridCell& c = cells_[cell];
  out_.results[c.spec].runs[static_cast<std::size_t>(c.run)] = std::move(run);
  filled_[cell] = 1;
  // The decrement orders every other thread's slot writes before the fill
  // that lands the last cell hands the campaign over.
  if (missing_[c.spec].fetch_sub(1) == 1 && on_complete_) {
    on_complete_(c.spec, out_.results[c.spec]);
  }
}

void GridSlots::run(const CampaignRunner& runner,
                    const std::vector<std::size_t>& cell_indices,
                    unsigned threads, const GridDeadline& deadline) {
  if (cell_indices.empty()) return;
  std::mutex failure_mutex;
  runtime::ThreadPool pool(threads);
  pool.parallel_for(static_cast<int>(cell_indices.size()), [&](int i) {
    if (deadline_passed(deadline)) return;  // stop at the cell boundary
    const std::size_t ci = cell_indices[static_cast<std::size_t>(i)];
    const GridCell& c = cells_[ci];
    try {
      fill(ci, runner.run_one(out_.results[c.spec].spec, c.run));
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!out_.first_failure) out_.first_failure = std::current_exception();
    }
  });
}

GridOutcome GridSlots::finish(bool deadline_expired) && {
  std::vector<int> missing(out_.results.size(), 0);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (!filled_[i]) ++missing[cells_[i].spec];
  }
  for (std::size_t s = 0; s < missing.size(); ++s) {
    if (missing[s] == 0) continue;
    CampaignError err{s, CampaignErrorCode::kExecutionFailed,
                      "campaign run failed"};
    if (deadline_expired) {
      err.code = CampaignErrorCode::kDeadlineExceeded;
      err.message = "deadline expired with " + std::to_string(missing[s]) +
                    "/" + std::to_string(out_.results[s].runs.size()) +
                    " cells missing";
    } else if (out_.first_failure) {
      try {
        std::rethrow_exception(out_.first_failure);
      } catch (const std::exception& ex) {
        err.message = ex.what();
      } catch (...) {
      }
    }
    // A result is complete or absent, never silently partial: zero-filled
    // RunResults would parse as real data.
    out_.results[s].runs.clear();
    out_.errors.push_back(std::move(err));
  }
  return std::move(out_);
}

GridOutcome CampaignScheduler::run_all_checked(
    const std::vector<CampaignSpec>& specs, const GridDeadline& deadline,
    CampaignComplete on_complete) const {
  GridSlots slots(specs, std::move(on_complete));
  slots.run(runner_, slots.unfilled(), threads_, deadline);
  return std::move(slots).finish(deadline_passed(deadline));
}

std::vector<CampaignResult> CampaignScheduler::run_all(
    const std::vector<CampaignSpec>& specs) const {
  return run_all_checked(specs).complete_or_throw();
}

std::vector<CampaignSpec> table2_campaigns(int runs_per,
                                           std::uint64_t seed) {
  using core::AttackVector;
  return CampaignGridBuilder()
      .runs(runs_per)
      .seed(seed)
      .vectors({AttackVector::kDisappear, AttackVector::kMoveOut})
      .scenarios({"DS-1", "DS-2"})
      .add_grid()
      .vectors({AttackVector::kMoveIn})
      .scenarios({"DS-3", "DS-4"})
      .add_grid()
      .modes({AttackMode::kRandomBaseline})
      .vectors({AttackVector::kMoveOut})
      .scenarios({"DS-5"})
      .build();
}

std::vector<CampaignSpec> no_sh_campaigns(int runs_per, std::uint64_t seed) {
  using core::AttackVector;
  return CampaignGridBuilder()
      .runs(runs_per)
      .seed(seed)
      .modes({AttackMode::kNoSh})
      .vectors({AttackVector::kDisappear, AttackVector::kMoveOut})
      .scenarios({"DS-1", "DS-2"})
      .add_grid()
      .vectors({AttackVector::kMoveIn})
      .scenarios({"DS-3", "DS-4"})
      .build();
}

}  // namespace rt::experiments
