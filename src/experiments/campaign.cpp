#include "experiments/campaign.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/summary.hpp"

namespace rt::experiments {

namespace {

/// Registered once per process; the handles themselves are trivially
/// copyable pointer wrappers, so the per-drive cost is two relaxed
/// fetch_adds.
struct DriveCounters {
  obs::Counter cells;
  obs::Counter drives;
};

const DriveCounters& drive_counters() {
  static const DriveCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return DriveCounters{
        reg.counter("rt_campaign_cells_total",
                    "Campaign cells delivered (one per member of each "
                    "drive)"),
        reg.counter("rt_campaign_drives_total",
                    "Closed-loop drives simulated")};
  }();
  return c;
}

/// What the members of one drive share: every field of the spec but its
/// name, its run count and its monitors, as canonical bytes.
std::string drive_key(const CampaignSpec& spec) {
  CampaignSpec key = spec;
  key.name.clear();
  key.runs = 0;
  key.monitors.clear();
  return serialize_spec(key);
}

/// Per spec, the lowest index of a spec with the same drive key.
std::vector<std::size_t> drive_classes(const std::vector<CampaignSpec>& specs) {
  std::map<std::string, std::size_t> first;
  std::vector<std::size_t> classes;
  classes.reserve(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    classes.push_back(first.try_emplace(drive_key(specs[s]), s).first->second);
  }
  return classes;
}

/// Groups cells into drives: one per (drive class, run index), ordered by
/// its first cell, members ascending.
std::vector<GridDrive> group_drives(const std::vector<std::size_t>& classes,
                                    const std::vector<GridCell>& cells,
                                    std::vector<std::size_t> cell_indices) {
  std::sort(cell_indices.begin(), cell_indices.end());
  std::map<std::pair<std::size_t, int>, std::size_t> drive_of;
  std::vector<GridDrive> drives;
  for (const std::size_t ci : cell_indices) {
    const GridCell& c = cells[ci];
    const auto [it, fresh] =
        drive_of.try_emplace({classes[c.spec], c.run}, drives.size());
    if (fresh) drives.emplace_back();
    drives[it->second].push_back(ci);
  }
  return drives;
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
  return std::move(run_drive({&spec}, run_index).front());
}

std::vector<RunResult> CampaignRunner::run_drive(
    const std::vector<const CampaignSpec*>& members, int run_index) const {
  if (members.empty()) {
    throw std::invalid_argument("run_drive: a drive needs a member");
  }
  const CampaignSpec& spec = *members.front();
  if (members.size() > 1) {
    const std::string key = drive_key(spec);
    for (const CampaignSpec* member : members) {
      if (drive_key(*member) != key) {
        throw std::invalid_argument("run_drive: '" + member->name +
                                    "' does not share the drive of '" +
                                    spec.name + "'");
      }
    }
  }
  RT_TRACE_SPAN("campaign_cell", "campaign",
                static_cast<std::uint64_t>(run_index), "run");
  const DriveCounters& counters = drive_counters();
  counters.drives.inc();
  counters.cells.inc(members.size());
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
  std::vector<std::vector<std::string>> stacks;
  stacks.reserve(members.size());
  for (const CampaignSpec* member : members) stacks.push_back(member->monitors);
  ClosedLoop loop(scenario, cfg, loop_seed);
  loop.set_attacker(make_attacker(spec, attacker_seed));
  return loop.run_members(stacks);
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

void count_merged_cells(std::uint64_t cells, std::uint64_t drives) {
  const DriveCounters& counters = drive_counters();
  counters.cells.inc(cells);
  counters.drives.inc(drives);
}

std::vector<GridCell> grid_cells(const std::vector<CampaignSpec>& specs) {
  std::vector<GridCell> cells;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int i = 0; i < specs[s].runs; ++i) cells.push_back({s, i});
  }
  return cells;
}

std::vector<GridDrive> grid_drives(const std::vector<CampaignSpec>& specs) {
  const std::vector<GridCell> cells = grid_cells(specs);
  std::vector<std::size_t> all(cells.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return group_drives(drive_classes(specs), cells, std::move(all));
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
      drive_class_(drive_classes(specs)),
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

std::vector<GridDrive> GridSlots::drives(
    std::vector<std::size_t> cell_indices) const {
  return group_drives(drive_class_, cells_, std::move(cell_indices));
}

std::vector<RunResult> GridSlots::simulate(const CampaignRunner& runner,
                                           const GridDrive& drive) const {
  std::vector<const CampaignSpec*> members;
  members.reserve(drive.size());
  for (const std::size_t ci : drive) {
    members.push_back(&out_.results[cells_[ci].spec].spec);
  }
  return runner.run_drive(members, cells_[drive.front()].run);
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
  const std::vector<GridDrive> drives = this->drives(cell_indices);
  if (drives.empty()) return;
  std::mutex failure_mutex;
  runtime::ThreadPool pool(threads);
  pool.parallel_for(static_cast<int>(drives.size()), [&](int i) {
    if (deadline_passed(deadline)) return;  // stop at the drive boundary
    const GridDrive& drive = drives[static_cast<std::size_t>(i)];
    try {
      std::vector<RunResult> runs = simulate(runner, drive);
      for (std::size_t m = 0; m < drive.size(); ++m) {
        fill(drive[m], std::move(runs[m]));
      }
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
