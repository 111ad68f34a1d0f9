#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/safety_oracle.hpp"
#include "defense/monitor_registry.hpp"
#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/defense_grid.hpp"
#include "experiments/transfer_matrix.hpp"
#include "nn/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "service/campaign_service.hpp"
#include "service/cell_cache.hpp"
#include "service/fault_injection.hpp"
#include "service/server.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/scenario_registry.hpp"
#include "stats/rng.hpp"

namespace rt::service {
namespace {

namespace fs = std::filesystem;
using experiments::AttackMode;
using experiments::CampaignResult;
using experiments::CampaignRunner;
using experiments::CampaignScheduler;
using experiments::CampaignSpec;
using experiments::LoopConfig;

/// Canonical bytes of a whole grid: the strongest possible equality (every
/// field of every run, bit-exact doubles, via the serde layer).
std::string grid_bytes(const std::vector<CampaignResult>& results) {
  std::string blob;
  for (const auto& r : results) {
    blob += experiments::serialize_campaign_result(r);
  }
  return blob;
}

/// Fresh per-test scratch dir under the gtest temp root.
std::string scratch_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Every registered scenario family × its natural vector, hermetic NoSh
/// mode (no oracles), `runs` runs each.
std::vector<CampaignSpec> family_grid(int runs, std::uint64_t seed) {
  experiments::CampaignGridBuilder builder;
  builder.runs(runs).seed(seed).modes({AttackMode::kNoSh});
  for (const auto& family : sim::ScenarioRegistry::global().keys()) {
    builder.scenarios({family})
        .vectors({experiments::transfer_vector_for(family)})
        .add_grid();
  }
  return builder.build();
}

CampaignSpec small_spec(const char* name = "DS-1-Disappear-RwoSH-t",
                        std::uint64_t seed = 4242) {
  return {name, "DS-1", core::AttackVector::kDisappear, AttackMode::kNoSh,
          2,    seed};
}

/// A small oracle trained on the synthetic monotone law
/// delta_{t+k} = delta - 0.3 k: enough to make R-mode runs trigger.
std::shared_ptr<core::SafetyOracle> synthetic_oracle() {
  auto oracle = std::make_shared<core::SafetyOracle>(77);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    const double delta = rng.uniform(0.0, 40.0);
    const double k = rng.uniform(3.0, 70.0);
    xs.push_back({delta, rng.uniform(-10.0, 0.0), rng.uniform(-1.0, 1.0),
                  rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), k});
    ys.push_back(delta - 0.3 * k);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 40;
  cfg.lr = 2e-3;
  oracle->train(nn::Dataset::from_samples(xs, ys), cfg);
  return oracle;
}

/// A copy of `oracle` whose first network weight is changed, made by a
/// save / edit / load round trip through `dir`.
std::shared_ptr<core::SafetyOracle> nudged_copy(
    const core::SafetyOracle& oracle, const std::string& dir) {
  const std::string path = dir + "/oracle.txt";
  oracle.save(path);
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // "dense <in> <out> <w0> ...": the first weight is the fourth token.
  std::size_t begin = text.find("dense ");
  for (int token = 0; token < 3; ++token) begin = text.find(' ', begin) + 1;
  text.replace(begin, text.find(' ', begin) - begin, "0.125");
  { std::ofstream(path, std::ios::trunc) << text; }
  auto copy = std::make_shared<core::SafetyOracle>(77);
  if (!copy->load(path)) throw std::runtime_error("cannot reload " + path);
  return copy;
}

CampaignSpec oracle_spec() {
  return {"DS-1-Disappear-R-t", "DS-1", core::AttackVector::kDisappear,
          AttackMode::kRobotack, 6, 5};
}

/// How far registry counters moved since construction. The registry is
/// process-wide and cumulative, so tests read deltas.
class CounterDelta {
 public:
  std::uint64_t operator()(const std::string& name) const {
    return obs::MetricsRegistry::global().snapshot().counter(name) -
           before_.counter(name);
  }
  /// rt_campaign_cache_<what>_total.
  std::uint64_t cache(const std::string& what) const {
    return (*this)("rt_campaign_cache_" + what + "_total");
  }

 private:
  obs::MetricsSnapshot before_ = obs::MetricsRegistry::global().snapshot();
};

// ------------------------------------------------- ShardedCampaignScheduler

TEST(ShardedScheduler, BitIdenticalToInProcessAtAnyWorkerCount) {
  // The tentpole contract: an 8-family grid forked over 1, 2 and 4 worker
  // processes reassembles bit-identically to the in-process scheduler —
  // every per-run double crosses the pipe as its raw bit pattern.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/1122);
  ASSERT_GE(specs.size(), 8u);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  for (unsigned workers : {1u, 2u, 4u}) {
    ShardOptions opts;
    opts.workers = workers;
    const ShardedCampaignScheduler sharded(runner, opts);
    const CounterDelta moved;
    const auto out = sharded.run_all_checked(specs, {});
    EXPECT_TRUE(out.errors.empty()) << workers << " workers";
    EXPECT_FALSE(out.first_failure) << workers << " workers";
    const auto& results = out.results;
    EXPECT_EQ(grid_bytes(results), reference) << workers << " workers";
    EXPECT_EQ(moved("rt_shard_forks_total"), workers);
    EXPECT_EQ(moved("rt_shard_worker_deaths_total"), 0u)
        << workers << " workers";
    EXPECT_EQ(moved("rt_shard_retry_waves_total"), 0u)
        << workers << " workers";
  }
}

TEST(ShardedScheduler, MoreWorkersThanCellsClampsAndCompletes) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::vector<CampaignSpec> specs{small_spec()};  // 2 cells
  ShardOptions opts;
  opts.workers = 16;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  EXPECT_EQ(moved("rt_shard_forks_total"), 2u);
  EXPECT_EQ(grid_bytes(results),
            grid_bytes(CampaignScheduler(runner, 1).run_all(specs)));
}

TEST(ShardedScheduler, EmptyGridReturnsEmptyResults) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const ShardedCampaignScheduler sharded(runner, {});
  const auto out = sharded.run_all_checked({}, {});
  EXPECT_TRUE(out.results.empty());
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
}

TEST(ShardedScheduler, WorkerDeathIsRetriedToIdenticalResults) {
  // A worker that dies mid-shard (here: _exit(42) after streaming one
  // cell) degrades to a re-run of its missing cells — never a hung parent,
  // never a hole, and the reassembled grid is still bit-identical.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/3344);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));

  ShardOptions opts;
  opts.workers = 2;
  opts.crash_shard = 0;
  opts.crash_after_cells = 1;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_GE(moved("rt_shard_worker_deaths_total"), 1u);
  EXPECT_GE(moved("rt_shard_retry_waves_total"), 1u);
}

TEST(ShardedScheduler, ExhaustedRetriesFallBackInProcess) {
  // max_retries == 0: the parent itself recovers the crashed shard's
  // missing cells, so results stay complete and identical regardless.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::vector<CampaignSpec> specs{small_spec("a", 1),
                                        small_spec("b", 2)};
  ShardOptions opts;
  opts.workers = 2;
  opts.max_retries = 0;
  opts.crash_shard = 1;
  opts.crash_after_cells = 0;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  EXPECT_EQ(grid_bytes(results),
            grid_bytes(CampaignScheduler(runner, 1).run_all(specs)));
  EXPECT_GE(moved("rt_shard_worker_deaths_total"), 1u);
  EXPECT_EQ(moved("rt_shard_retry_waves_total"), 0u);
  EXPECT_GT(moved("rt_shard_cells_recovered_in_process_total"), 0u);
}

TEST(ShardedScheduler, PollErrorMidWaveReRunsOnlyTheCellsNotReceived) {
  // One poll covers every worker pipe, so a failed poll cannot be pinned
  // on one worker: it ends every live stream. The cells merged before it
  // are kept; only the rest are re-run, here by the in-process fallback
  // (max_retries == 0), so every cell is counted once: merged or re-run.
  // Which poll lands mid-wave depends on when frames arrive, so the test
  // moves the failing poll along until one does.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/9911);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  std::uint64_t cells = 0;
  for (const auto& s : specs) cells += static_cast<std::uint64_t>(s.runs);

  ShardOptions opts;
  opts.workers = 2;
  opts.max_retries = 0;
  const ShardedCampaignScheduler sharded(runner, opts);
  bool mid_wave = false;
  for (int skip = 0; skip < 12 && !mid_wave; ++skip) {
    FaultPlan plan;
    plan.seed = 3;
    plan.rules.push_back(
        {FaultSite::kPipePoll, FaultType::kIoError, 1.0, 1, skip});
    const CounterDelta moved;
    experiments::GridOutcome out;
    {
      ArmedFaults armed(plan);
      out = sharded.run_all_checked(specs, {});
    }
    EXPECT_TRUE(out.errors.empty()) << "skip " << skip;
    EXPECT_FALSE(out.first_failure) << "skip " << skip;
    EXPECT_EQ(grid_bytes(out.results), reference) << "skip " << skip;
    EXPECT_EQ(moved("rt_campaign_cells_total"), cells) << "skip " << skip;
    const std::uint64_t rerun =
        moved("rt_shard_cells_recovered_in_process_total");
    mid_wave = rerun > 0 && rerun < cells;
  }
  EXPECT_TRUE(mid_wave) << "no failed poll landed mid-wave";
}

// ----------------------------------------------------------------- drives

/// A grid whose cells share drives: every family x {NoSh, Golden} x every
/// registered monitor, plus a seed shared by four specs that differ only
/// in name, runs and monitors (2 and 3 runs; a two-monitor stack and none)
/// and an exact duplicate of one of them, and a spec that differs from
/// them in its seed alone (a drive of its own).
std::vector<CampaignSpec> drive_grid(int runs, std::uint64_t seed) {
  experiments::CampaignGridBuilder builder;
  builder.runs(runs)
      .seed(seed)
      .modes({AttackMode::kNoSh, AttackMode::kGolden})
      .monitors(defense::MonitorRegistry::global().keys());
  for (const auto& family : sim::ScenarioRegistry::global().keys()) {
    builder.scenarios({family})
        .vectors({experiments::transfer_vector_for(family)})
        .add_grid();
  }
  std::vector<CampaignSpec> specs = builder.build();
  CampaignSpec shared = small_spec("shared-two-runs", seed + 7);
  shared.monitors = {"innovation-gate"};
  specs.push_back(shared);
  CampaignSpec longer = shared;
  longer.name = "shared-three-runs";
  longer.runs = 3;
  longer.monitors = {"sensor-consistency", "kinematics"};
  specs.push_back(longer);
  CampaignSpec bare = longer;
  bare.name = "shared-undefended";
  bare.monitors.clear();
  specs.push_back(bare);
  specs.push_back(shared);  // an exact duplicate
  CampaignSpec reseeded = shared;
  reseeded.name = "other-seed";
  reseeded.seed += 1;
  specs.push_back(reseeded);
  return specs;
}

/// serialize_run_result of run_one(spec, i) for every cell, spec-major.
std::vector<std::vector<std::string>> solo_bytes(
    const CampaignRunner& runner, const std::vector<CampaignSpec>& specs) {
  std::vector<std::vector<std::string>> out;
  for (const auto& spec : specs) {
    out.emplace_back();
    for (int i = 0; i < spec.runs; ++i) {
      out.back().push_back(
          experiments::serialize_run_result(runner.run_one(spec, i)));
    }
  }
  return out;
}

void expect_cells_equal_solo(
    const experiments::GridOutcome& out,
    const std::vector<std::vector<std::string>>& solo, const char* how) {
  EXPECT_TRUE(out.errors.empty()) << how;
  EXPECT_FALSE(out.first_failure) << how;
  ASSERT_EQ(out.results.size(), solo.size()) << how;
  for (std::size_t s = 0; s < solo.size(); ++s) {
    const auto& runs = out.results[s].runs;
    ASSERT_EQ(runs.size(), solo[s].size()) << how << " spec " << s;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(experiments::serialize_run_result(runs[i]), solo[s][i])
          << how << ": " << out.results[s].spec.name << " run " << i;
    }
  }
}

TEST(Drives, EveryGridCellSerializesLikeItsSoloRun) {
  // Monitor variants of a cell share one drive, so the grid simulates each
  // drive once; each member's result must still be byte-for-byte the solo
  // run_one of its own spec, on every executor.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = drive_grid(/*runs=*/2, /*seed=*/6060);
  const auto solo = solo_bytes(runner, specs);
  for (const unsigned threads : {1u, 4u}) {
    expect_cells_equal_solo(
        CampaignScheduler(runner, threads).run_all_checked(specs), solo,
        threads == 1 ? "1 thread" : "4 threads");
  }
  ShardOptions opts;
  opts.workers = 2;
  expect_cells_equal_solo(
      ShardedCampaignScheduler(runner, opts).run_all_checked(specs, {}), solo,
      "2 workers");
  opts.crash_shard = 1;
  opts.crash_after_cells = 5;
  opts.retry_backoff_ms = 1;
  const CounterDelta moved;
  expect_cells_equal_solo(
      ShardedCampaignScheduler(runner, opts).run_all_checked(specs, {}), solo,
      "2 workers, one crashing");
  EXPECT_EQ(moved("rt_shard_worker_deaths_total"), 1u);
}

TEST(Drives, ParentCountsTheCellsAndDrivesForkedWorkersDeliver) {
  // A forked worker's counter increments die with it, so the parent counts
  // one cell per merged frame and one drive per merged first member: the
  // in-process figures. A crashed worker's missing cells are re-run, and
  // every cell is still counted once.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = drive_grid(/*runs=*/1, /*seed=*/6262);
  const std::uint64_t cells = experiments::grid_cells(specs).size();
  const std::uint64_t drives = experiments::grid_drives(specs).size();
  ASSERT_LT(drives, cells);
  ShardOptions opts;
  opts.workers = 2;
  {
    const CounterDelta moved;
    const auto out =
        ShardedCampaignScheduler(runner, opts).run_all_checked(specs, {});
    EXPECT_TRUE(out.errors.empty());
    EXPECT_EQ(moved("rt_shard_worker_deaths_total"), 0u);
    EXPECT_EQ(moved("rt_campaign_cells_total"), cells);
    EXPECT_EQ(moved("rt_campaign_drives_total"), drives);
  }
  opts.crash_shard = 1;
  opts.crash_after_cells = 5;
  opts.retry_backoff_ms = 1;
  const CounterDelta moved;
  const auto out =
      ShardedCampaignScheduler(runner, opts).run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_EQ(moved("rt_shard_worker_deaths_total"), 1u);
  EXPECT_EQ(moved("rt_campaign_cells_total"), cells);
}

TEST(Drives, MonitorAlarmCountIsTheSoloRunsCount) {
  // A drive counts each member's alarm frames, as each member's solo run
  // does: the grid's rt_monitor_alarms_total delta is the solo runs' sum
  // and the figure pinned before monitor variants shared a drive.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = drive_grid(/*runs=*/2, /*seed=*/6060);
  const CounterDelta solo;
  (void)solo_bytes(runner, specs);
  const std::uint64_t solo_alarms = solo("rt_monitor_alarms_total");
  const CounterDelta moved;
  (void)CampaignScheduler(runner, 2).run_all(specs);
  EXPECT_EQ(moved("rt_monitor_alarms_total"), solo_alarms);
  EXPECT_EQ(solo_alarms, 409u);
}

#if RT_OBS_TRACING
TEST(Drives, OneCampaignCellSpanPerDrive) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = drive_grid(/*runs=*/1, /*seed=*/6161);
  const std::size_t drives = experiments::grid_drives(specs).size();
  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  const CounterDelta moved;
  (void)CampaignScheduler(runner, 2).run_all(specs);
  obs::Tracer::global().disarm();
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::Tracer::global().render_chrome_trace());
  obs::Tracer::global().clear();
  EXPECT_EQ(parsed.count_spans("campaign_cell"), drives);
  EXPECT_EQ(moved("rt_campaign_drives_total"), drives);
  EXPECT_EQ(moved("rt_campaign_cells_total"),
            experiments::grid_cells(specs).size());
}
#endif  // RT_OBS_TRACING

#if RT_OBS_TRACING
TEST(ShardedScheduler, TwoWorkerTraceMergesParentAndBothWorkers) {
  // Spans recorded inside forked workers ship back over the result pipe
  // and land on the parent's timeline under their own pid lane — and an
  // armed tracer must not move a single result byte.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/5566);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  std::size_t cells = 0;
  for (const auto& s : specs) cells += static_cast<std::size_t>(s.runs);

  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  ShardOptions opts;
  opts.workers = 2;
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  obs::Tracer::global().disarm();

  EXPECT_EQ(grid_bytes(results), reference) << "tracing changed the bytes";
  EXPECT_EQ(obs::Tracer::global().absorb_failures(), 0u);
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::Tracer::global().render_chrome_trace());
  EXPECT_TRUE(parsed.has_span("shard_wave"));
  EXPECT_EQ(parsed.count_spans("shard_worker"), 2u);
  // Every grid cell ran (exactly once) inside a worker.
  EXPECT_EQ(parsed.count_spans("campaign_cell"), cells);
  // pid 0 = parent, pids 1 and 2 = the two forked workers.
  const auto pids = parsed.span_pids();
  ASSERT_EQ(pids.size(), 3u);
  for (const std::uint64_t pid : {0u, 1u, 2u}) {
    EXPECT_EQ(std::count(pids.begin(), pids.end(), pid), 1) << "pid " << pid;
  }
  obs::Tracer::global().clear();
}
#endif  // RT_OBS_TRACING

// ------------------------------------------------------------ fingerprint

TEST(CellCache, FingerprintChangesOnEveryResultDeterminingField) {
  const CampaignSpec base = small_spec();
  const std::uint64_t fp = campaign_cell_fingerprint(base);
  EXPECT_EQ(campaign_cell_fingerprint(small_spec()), fp) << "not stable";

  CampaignSpec m = base;
  m.name = "other-name";
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "name";
  m = base;
  m.scenario = "DS-2";
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "scenario";
  m = base;
  m.vector = core::AttackVector::kMoveOut;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "vector";
  m = base;
  m.mode = AttackMode::kGolden;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "mode";
  m = base;
  m.runs += 1;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "runs";
  m = base;
  m.seed += 1;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "seed";
  m = base;
  m.params = sim::ScenarioParams{};
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "params presence";
  {
    CampaignSpec p1 = base;
    p1.params = sim::ScenarioParams{};
    CampaignSpec p2 = p1;
    const auto name = sim::scenario_param_names().front();
    sim::set_scenario_param(*p2.params,name,
                            sim::get_scenario_param(*p1.params, name) + 0.5);
    EXPECT_NE(campaign_cell_fingerprint(p1), campaign_cell_fingerprint(p2))
        << "param value";
  }
  m = base;
  m.monitors = {"innovation-gate"};
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "monitors";
  EXPECT_NE(campaign_cell_fingerprint(base, kCampaignCodeVersion + 1), fp)
      << "code version";
}

TEST(CellCache, FingerprintSurvivesASerdeRoundTrip) {
  CampaignSpec spec = small_spec("pin:DS-1,\nDisappear");
  sim::ScenarioParams p;
  p.duration = -0.0;
  p.target_gap = std::numeric_limits<double>::quiet_NaN();
  p.pedestrian_gait = 5e-324;
  spec.params = p;
  spec.monitors = {"innovation-gate", "kinematics"};
  EXPECT_EQ(campaign_cell_fingerprint(spec),
            campaign_cell_fingerprint(experiments::deserialize_spec(
                experiments::serialize_spec(spec))));
}

// ------------------------------------------------------------- cell cache

TEST(CellCache, MissThenStoreThenBitExactHit) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("cache_hit")});
  const CampaignSpec spec = small_spec();

  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("misses"), 1u);

  const CampaignResult fresh = runner.run(spec);
  cache.store(spec, fresh);
  EXPECT_EQ(moved.cache("stores"), 1u);

  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(moved.cache("hits"), 1u);
  EXPECT_EQ(experiments::serialize_campaign_result(*hit),
            experiments::serialize_campaign_result(fresh));
}

TEST(CellCache, StaleCodeVersionIsIgnoredNeverServed) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_stale");
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);
  {
    CampaignCellCache old_cache({dir, 0, kCampaignCodeVersion});
    old_cache.store(spec, fresh);
  }
  // Same directory, newer simulation semantics: fingerprints differ, so
  // even a same-named file (forced here by writing under the new key's
  // path) is rejected on its header, counted stale.
  CampaignCellCache new_cache({dir, 0, kCampaignCodeVersion + 1});
  EXPECT_FALSE(new_cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("stale") + moved.cache("misses"), 1u);

  // Force the stale-header path precisely: copy the old entry to the path
  // the new cache would use.
  CampaignCellCache old_cache({dir, 0, kCampaignCodeVersion});
  fs::copy_file(old_cache.entry_path(spec), new_cache.entry_path(spec),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(new_cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("stale"), 1u);
}

TEST(CellCache, CorruptAndTruncatedEntriesAreCountedNotServed) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("cache_corrupt")});
  const CampaignSpec spec = small_spec();
  cache.store(spec, runner.run(spec));

  // Truncate the entry: the serde layer throws, the cache counts corrupt.
  const std::string path = cache.entry_path(spec);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << blob.substr(0, blob.size() / 2);
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("corrupt"), 1u);

  // Garbage header.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a cache file\n";
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("corrupt"), 2u);
}

// A well-formed, checksummed entry at spec A's path whose payload is spec
// B's result (what a fingerprint collision or a renamed file would leave)
// is counted corrupt and missed: a lookup serves only the exact spec, down
// to its mode and monitor stack.
TEST(CellCache, ServesOnlyTheExactSpec) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const CampaignSpec a = small_spec();
  CampaignSpec other_monitors = a;
  other_monitors.monitors = {"innovation-gate"};
  CampaignSpec other_mode = a;
  other_mode.mode = AttackMode::kGolden;
  for (const CampaignSpec& b : {other_monitors, other_mode}) {
    const CounterDelta moved;
    CampaignCellCache cache({scratch_dir("cache_exact_spec")});
    // store() writes B's result under A's fingerprint, with a valid
    // checksum: only the spec inside the payload differs from A.
    ASSERT_TRUE(cache.store(a, runner.run(b)));
    EXPECT_FALSE(cache.lookup(a).has_value())
        << "served a result for another spec";
    EXPECT_EQ(moved.cache("corrupt"), 1u);
    EXPECT_EQ(moved.cache("hits"), 0u);
  }
}

TEST(CellCache, LruEvictionRemovesOldestFirst) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_lru");
  CampaignCellCache cache({dir, /*max_bytes=*/0});  // store unbounded
  std::vector<CampaignSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(small_spec("lru", 1000 + static_cast<std::uint64_t>(i)));
    cache.store(specs.back(), runner.run(specs.back()));
  }
  // Deterministic ages regardless of filesystem timestamp granularity:
  // entry i is i hours old, entry 0 oldest.
  const auto now = fs::file_time_type::clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fs::last_write_time(cache.entry_path(specs[i]),
                        now - std::chrono::hours(specs.size() - i));
  }
  const std::uintmax_t entry_size =
      fs::file_size(cache.entry_path(specs[0]));
  // Budget for two entries: the two oldest must go, the two newest stay.
  const std::size_t removed = cache.evict_to_limit(
      static_cast<std::size_t>(entry_size) * 2 + entry_size / 2);
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[0])));
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[1])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[3])));
  EXPECT_EQ(moved.cache("evictions"), 2u);

  // A hit re-touches its entry: after hitting specs[2], adding age to
  // specs[3] and evicting to one entry keeps the freshly-hit specs[2].
  fs::last_write_time(cache.entry_path(specs[3]),
                      now - std::chrono::hours(1));
  ASSERT_TRUE(cache.lookup(specs[2]).has_value());
  cache.evict_to_limit(static_cast<std::size_t>(entry_size) +
                       entry_size / 2);
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[3])));
}

TEST(CellCache, TouchCounterLruBeatsCoarseMtimeTies) {
  // Regression (PR 8): eviction order used to be (mtime, path). On a
  // filesystem with 1 s timestamp granularity a hit and a cold store land
  // on the SAME mtime, so the just-hit entry could lose the path tie-break
  // and be evicted before a cold one. The persisted monotonic touch
  // counter orders accesses exactly even when every mtime is equal.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_touch");
  std::vector<CampaignSpec> specs;
  std::size_t hit = 0;
  {
    CampaignCellCache cache({dir, /*max_bytes=*/0});
    for (int i = 0; i < 3; ++i) {
      specs.push_back(
          small_spec("touch", 3000 + static_cast<std::uint64_t>(i)));
      cache.store(specs.back(), runner.run(specs.back()));
    }
    // Worst case: every entry carries the identical mtime.
    const auto now = fs::file_time_type::clock::now();
    for (const auto& s : specs) {
      fs::last_write_time(cache.entry_path(s), now);
    }
    // Hit the entry whose path sorts FIRST — exactly the entry the old
    // (mtime, path) ordering would pick as the eviction victim.
    for (std::size_t i = 1; i < specs.size(); ++i) {
      if (cache.entry_path(specs[i]) < cache.entry_path(specs[hit])) {
        hit = i;
      }
    }
    ASSERT_TRUE(cache.lookup(specs[hit]).has_value());
    const auto entry_size = fs::file_size(cache.entry_path(specs[0]));
    cache.evict_to_limit(static_cast<std::size_t>(entry_size) * 2 +
                         static_cast<std::size_t>(entry_size) / 2);
    EXPECT_TRUE(fs::exists(cache.entry_path(specs[hit])))
        << "just-hit entry was evicted before a cold one";
    // The evicted entry takes its sidecar with it.
    std::size_t rtcr = 0;
    std::size_t touch = 0;
    for (const auto& de : fs::directory_iterator(dir)) {
      rtcr += de.path().extension() == ".rtcr" ? 1 : 0;
      touch += de.path().extension() == ".touch" ? 1 : 0;
    }
    EXPECT_EQ(rtcr, 2u);
    EXPECT_EQ(touch, 2u);
  }
  // A reopened cache reseeds its counter from the persisted max, so a hit
  // in the new process still outranks every access of the old one.
  {
    CampaignCellCache cache({dir, /*max_bytes=*/0});
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (fs::exists(cache.entry_path(specs[i]))) alive.push_back(i);
    }
    ASSERT_EQ(alive.size(), 2u);
    const auto now = fs::file_time_type::clock::now();
    for (const std::size_t i : alive) {
      fs::last_write_time(cache.entry_path(specs[i]), now);
    }
    ASSERT_TRUE(cache.lookup(specs[alive[0]]).has_value());
    const auto entry_size = fs::file_size(cache.entry_path(specs[alive[0]]));
    cache.evict_to_limit(static_cast<std::size_t>(entry_size) +
                         static_cast<std::size_t>(entry_size) / 2);
    EXPECT_TRUE(fs::exists(cache.entry_path(specs[alive[0]])));
    EXPECT_FALSE(fs::exists(cache.entry_path(specs[alive[1]])));
  }
}

TEST(CellCache, EvictionFallsBackToMtimeForCounterlessEntries) {
  // Entries as an older build left them (no .touch sidecar) still evict in
  // mtime order, and sort before any counter-bearing entry.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_mtime_fallback");
  CampaignCellCache cache({dir, /*max_bytes=*/0});
  std::vector<CampaignSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(
        small_spec("fallback", 4000 + static_cast<std::uint64_t>(i)));
    cache.store(specs.back(), runner.run(specs.back()));
  }
  for (const auto& s : specs) {
    fs::remove(fs::path(cache.entry_path(s) + ".touch"));
  }
  const auto now = fs::file_time_type::clock::now();
  for (const auto& s : specs) fs::last_write_time(cache.entry_path(s), now);
  fs::last_write_time(cache.entry_path(specs[1]),
                      now - std::chrono::hours(2));
  const auto entry_size = fs::file_size(cache.entry_path(specs[0]));
  cache.evict_to_limit(static_cast<std::size_t>(entry_size) * 2 +
                       static_cast<std::size_t>(entry_size) / 2);
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[1])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[0])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
}

TEST(CellCache, StoreSweepsToConfiguredBudget) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_budget");
  const CampaignSpec probe = small_spec("probe", 1);
  std::uintmax_t entry_size = 0;
  {
    CampaignCellCache sizer({dir, 0});
    sizer.store(probe, runner.run(probe));
    entry_size = fs::file_size(sizer.entry_path(probe));
  }
  fs::remove_all(dir);
  // Budget of ~2 entries: after storing 4, at most 2 files remain.
  CampaignCellCache cache(
      {dir, static_cast<std::size_t>(entry_size) * 2 + entry_size / 2});
  for (int i = 0; i < 4; ++i) {
    const auto spec =
        small_spec("budget", 2000 + static_cast<std::uint64_t>(i));
    cache.store(spec, runner.run(spec));
  }
  std::size_t files = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    files += de.path().extension() == ".rtcr" ? 1 : 0;
  }
  EXPECT_LE(files, 2u);
  EXPECT_GE(moved.cache("evictions"), 2u);
}

/// `n` cache entries of identical size: one real result re-labelled with
/// equal-length names, so byte budgets can be stated in whole entries.
std::vector<std::pair<CampaignSpec, CampaignResult>> same_size_entries(
    CampaignRunner& runner, const char* prefix, int n) {
  const CampaignResult base = runner.run(small_spec("x-00", 7));
  std::vector<std::pair<CampaignSpec, CampaignResult>> out;
  for (int i = 0; i < n; ++i) {
    char name[16];
    std::snprintf(name, sizeof name, "%s-%02d", prefix, i);
    CampaignResult r = base;
    r.spec = small_spec(name, 7);
    out.emplace_back(r.spec, std::move(r));
  }
  return out;
}

std::size_t count_files(const std::string& dir, const char* extension) {
  std::size_t n = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    n += de.path().extension() == extension ? 1 : 0;
  }
  return n;
}

std::uintmax_t entry_bytes(CampaignRunner& runner) {
  const std::string dir = scratch_dir("cache_sizer");
  CampaignCellCache sizer({dir, 0});
  const auto one = same_size_entries(runner, "sz", 1);
  sizer.store(one[0].first, one[0].second);
  return fs::file_size(sizer.entry_path(one[0].first));
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(CellCache, FullCacheSweepsToLowWater) {
  // A budget-triggered sweep evicts down to 7/8 of the budget, so the
  // stores after it evict nothing until the budget is crossed again:
  // evictions come in batches, not one per store.
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::uintmax_t size = entry_bytes(runner);
  const std::string dir = scratch_dir("cache_low_water");
  CampaignCellCache cache({dir, static_cast<std::size_t>(size) * 16});
  const auto entries = same_size_entries(runner, "lw", 20);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(cache.store(entries[i].first, entries[i].second));
  }
  EXPECT_EQ(moved.cache("evictions"), 0u);
  EXPECT_EQ(count_files(dir, ".rtcr"), 16u);

  ASSERT_TRUE(cache.store(entries[16].first, entries[16].second));
  EXPECT_LE(count_files(dir, ".rtcr"), 14u);
  EXPECT_EQ(moved.cache("evictions"), 3u);
  // The newest entry survives its own sweep; the oldest went first.
  EXPECT_TRUE(fs::exists(cache.entry_path(entries[16].first)));
  EXPECT_FALSE(fs::exists(cache.entry_path(entries[0].first)));

  for (int i = 17; i < 19; ++i) {
    ASSERT_TRUE(cache.store(entries[i].first, entries[i].second));
    EXPECT_EQ(moved.cache("evictions"), 3u) << "store " << i;
  }
  ASSERT_TRUE(cache.store(entries[19].first, entries[19].second));
  EXPECT_EQ(moved.cache("evictions"), 6u);
  EXPECT_LE(count_files(dir, ".rtcr"), 14u);
  EXPECT_EQ(count_files(dir, ".touch"), count_files(dir, ".rtcr"));
}

TEST(CellCache, ReopenedCacheCountsExistingBytes) {
  // The running total starts from what is already on disk: a cache
  // reopened with a smaller budget sweeps on its very first store.
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::uintmax_t size = entry_bytes(runner);
  const std::string dir = scratch_dir("cache_reopen_budget");
  const auto entries = same_size_entries(runner, "ro", 5);
  {
    CampaignCellCache unbounded({dir, 0});
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(unbounded.store(entries[i].first, entries[i].second));
    }
  }
  const std::size_t budget =
      static_cast<std::size_t>(size) * 2 + static_cast<std::size_t>(size) / 2;
  CampaignCellCache cache({dir, budget});
  ASSERT_TRUE(cache.store(entries[4].first, entries[4].second));
  EXPECT_EQ(moved.cache("evictions"), 3u);
  EXPECT_LE(count_files(dir, ".rtcr") * size, budget);
  EXPECT_TRUE(fs::exists(cache.entry_path(entries[4].first)));
}

TEST(CellCache, OpenRemovesTempFilesOfDeadWriters) {
  // A store killed between its write and its rename leaves its temp file
  // behind; the next cache to open the directory removes it, and keeps
  // every temp file of a live writer.
  const std::string dir = scratch_dir("cache_orphan_tmp");
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) ::_exit(0);
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);  // reaped: a dead pid
  const std::string entry = dir + "/cell_00000000000000ab.rtcr";
  const auto tmp_of = [&](long pid) {
    return entry + '.' + std::to_string(pid) + "-3.tmp";
  };
  const std::vector<std::string> orphans = {tmp_of(child), entry + ".tmp"};
  const std::vector<std::string> kept = {
      tmp_of(::getpid()), tmp_of(::getppid()), dir + "/notes.tmp",
      dir + "/cell_00000000000000ab.rtcr.x-1.tmp"};
  for (const auto& path : orphans) std::ofstream(path) << "torn";
  for (const auto& path : kept) std::ofstream(path) << "busy";
  CampaignCellCache cache({dir, 0});
  for (const auto& path : orphans) EXPECT_FALSE(fs::exists(path)) << path;
  for (const auto& path : kept) EXPECT_TRUE(fs::exists(path)) << path;
}

TEST(CellCache, OverwriteDoesNotInflateBudget) {
  // Re-storing an entry replaces its bytes rather than adding to them. A
  // neighbour makes a wrongly inflated total observable: the sweep it
  // would trigger evicts down to 7/8 of a two-entry budget, i.e. one entry.
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::uintmax_t size = entry_bytes(runner);
  const std::string dir = scratch_dir("cache_overwrite");
  const auto entries = same_size_entries(runner, "ow", 2);
  CampaignCellCache cache(
      {dir, static_cast<std::size_t>(size) * 2 +
                static_cast<std::size_t>(size) / 16});
  ASSERT_TRUE(cache.store(entries[0].first, entries[0].second));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.store(entries[1].first, entries[1].second));
  }
  EXPECT_EQ(moved.cache("evictions"), 0u);
  EXPECT_TRUE(fs::exists(cache.entry_path(entries[0].first)));
  EXPECT_TRUE(fs::exists(cache.entry_path(entries[1].first)));
}

TEST(CellCache, HitRewritesAccessCounterInPlace) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_touch_in_place");
  const auto entries = same_size_entries(runner, "ip", 2);
  const auto sidecar = [](const CampaignCellCache& c,
                          const CampaignSpec& spec) {
    return c.entry_path(spec) + ".touch";
  };
  std::uint64_t last = 0;
  {
    CampaignCellCache cache({dir, 0});
    for (const auto& [spec, result] : entries) cache.store(spec, result);
    for (int round = 0; round < 3; ++round) {
      for (const auto& e : entries) {
        ASSERT_TRUE(cache.lookup(e.first).has_value());
      }
    }
    EXPECT_EQ(count_files(dir, ".touch"), 2u);
    EXPECT_EQ(count_files(dir, ".rtcr"), 2u);
    EXPECT_EQ(count_files(dir, ".tmp"), 0u);

    // A legacy short sidecar is overwritten whole by the fixed-width one.
    { std::ofstream(sidecar(cache, entries[0].first)) << "7\n"; }
    ASSERT_TRUE(cache.lookup(entries[0].first).has_value());
    const std::string text = read_text(sidecar(cache, entries[0].first));
    ASSERT_EQ(text.size(), 21u);
    EXPECT_EQ(text.back(), '\n');
    last = std::stoull(text);
    EXPECT_EQ(last, 9u) << "2 stores + 6 hits, then this hit";
    EXPECT_EQ(count_files(dir, ".tmp"), 0u);
  }
  // A reopened cache reads the counter back and continues after it.
  CampaignCellCache reopened({dir, 0});
  ASSERT_TRUE(reopened.lookup(entries[1].first).has_value());
  EXPECT_EQ(std::stoull(read_text(sidecar(reopened, entries[1].first))),
            last + 1);
}

// ------------------------------------------------------- CampaignService

TEST(CampaignService, SecondRequestIsAllHitsAndBitIdentical) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/5566);
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_repeat")};
  cfg.threads = 2;
  CampaignService svc(runner, cfg);

  const CounterDelta moved;
  const auto cold = svc.run_grid(specs);
  EXPECT_EQ(moved("rt_service_spec_cache_hits_total"), 0u);

  const auto warm = svc.run_grid(specs);
  EXPECT_EQ(moved("rt_service_spec_cache_hits_total"), specs.size());
  EXPECT_EQ(grid_bytes(warm), grid_bytes(cold));
  EXPECT_EQ(moved.cache("hits"), specs.size());
  EXPECT_EQ(moved.cache("misses"), specs.size());
}

TEST(CampaignService, PartialOverlapRunsOnlyTheMisses) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_partial")};
  CampaignService svc(runner, cfg);

  const std::vector<CampaignSpec> first{small_spec("a", 1),
                                        small_spec("b", 2)};
  (void)svc.run_grid(first);
  const std::vector<CampaignSpec> second{small_spec("b", 2),
                                         small_spec("c", 3)};
  const CounterDelta moved;
  const auto results = svc.run_grid(second);
  EXPECT_EQ(moved("rt_service_spec_cache_hits_total"), 1u);
  ASSERT_EQ(results.size(), 2u);
  // Order follows the request, hit or miss.
  EXPECT_EQ(results[0].spec.name, "b");
  EXPECT_EQ(results[1].spec.name, "c");
  EXPECT_EQ(experiments::serialize_campaign_result(results[1]),
            experiments::serialize_campaign_result(
                runner.run(small_spec("c", 3))));
}

TEST(CampaignService, PartlyCachedDriveReRunsOnlyItsMissingMembers) {
  // The three monitor variants of one cell share a drive. With one of them
  // cached, the next request still simulates each drive once, for the two
  // members the cache could not answer.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  constexpr int kRuns = 3;
  const auto specs = experiments::CampaignGridBuilder()
                         .runs(kRuns)
                         .seed(4545)
                         .scenarios({"DS-1"})
                         .vectors({core::AttackVector::kDisappear})
                         .modes({AttackMode::kNoSh})
                         .monitors(defense::MonitorRegistry::global().keys())
                         .build();
  ASSERT_EQ(specs.size(), 3u);
  std::string uncached;
  {
    const CounterDelta moved;
    uncached = grid_bytes(CampaignScheduler(runner, 1).run_all(specs));
    EXPECT_EQ(moved("rt_campaign_drives_total"), 1u * kRuns);
    EXPECT_EQ(moved("rt_campaign_cells_total"), 3u * kRuns);
  }
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_partial_drive")};
  cfg.threads = 2;
  CampaignService svc(runner, cfg);
  (void)svc.run_grid({specs[1]});
  const CounterDelta moved;
  EXPECT_EQ(grid_bytes(svc.run_grid(specs)), uncached);
  EXPECT_EQ(moved("rt_service_spec_cache_hits_total"), 1u);
  EXPECT_EQ(moved("rt_campaign_drives_total"), 1u * kRuns);
  EXPECT_EQ(moved("rt_campaign_cells_total"), 2u * kRuns);
}

TEST(CampaignService, ShardedCacheEntriesMatchInProcessEntries) {
  // The same grid, cached once via the in-process path and once via forked
  // workers, produces byte-identical cache files — the cache is execution-
  // path agnostic, so mixed fleets can share one cache dir.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/7788);

  ServiceConfig in_proc;
  in_proc.cache = CacheConfig{scratch_dir("svc_inproc")};
  CampaignService a(runner, in_proc);
  (void)a.run_grid(specs);
  a.flush();

  ServiceConfig forked;
  forked.cache = CacheConfig{scratch_dir("svc_forked")};
  forked.workers = 3;
  CampaignService b(runner, forked);
  const CounterDelta moved;
  (void)b.run_grid(specs);
  b.flush();
  EXPECT_EQ(moved("rt_shard_forks_total"), 3u);

  for (const auto& spec : specs) {
    std::ifstream fa(a.cache()->entry_path(spec), std::ios::binary);
    std::ifstream fb(b.cache()->entry_path(spec), std::ios::binary);
    ASSERT_TRUE(fa.good() && fb.good()) << spec.name;
    const std::string ba(std::istreambuf_iterator<char>(fa), {});
    const std::string bb(std::istreambuf_iterator<char>(fb), {});
    EXPECT_EQ(ba, bb) << spec.name;
  }
}

#if RT_OBS_TRACING
TEST(CampaignService, ShardedStoresOverlapTheWave) {
  // Each campaign is committed as its last cell lands, not after the
  // grid: with cells striped over two workers, spec 0's two cells are the
  // first frame of each worker, so its store always starts while the wave
  // still waits for the last frames.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::vector<CampaignSpec> specs{
      small_spec("overlap-a", 1), small_spec("overlap-b", 2),
      small_spec("overlap-c", 3), small_spec("overlap-d", 4)};
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_overlap")};
  cfg.workers = 2;
  CampaignService svc(runner, cfg);

  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  const auto results = svc.run_grid(specs);
  svc.flush();  // the committer's last store span lands before disarm
  obs::Tracer::global().disarm();
  EXPECT_EQ(grid_bytes(results),
            grid_bytes(CampaignScheduler(runner, 1).run_all(specs)));

  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::Tracer::global().render_chrome_trace());
  obs::Tracer::global().clear();
  std::vector<const obs::TraceEvent*> waves;
  std::vector<const obs::TraceEvent*> stores;
  for (const obs::TraceEvent& e : parsed.events) {
    if (e.ph != "X" || e.pid != 0) continue;
    if (e.name == "shard_wave") waves.push_back(&e);
    if (e.name == "cache_store") stores.push_back(&e);
  }
  ASSERT_EQ(waves.size(), 1u);
  EXPECT_EQ(stores.size(), specs.size());
  const obs::TraceEvent& wave = *waves.front();
  const auto inside = std::count_if(
      stores.begin(), stores.end(), [&](const obs::TraceEvent* st) {
        return st->ts_us >= wave.ts_us &&
               st->ts_us < wave.ts_us + wave.dur_us;
      });
  EXPECT_GE(inside, 1) << "no store started inside the shard wave";
}
#endif  // RT_OBS_TRACING

TEST(CampaignService, ExecutorPlugsIntoDefenseGrid) {
  // The GridExecutor hook: a defense grid routed through a cached service
  // equals the plain in-process grid, and a second routed run is all hits.
  LoopConfig loop;
  experiments::DefenseGridConfig cfg;
  cfg.scenarios = {"DS-1"};
  cfg.monitors = {"", "innovation-gate"};
  cfg.modes = {AttackMode::kNoSh, AttackMode::kGolden};
  cfg.runs = 2;
  CampaignRunner runner(loop, {});
  const CampaignScheduler scheduler(runner, 1);
  const auto plain = experiments::run_defense_grid(
      cfg, [&](const auto& specs) { return scheduler.run_all(specs); });

  ServiceConfig svc_cfg;
  svc_cfg.cache = CacheConfig{scratch_dir("svc_grid")};
  CampaignService svc(runner, svc_cfg);
  const auto routed = experiments::run_defense_grid(cfg, svc.executor());
  const CounterDelta moved;
  const auto again = experiments::run_defense_grid(cfg, svc.executor());
  EXPECT_GT(moved("rt_service_spec_cache_hits_total"), 0u);
  EXPECT_EQ(moved.cache("misses"), 0u);

  ASSERT_EQ(routed.cells.size(), plain.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(routed.cells[i].campaign, plain.cells[i].campaign);
    EXPECT_EQ(routed.cells[i].detected, plain.cells[i].detected);
    EXPECT_EQ(routed.cells[i].triggered, plain.cells[i].triggered);
    EXPECT_DOUBLE_EQ(routed.cells[i].detection_rate,
                     plain.cells[i].detection_rate);
    EXPECT_EQ(again.cells[i].detected, plain.cells[i].detected);
  }
}

TEST(CampaignService, OracleServiceNeverServesANoOracleEntry) {
  // A service without oracles and one with them share a cache directory.
  // The oracle service must not be answered from the other's entry: the
  // entry is stale to it, and it computes what an uncached run with its
  // oracles computes.
  LoopConfig loop;
  const CampaignSpec spec = oracle_spec();
  experiments::OracleSet oracles;
  oracles[core::AttackVector::kDisappear] = synthetic_oracle();
  const CampaignRunner bare(loop, {});
  const CampaignRunner armed(loop, oracles);
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_oracle_key")};
  cfg.threads = 1;

  CampaignService without(bare, cfg);
  const auto bare_bytes = grid_bytes(without.run_grid({spec}));
  without.flush();
  const std::string armed_bytes = grid_bytes({armed.run(spec)});
  ASSERT_NE(bare_bytes, armed_bytes) << "the oracle must change the result";

  CampaignService with(armed, cfg);
  const CounterDelta moved;
  EXPECT_EQ(grid_bytes(with.run_grid({spec})), armed_bytes);
  EXPECT_EQ(moved.cache("hits"), 0u);
  EXPECT_EQ(moved.cache("stale"), 1u);
  // Its own entry is served to it afterwards; the service without oracles
  // is not served that entry either.
  EXPECT_EQ(grid_bytes(with.run_grid({spec})), armed_bytes);
  EXPECT_EQ(moved.cache("hits"), 1u);
  with.flush();
  EXPECT_EQ(grid_bytes(without.run_grid({spec})), bare_bytes);
  EXPECT_EQ(moved.cache("hits"), 1u);
  EXPECT_EQ(moved.cache("stale"), 2u);
}

TEST(CampaignService, EntryWithoutAnOracleKeyIsNeverServed) {
  // A plain cache records no oracle key, as entries written before the
  // key existed: a service, even one without oracles, must not serve it.
  LoopConfig loop;
  const CampaignRunner bare(loop, {});
  const CampaignSpec spec = small_spec();
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_oracle_unkeyed")};
  cfg.threads = 1;
  CampaignCellCache(*cfg.cache).store(spec, bare.run(spec));
  const CounterDelta moved;
  (void)CampaignService(bare, cfg).run_grid({spec});
  EXPECT_EQ(moved.cache("hits"), 0u);
  EXPECT_EQ(moved.cache("stale"), 1u);
}

TEST(CampaignService, OracleDifferingInOneWeightMisses) {
  LoopConfig loop;
  const CampaignSpec spec = oracle_spec();
  const auto oracle = synthetic_oracle();
  const auto nudged = nudged_copy(*oracle, scratch_dir("svc_oracle_nudge"));
  ASSERT_NE(nudged->content_hash(), oracle->content_hash());
  const CampaignRunner first(loop, {{core::AttackVector::kDisappear, oracle}});
  const CampaignRunner second(loop,
                              {{core::AttackVector::kDisappear, nudged}});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_oracle_weight")};
  cfg.threads = 1;

  (void)CampaignService(first, cfg).run_grid({spec});
  const CounterDelta moved;
  EXPECT_EQ(grid_bytes(CampaignService(second, cfg).run_grid({spec})),
            grid_bytes({second.run(spec)}));
  EXPECT_EQ(moved.cache("hits"), 0u);
  EXPECT_EQ(moved.cache("stale"), 1u);
  // The same weights in a fresh service do hit.
  (void)CampaignService(second, cfg).run_grid({spec});
  EXPECT_EQ(moved.cache("hits"), 1u);
}

/// Every counter the service layer registers, by name.
const char* const kServiceCounters[] = {
    "rt_campaign_cache_hits_total",
    "rt_campaign_cache_misses_total",
    "rt_campaign_cache_stale_total",
    "rt_campaign_cache_corrupt_total",
    "rt_campaign_cache_evictions_total",
    "rt_campaign_cache_stores_total",
    "rt_campaign_cache_staged_hits_total",
    "rt_campaign_cache_io_errors_total",
    "rt_service_requests_total",
    "rt_service_spec_cache_hits_total",
    "rt_service_spec_errors_total",
    "rt_shard_waves_total",
    "rt_shard_worker_deaths_total",
    "rt_shard_retry_waves_total",
    "rt_shard_fork_failures_total",
    "rt_shard_cells_recovered_in_process_total",
    "rt_shard_deadline_expirations_total",
    "rt_shard_forks_total",
};

using CounterDeltas = std::map<std::string, std::uint64_t>;

/// The service-layer counters that moved since `before`, by how much.
CounterDeltas moved_since(const obs::MetricsSnapshot& before) {
  const auto after = obs::MetricsRegistry::global().snapshot();
  CounterDeltas moved;
  for (const char* name : kServiceCounters) {
    const std::uint64_t d = after.counter(name) - before.counter(name);
    if (d != 0) moved[name] = d;
  }
  return moved;
}

TEST(CampaignService, CounterDeltasArePinned) {
  // One cached service with two forked workers answers five requests: a
  // cold grid, its warm repeat, a partial overlap, one request whose cache
  // writes all fail, and one whose forks all fail. After each, every
  // service-layer counter must have moved by exactly the pinned amount
  // (the registry is process-wide and cumulative, hence deltas).
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_counter_pin")};
  cfg.workers = 2;
  cfg.shard.retry_backoff_ms = 1;
  CampaignService svc(runner, cfg);

  const auto request = [&](const std::vector<CampaignSpec>& specs,
                           const std::optional<FaultPlan>& faults) {
    const auto before = obs::MetricsRegistry::global().snapshot();
    {
      std::optional<ArmedFaults> armed;
      if (faults) armed.emplace(*faults);
      const auto results = svc.run_grid(specs);
      svc.flush();  // the request's stores meet its faults
      EXPECT_EQ(grid_bytes(results),
                grid_bytes(CampaignScheduler(runner, 1).run_all(specs)));
    }
    return moved_since(before);
  };
  const auto one_rule = [](FaultSite site, FaultType type) {
    FaultPlan plan;
    plan.seed = 21;
    plan.rules.push_back({site, type, 1.0, -1, 0});
    return plan;
  };
  const std::vector<CampaignSpec> cold{small_spec("pin-a", 1),
                                       small_spec("pin-b", 2),
                                       small_spec("pin-c", 3)};

  EXPECT_EQ(request(cold, std::nullopt),
            (CounterDeltas{{"rt_campaign_cache_misses_total", 3},
                           {"rt_campaign_cache_stores_total", 3},
                           {"rt_service_requests_total", 1},
                           {"rt_shard_forks_total", 2},
                           {"rt_shard_waves_total", 1}}))
      << "cold";
  EXPECT_EQ(request(cold, std::nullopt),
            (CounterDeltas{{"rt_campaign_cache_hits_total", 3},
                           {"rt_service_requests_total", 1},
                           {"rt_service_spec_cache_hits_total", 3}}))
      << "warm";
  EXPECT_EQ(request({small_spec("pin-b", 2), small_spec("pin-d", 4)},
                    std::nullopt),
            (CounterDeltas{{"rt_campaign_cache_hits_total", 1},
                           {"rt_campaign_cache_misses_total", 1},
                           {"rt_campaign_cache_stores_total", 1},
                           {"rt_service_requests_total", 1},
                           {"rt_service_spec_cache_hits_total", 1},
                           {"rt_shard_forks_total", 2},
                           {"rt_shard_waves_total", 1}}))
      << "partial";
  EXPECT_EQ(request({small_spec("pin-e", 5), small_spec("pin-f", 6)},
                    one_rule(FaultSite::kCacheWrite, FaultType::kIoError)),
            (CounterDeltas{{"rt_campaign_cache_misses_total", 2},
                           {"rt_campaign_cache_io_errors_total", 2},
                           {"rt_service_requests_total", 1},
                           {"rt_shard_forks_total", 2},
                           {"rt_shard_waves_total", 1}}))
      << "cache write errors";
  EXPECT_FALSE(svc.cache_degraded());
  EXPECT_EQ(request({small_spec("pin-g", 7)},
                    one_rule(FaultSite::kFork, FaultType::kForkEagain)),
            (CounterDeltas{{"rt_campaign_cache_misses_total", 1},
                           {"rt_campaign_cache_stores_total", 1},
                           {"rt_service_requests_total", 1},
                           {"rt_shard_waves_total", 3},
                           {"rt_shard_worker_deaths_total", 4},
                           {"rt_shard_retry_waves_total", 2},
                           {"rt_shard_fork_failures_total", 4},
                           {"rt_shard_cells_recovered_in_process_total", 2}}))
      << "fork EAGAIN";
}


TEST(CampaignService, RepeatWhileStagedIsServedFromMemoryLikeADiskHit) {
  // The committer's first cache write hangs while the plan is armed, so
  // every campaign of the cold request stays staged, deterministically,
  // until the scope ends. A repeat in that window is served from memory:
  // its rows are the executed rows, and it moves the counters exactly as
  // the same repeat served from disk does, plus one staged hit per spec.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::vector<CampaignSpec> specs{small_spec("staged-a", 1),
                                        small_spec("staged-b", 2),
                                        small_spec("staged-c", 3)};
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_staged")};
  cfg.workers = 2;
  CampaignService svc(runner, cfg);

  std::string executed;
  std::string from_memory;
  CounterDeltas staged_moved;
  {
    ArmedFaults hold(
        FaultPlan{31, {{FaultSite::kCacheWrite, FaultType::kHang, 1.0, 1, 0}}});
    executed = grid_bytes(svc.run_grid(specs));
    const auto before = obs::MetricsRegistry::global().snapshot();
    from_memory = grid_bytes(svc.run_grid(specs));
    staged_moved = moved_since(before);
    for (const auto& spec : specs) {
      EXPECT_FALSE(fs::exists(svc.cache()->entry_path(spec)))
          << spec.name << " was committed while the store was held";
    }
  }
  svc.flush();
  const auto before = obs::MetricsRegistry::global().snapshot();
  const std::string from_disk = grid_bytes(svc.run_grid(specs));
  const CounterDeltas disk_moved = moved_since(before);

  EXPECT_EQ(from_memory, executed);
  EXPECT_EQ(from_disk, executed);
  EXPECT_EQ(disk_moved,
            (CounterDeltas{{"rt_campaign_cache_hits_total", 3},
                           {"rt_service_requests_total", 1},
                           {"rt_service_spec_cache_hits_total", 3}}));
  CounterDeltas expected = disk_moved;
  expected["rt_campaign_cache_staged_hits_total"] = specs.size();
  EXPECT_EQ(staged_moved, expected);

  // What the committer wrote is what a synchronous store writes.
  CacheConfig sync_cfg = svc.cache()->config();
  sync_cfg.dir = scratch_dir("svc_staged_sync");
  CampaignCellCache sync(sync_cfg);
  for (const auto& result : CampaignScheduler(runner, 1).run_all(specs)) {
    ASSERT_TRUE(sync.store(result.spec, result));
    std::ifstream fa(svc.cache()->entry_path(result.spec), std::ios::binary);
    std::ifstream fb(sync.entry_path(result.spec), std::ios::binary);
    ASSERT_TRUE(fa.good() && fb.good()) << result.spec.name;
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(fa), {}),
              std::string(std::istreambuf_iterator<char>(fb), {}))
        << result.spec.name;
  }
}

TEST(CampaignService, StagingIsCappedWhileTheDiskHangs) {
  // A hung disk holds the committer's first store. The request stages
  // campaigns until kMaxStaged are pending, then waits in its completion
  // hook instead of growing the queue; released, it finishes with every
  // campaign stored and its rows unchanged.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  std::vector<CampaignSpec> specs;
  for (std::size_t i = 0; i < CampaignService::kMaxStaged + 2; ++i) {
    specs.push_back(small_spec("cap", 500 + i));
    specs.back().runs = 1;
  }
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_staging_cap")};
  cfg.threads = 2;
  CampaignService svc(runner, cfg);
  const CounterDelta moved;
  const auto queue = [] {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    return static_cast<std::size_t>(
        snap.gauge("rt_campaign_cache_commit_queue"));
  };

  std::string rows;
  std::atomic<bool> replied{false};
  {
    ArmedFaults hold(
        FaultPlan{37, {{FaultSite::kCacheWrite, FaultType::kHang, 1.0, 1, 0}}});
    std::thread request([&] {
      rows = grid_bytes(svc.run_grid(specs));
      replied = true;
    });
    std::size_t peak = 0;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (peak < CampaignService::kMaxStaged && !replied &&
           std::chrono::steady_clock::now() < give_up) {
      peak = std::max(peak, queue());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    peak = std::max(peak, queue());
    EXPECT_EQ(peak, CampaignService::kMaxStaged);
    EXPECT_FALSE(replied) << "the request staged past the cap";
    EXPECT_EQ(moved.cache("stores"), 0u);
    FaultInjector::instance().disarm();  // releases the held store
    request.join();
  }
  svc.flush();
  EXPECT_EQ(rows, reference);
  EXPECT_EQ(moved.cache("stores"), specs.size());
  EXPECT_EQ(queue(), 0u);
}

#if RT_OBS_TRACING
TEST(CampaignService, TracedShardedRequestsWithStoresInFlightLoseNoWorker) {
  // Forked workers clear the tracer they inherit, so a fork must never
  // copy its mutex while the committer holds it (say, registering its
  // first span lane). 200 fresh requests on two workers, each forking
  // while the previous request's stores may still be in flight. A worker
  // that blocked would be declared dead at the read timeout.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_fork_safe")};
  cfg.workers = 2;
  cfg.shard.read_timeout_ms = 10000;
  CampaignService svc(runner, cfg);

  constexpr int kRequests = 200;
  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 10});
  const CounterDelta moved;
  for (int r = 0; r < kRequests; ++r) {
    const auto seed = static_cast<std::uint64_t>(2 * r + 1000);
    (void)svc.run_grid(
        {small_spec("fork-a", seed), small_spec("fork-b", seed + 1)});
  }
  svc.flush();
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
  EXPECT_EQ(moved("rt_shard_worker_deaths_total"), 0u);
  EXPECT_EQ(moved("rt_shard_forks_total"), 2u * kRequests);
  EXPECT_EQ(moved.cache("stores"), 2u * kRequests);
}
#endif  // RT_OBS_TRACING

// ------------------------------------------------------- request path

/// Canonical bytes of a spec list, for exact expansion comparisons.
std::string spec_bytes(const std::vector<CampaignSpec>& specs) {
  std::string blob;
  for (const auto& s : specs) blob += experiments::serialize_spec(s) + "\n";
  return blob;
}

TEST(RequestGrammar, MalformedLinesAreRejectedWithNoSpecs) {
  for (const char* line : {
           "bogus scenarios=DS-1",
           "run scenarios=DS-1 color=red",
           "run scenarios=DS-1 runs",
           "run scenarios=DS-1 vectors=Sideways",
           "run scenarios=DS-1 modes=RwoSH,Turbo",
           "run scenarios=DS-1 runs=0",
           "run scenarios=DS-1 runs=abc",
           "run scenarios=DS-1 seed=18446744073709551616",
           "run scenarios=DS-1 param=duration:nan",
           "run scenarios=DS-1 param=duration:1,2",
           "run scenarios=DS-1 sweep=duration:",
           "run scenarios=DS-1 sweep=duration",
           "run vectors=Disappear runs=2",
           "run scenarios=DS-1 deadline_ms=0",
           // Names only the grid builder knows are rejected the same way.
           "run scenarios=DS-99",
           "run scenarios=DS-1 monitors=no-such-monitor",
           "run scenarios=DS-1 sweep=no_such_param:1,2",
       }) {
    const ParsedLine parsed = parse_line(line);
    EXPECT_EQ(parsed.verb, Verb::kNone) << line;
    EXPECT_FALSE(parsed.error.empty()) << line;
    EXPECT_TRUE(parsed.request.specs.empty()) << line;
  }
  EXPECT_EQ(parse_line("run scenarios=DS-1 runs=0").error,
            "bad runs '0' (want a positive integer)");
}

TEST(RequestGrammar, BlankLinesCommentsAndBareVerbs) {
  for (const char* line : {"", "   ", "# a comment", "  # indented"}) {
    const ParsedLine parsed = parse_line(line);
    EXPECT_EQ(parsed.verb, Verb::kNone) << line;
    EXPECT_TRUE(parsed.error.empty()) << line;
  }
  EXPECT_EQ(parse_line("stats").verb, Verb::kStats);
  EXPECT_EQ(parse_line(" quit").verb, Verb::kQuit);
  EXPECT_EQ(parse_line("shutdown # drain first").verb, Verb::kShutdown);
}

TEST(RequestGrammar, RunLineExpandsExactlyLikeTheGridBuilder) {
  const ParsedLine parsed = parse_line(
      "run scenarios=DS-1,DS-2 vectors=Move_Out,Disappear modes=RwoSH,Golden"
      " runs=3 seed=77 monitors=kinematics,sensor-consistency"
      " param=duration:20 sweep=target_gap:20,30.5 deadline_ms=250"
      "  # trailing comment");
  ASSERT_EQ(parsed.verb, Verb::kRun) << parsed.error;
  EXPECT_EQ(parsed.request.deadline_ms, 250.0);
  const auto expected =
      experiments::CampaignGridBuilder()
          .scenarios({"DS-1", "DS-2"})
          .vectors({core::AttackVector::kMoveOut,
                    core::AttackVector::kDisappear})
          .modes({AttackMode::kNoSh, AttackMode::kGolden})
          .runs(3)
          .seed(77)
          .monitors({"kinematics", "sensor-consistency"})
          .sweep("duration", {20.0})
          .sweep("target_gap", {20.0, 30.5})
          .build();
  // 2 scenarios x (2 RwoSH vectors + 1 Golden) x 2 monitors x 2 sweeps.
  EXPECT_EQ(parsed.request.specs.size(), 24u);
  EXPECT_EQ(spec_bytes(parsed.request.specs), spec_bytes(expected));

  // Unset keys take the grammar's defaults: Disappear, R, 8 runs, the
  // paper seed, no deadline.
  const ParsedLine bare = parse_line("run scenarios=DS-3");
  ASSERT_EQ(bare.verb, Verb::kRun) << bare.error;
  EXPECT_EQ(bare.request.deadline_ms, 0.0);
  EXPECT_EQ(spec_bytes(bare.request.specs),
            spec_bytes(experiments::CampaignGridBuilder()
                           .scenarios({"DS-3"})
                           .vectors({core::AttackVector::kDisappear})
                           .modes({AttackMode::kRobotack})
                           .runs(8)
                           .seed(20200613)
                           .build()));
}

TEST(ServerResponse, RowsAreNeverCutShort) {
  // A campaign name longer than any fixed row buffer must come out whole:
  // all 16 columns and the newline that frames the row.
  CampaignSpec spec = small_spec();
  spec.name = "DS-1-Golden" + std::string(600, 'x');
  experiments::GridOutcome outcome;
  outcome.results.push_back({spec, {}});
  outcome.results.push_back({small_spec("late", 9), {}});
  outcome.errors.push_back({1, experiments::CampaignErrorCode::
                                   kDeadlineExceeded, std::string(600, 'm')});
  const std::string text = render_response(outcome);

  const std::size_t header_end = text.find('\n') + 1;
  const std::size_t row_end = text.find('\n', header_end) + 1;
  const std::string row = text.substr(header_end, row_end - header_end);
  EXPECT_EQ(row, spec.name +
                     ",DS-1,Disappear,R w/o SH,2,4242,0,0,0,0,0,0,0.000000,"
                     "0.000000,0.000000,0.000000\n");
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 15);
  EXPECT_EQ(text.substr(row_end), "error deadline-exceeded late " +
                                      std::string(600, 'm') + "\n");
  EXPECT_EQ(text.substr(0, header_end),
            "name,scenario,vector,mode,runs,seed,n,triggered,eb,crash,"
            "detected,false_alarms,eb_rate,crash_rate,detection_rate,"
            "median_k\n");
}

TEST(ServerRequest, ExecuteRepliesThenLogsOneRecordWithItsHits) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("server_execute")};
  cfg.threads = 1;
  CampaignService svc(runner, cfg);
  const ParsedLine parsed =
      parse_line("run scenarios=DS-1 modes=RwoSH,Golden runs=2 seed=11");
  ASSERT_EQ(parsed.verb, Verb::kRun) << parsed.error;

  const auto latency_count = [] {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::global().snapshot();
    const auto* m = snap.find("rt_server_request_latency_ms");
    return m != nullptr ? m->histogram.count : 0;
  };
  const std::uint64_t observed_before = latency_count();
  std::vector<std::string> bodies;
  std::vector<std::string> logs;
  for (int pass = 0; pass < 2; ++pass) {
    ::testing::internal::CaptureStderr();
    execute_request(svc, parsed.request, std::nullopt,
                    [&](const std::string& body) { bodies.push_back(body); });
    logs.push_back(::testing::internal::GetCapturedStderr());
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], bodies[1]) << "a cached answer must be byte-identical";
  EXPECT_EQ(bodies[0],
            render_response(CampaignScheduler(runner, 1)
                                .run_all_checked(parsed.request.specs)));
  EXPECT_EQ(latency_count(), observed_before + 2);

  // One JSONL record per request; consecutive ids; the warm pass is all
  // hits. Only `ts` and `wall_ms` vary between runs.
  const auto id_of = [](const std::string& log) {
    const std::size_t at = log.find("\"id\":");
    return at == std::string::npos ? 0ull : std::stoull(log.substr(at + 5));
  };
  for (const std::string& log : logs) {
    EXPECT_EQ(std::count(log.begin(), log.end(), '\n'), 1) << log;
    EXPECT_EQ(log.rfind("{\"ts\":\"", 0), 0u) << log;
    EXPECT_NE(log.find(",\"event\":\"request\",\"id\":"), std::string::npos);
    EXPECT_NE(log.find(",\"outcome\":\"ok\"}\n"), std::string::npos) << log;
  }
  EXPECT_NE(logs[0].find(",\"specs\":2,\"hits\":0,\"misses\":2,\"errors\":0,"
                         "\"wall_ms\":"),
            std::string::npos)
      << logs[0];
  EXPECT_NE(logs[1].find(",\"specs\":2,\"hits\":2,\"misses\":0,\"errors\":0,"
                         "\"wall_ms\":"),
            std::string::npos)
      << logs[1];
  EXPECT_EQ(id_of(logs[1]), id_of(logs[0]) + 1);
}

TEST(ServerJobQueue, BoundedAndDrainsAfterClose) {
  JobQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_FALSE(queue.push(3)) << "a full queue sheds the request";
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.push(4));
  queue.close();
  EXPECT_FALSE(queue.push(5)) << "a closed queue accepts nothing";
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 4);
  EXPECT_EQ(queue.pop(), std::nullopt);

  // A consumer blocked in pop() wakes for each push and for close().
  JobQueue<int> handoff(8);
  std::vector<int> got;
  std::thread consumer([&] {
    while (auto job = handoff.pop()) got.push_back(*job);
  });
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(handoff.push(i));
  handoff.close();
  consumer.join();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace rt::service
