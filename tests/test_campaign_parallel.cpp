#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/sh_training.hpp"
#include "runtime/thread_pool.hpp"

namespace rt::experiments {
namespace {

using runtime::ThreadPool;

// --------------------------------------------------------- ThreadPool

TEST(ThreadPool, InlineModeRunsOnCallingThread) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  pool.wait_idle();
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 2u, 4u, ThreadPool::default_threads()}) {
    ThreadPool pool(threads);
    const int n = 257;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](int i) { hits[static_cast<std::size_t>(i)]++; });
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ParallelForEmptyAndNegative) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](int) { ++calls; });
  pool.parallel_for(-5, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, WaitIdleRethrowsFirstTaskException) {
  for (unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        {
          pool.parallel_for(8, [](int i) {
            if (i == 3) throw std::runtime_error("boom");
          });
        },
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> ok{0};
    pool.parallel_for(4, [&](int) { ok++; });
    EXPECT_EQ(ok.load(), 4);
  }
}

TEST(ThreadPool, DefaultThreadsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
  ThreadPool pool;  // 0 => default
  EXPECT_GE(pool.size(), 1u);
}

// --------------------------------------------------- CampaignScheduler

/// Names the first field that differs between two campaign results: the
/// spec, the run count, or the first differing line of the first differing
/// run's canonical bytes (one line per serialized field).
std::string first_difference(const CampaignResult& a,
                             const CampaignResult& b) {
  if (serialize_spec(a.spec) != serialize_spec(b.spec)) return "spec";
  if (a.n() != b.n()) {
    return "run count " + std::to_string(a.n()) + " vs " +
           std::to_string(b.n());
  }
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const std::string ra = serialize_run_result(a.runs[i]);
    const std::string rb = serialize_run_result(b.runs[i]);
    if (ra == rb) continue;
    std::size_t at = 0;
    while (ra[at] == rb[at]) ++at;
    const std::size_t line = ra.rfind('\n', at) + 1;
    const auto field = std::count(ra.data(), ra.data() + line, '\n');
    return "run " + std::to_string(i) + ", serialized line " +
           std::to_string(field) + ": '" +
           ra.substr(line, ra.find('\n', line) - line) + "' vs '" +
           rb.substr(line, rb.find('\n', line) - line) + "'";
  }
  return "none";
}

/// The determinism contract: every per-run field bit-identical, so the
/// canonical bytes of the two results must be equal.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_TRUE(serialize_campaign_result(a) == serialize_campaign_result(b))
      << a.spec.name << " differs at " << first_difference(a, b);
}

CampaignSpec small_spec() {
  return {"DS-1-Disappear-R-x8", "DS-1",
          core::AttackVector::kDisappear, AttackMode::kRobotack, 8, 777};
}

/// small_spec() as a one-campaign grid on a `threads`-thread scheduler.
CampaignResult run_small(const CampaignRunner& runner, unsigned threads) {
  return CampaignScheduler(runner, threads).run_all({small_spec()}).front();
}

TEST(CampaignScheduler, OneThreadMatchesSerialRunner) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto serial = runner.run(small_spec());
  const auto scheduled = run_small(runner, 1);
  expect_identical(serial, scheduled);
}

TEST(CampaignScheduler, HardwareConcurrencyMatchesOneThread) {
  // The determinism contract: aggregates (and every per-run field) are
  // bit-identical at 1 thread and at hardware_concurrency() threads.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto one = run_small(runner, 1);
  const unsigned hw = ThreadPool::default_threads();
  const auto many = run_small(runner, hw);
  expect_identical(one, many);
  // And at an oversubscribed thread count (> runs, > cores).
  const auto over = run_small(runner, 16);
  expect_identical(one, over);
}

TEST(CampaignScheduler, GridKeepsSpecOrder) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  std::vector<CampaignSpec> specs{
      {"a", "DS-1", core::AttackVector::kDisappear,
       AttackMode::kNoSh, 3, 1},
      {"b", "DS-3", core::AttackVector::kMoveIn,
       AttackMode::kGolden, 2, 2},
      {"c", "DS-2", core::AttackVector::kMoveOut,
       AttackMode::kNoSh, 4, 3},
  };
  CampaignScheduler scheduler(runner, 4);
  const auto results = scheduler.run_all(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    EXPECT_EQ(results[s].spec.name, specs[s].name);
    EXPECT_EQ(results[s].n(), specs[s].runs);
  }
}

TEST(CampaignScheduler, GridMatchesPerSpecSerialRuns) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  std::vector<CampaignSpec> specs{
      {"x", "DS-2", core::AttackVector::kDisappear,
       AttackMode::kNoSh, 4, 11},
      {"y", "DS-5", core::AttackVector::kMoveOut,
       AttackMode::kRandomBaseline, 4, 12},
  };
  const auto grid = CampaignScheduler(runner, 0).run_all(specs);
  ASSERT_EQ(grid.size(), 2u);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    expect_identical(runner.run(specs[s]), grid[s]);
  }
}

TEST(CampaignScheduler, SharedOracleRobotackModeIsDeterministic) {
  // Full R mode: concurrent runs query the *same* trained oracle. Inference
  // must be mutation-free (Layer contract), so this is both a determinism
  // check and — under ASan/TSan — a data-race canary for the shared net.
  LoopConfig loop;
  ShTrainingConfig sh;
  sh.delta_triggers = {12.0, 20.0};
  sh.ks = {10, 30};
  sh.repeats = 1;
  sh.seed = 99;
  sh.train.epochs = 10;
  sh.train.patience = 0;
  OracleSet oracles;
  oracles[core::AttackVector::kDisappear] =
      train_oracle(core::AttackVector::kDisappear, loop, sh);
  CampaignRunner runner(loop, oracles);
  const auto one = run_small(runner, 1);
  EXPECT_GT(one.triggered_count(), 0);  // the oracle actually fires
  const auto many = run_small(runner, 8);
  expect_identical(one, many);
}

TEST(CampaignScheduler, NewScenarioFamiliesDeterministicAcrossThreads) {
  // The three extended families (one deterministic cut-in, one two-victim
  // crossing, one randomized dense-traffic) run green through a grid-built
  // campaign with bit-identical 1-vs-N-thread results.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs =
      CampaignGridBuilder()
          .runs(4)
          .seed(2468)
          .modes({AttackMode::kNoSh})
          .vectors({core::AttackVector::kMoveOut})
          .scenarios({"cut-in", "staggered-crossing", "dense-follow"})
          .build();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(specs[0].name, "cut-in-Move_Out-RwoSH");
  const auto one = CampaignScheduler(runner, 1).run_all(specs);
  const auto many = CampaignScheduler(runner, 8).run_all(specs);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_identical(one[i], many[i]);
  }
}

TEST(CampaignScheduler, DefenseGridDeterministicAcrossThreads) {
  // Monitors consume no randomness and write only their own per-run
  // report, so a monitored grid — including detection outcomes and
  // frames-to-detection — is bit-identical at 1 vs 8 threads.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs =
      CampaignGridBuilder()
          .runs(6)
          .seed(1357)
          .modes({AttackMode::kNoSh, AttackMode::kGolden})
          .vectors({core::AttackVector::kMoveOut})
          .monitors({"innovation-gate", "sensor-consistency", "kinematics"})
          .scenarios({"DS-1", "cut-in"})
          .build();
  ASSERT_EQ(specs.size(), 12u);
  const auto one = CampaignScheduler(runner, 1).run_all(specs);
  const auto many = CampaignScheduler(runner, 8).run_all(specs);
  ASSERT_EQ(one.size(), many.size());
  int detected_total = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    expect_identical(one[i], many[i]);
    detected_total += one[i].detected_count();
  }
  // The grid actually detects something (the invariance is not vacuous).
  EXPECT_GT(detected_total, 0);
}

TEST(CampaignRunner, RunOneIsPureFunctionOfSpecAndIndex) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto spec = small_spec();
  // Out-of-order and repeated calls return the same result as in-order.
  const RunResult direct = runner.run_one(spec, 5);
  const auto full = runner.run(spec);
  EXPECT_EQ(direct.eb, full.runs[5].eb);
  EXPECT_DOUBLE_EQ(direct.min_delta, full.runs[5].min_delta);
  EXPECT_DOUBLE_EQ(direct.end_time, full.runs[5].end_time);
}

// ------------------------------------------------------------ grid drives

TEST(GridDrives, MonitorVariantsAndDuplicatesShareADrive) {
  // Specs 0-2 are one cell's monitor variants (one with no monitor, one
  // with two), spec 3 shares their drive key with a third run, spec 4 is
  // an exact duplicate of spec 0, and spec 5 differs in its seed.
  std::vector<CampaignSpec> specs;
  const auto add = [&](int runs, std::uint64_t seed,
                       std::vector<std::string> monitors) {
    specs.push_back({"drive-" + std::to_string(specs.size()), "DS-1",
                     core::AttackVector::kDisappear, AttackMode::kNoSh, runs,
                     seed, std::nullopt, std::move(monitors)});
  };
  add(2, 50, {});
  add(2, 50, {"innovation-gate", "kinematics"});
  add(2, 50, {"sensor-consistency"});
  add(3, 50, {"kinematics"});
  specs.push_back(specs[0]);
  add(2, 51, {"kinematics"});
  // Cells, spec-major: 0-1 | 2-3 | 4-5 | 6-8 | 9-10 | 11-12.
  const std::vector<GridDrive> want{
      {0, 2, 4, 6, 9}, {1, 3, 5, 7, 10}, {8}, {11}, {12}};
  EXPECT_EQ(grid_drives(specs), want);
  GridSlots slots(specs);
  EXPECT_EQ(slots.drives(slots.unfilled()), want);
  // Any subset, in any order, groups the same way.
  EXPECT_EQ(slots.drives({12, 5, 3, 8, 7}),
            (std::vector<GridDrive>{{3, 5, 7}, {8}, {12}}));
  // A spec whose params differ has a drive of its own.
  specs[2].params = sim::ScenarioRegistry::global().defaults("DS-1");
  EXPECT_EQ(grid_drives(specs).size(), 7u);
}

TEST(GridDrives, GridWithoutVariantsHasOneDrivePerCellInCellOrder) {
  const auto specs = table2_campaigns(3, 99);
  const auto drives = grid_drives(specs);
  ASSERT_EQ(drives.size(), grid_cells(specs).size());
  for (std::size_t i = 0; i < drives.size(); ++i) {
    EXPECT_EQ(drives[i], GridDrive{i});
  }
}

TEST(GridDrives, RunDriveRejectsMembersOfAnotherDrive) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignSpec a = small_spec();
  CampaignSpec b = a;
  b.seed += 1;
  EXPECT_THROW((void)runner.run_drive({&a, &b}, 0), std::invalid_argument);
  EXPECT_THROW((void)runner.run_drive({}, 0), std::invalid_argument);
}

// ------------------------------------------------ GridSlots completion hook

/// Every completion-hook call of one grid run: spec index -> the bytes of
/// each result the hook was handed (one entry per call). Thread-safe.
class HookLog {
 public:
  CampaignComplete hook() {
    return [this](std::size_t spec, const CampaignResult& result) {
      const std::string bytes = serialize_campaign_result(result);
      std::lock_guard<std::mutex> lock(mu_);
      calls_[spec].push_back(bytes);
    };
  }
  [[nodiscard]] const std::map<std::size_t, std::vector<std::string>>&
  calls() const {
    return calls_;
  }

 private:
  std::mutex mu_;
  std::map<std::size_t, std::vector<std::string>> calls_;
};

/// Hermetic NoSh specs of unequal length, with a zero-run spec among them.
std::vector<CampaignSpec> hook_grid() {
  std::vector<CampaignSpec> specs;
  for (const int runs : {2, 3, 0, 1, 4}) {
    specs.push_back({"hook-" + std::to_string(specs.size()), "DS-1",
                     core::AttackVector::kDisappear, AttackMode::kNoSh,
                     runs, 600 + specs.size()});
  }
  return specs;
}

/// Expects exactly one hook call per spec in `complete`, none for any
/// other spec, each handed the bytes finish() returned for that spec.
void expect_one_call_each(const HookLog& log, const GridOutcome& out,
                          const std::set<std::size_t>& complete) {
  std::set<std::size_t> called;
  for (const auto& [spec, bytes] : log.calls()) {
    called.insert(spec);
    ASSERT_EQ(bytes.size(), 1u) << "spec " << spec << " fired twice";
    EXPECT_EQ(bytes.front(), serialize_campaign_result(out.results[spec]))
        << "spec " << spec;
  }
  EXPECT_EQ(called, complete);
}

TEST(GridSlotsHook, FiresOncePerCompleteSpecWithTheFinishedBytes) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = hook_grid();
  HookLog log;
  GridSlots slots(specs, log.hook());
  slots.run(runner, slots.unfilled(), 3, {});
  const GridOutcome out = std::move(slots).finish(false);
  ASSERT_TRUE(out.errors.empty());
  // The zero-run spec (index 2) is complete with no runs and fires too.
  expect_one_call_each(log, out, {0, 1, 2, 3, 4});
  EXPECT_TRUE(out.results[2].runs.empty());
}

TEST(GridSlotsHook, ZeroRunSpecsFireEvenWhenNothingRuns) {
  std::vector<CampaignSpec> specs{
      {"none-a", "DS-1", core::AttackVector::kDisappear, AttackMode::kNoSh,
       0, 1},
      {"none-b", "DS-2", core::AttackVector::kMoveOut, AttackMode::kNoSh, 0,
       2}};
  HookLog log;
  GridSlots slots(specs, log.hook());
  EXPECT_TRUE(slots.cells().empty());
  const GridOutcome out = std::move(slots).finish(true);
  EXPECT_TRUE(out.errors.empty());
  expect_one_call_each(log, out, {0, 1});
}

TEST(GridSlotsHook, NeverFiresForASpecWithAnUnfilledCell) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = hook_grid();

  // Cut short by a deadline: spec 0's cells land, spec 1 gets one of its
  // three and specs 3 and 4 none.
  {
    HookLog log;
    GridSlots slots(specs, log.hook());
    for (const std::size_t cell : {0u, 1u, 2u}) {
      const GridCell& c = slots.cells()[cell];
      slots.fill(cell, runner.run_one(specs[c.spec], c.run));
    }
    const GridOutcome out = std::move(slots).finish(true);
    ASSERT_EQ(out.errors.size(), 3u);
    for (const CampaignError& err : out.errors) {
      EXPECT_EQ(err.code, CampaignErrorCode::kDeadlineExceeded);
    }
    expect_one_call_each(log, out, {0, 2});
  }
  // A deadline that has passed before the first cell starts.
  {
    HookLog log;
    GridSlots slots(specs, log.hook());
    slots.run(runner, slots.unfilled(), 2,
              std::chrono::steady_clock::now() - std::chrono::seconds(1));
    const GridOutcome out = std::move(slots).finish(true);
    EXPECT_EQ(out.errors.size(), 4u);
    expect_one_call_each(log, out, {2});
  }
  // A spec whose runs throw (an unknown scenario) stays unfilled.
  {
    auto broken = specs;
    broken[1].scenario = "DS-99";
    HookLog log;
    GridSlots slots(broken, log.hook());
    slots.run(runner, slots.unfilled(), 2, {});
    const GridOutcome out = std::move(slots).finish(false);
    ASSERT_EQ(out.errors.size(), 1u);
    EXPECT_EQ(out.errors.front().spec_index, 1u);
    EXPECT_EQ(out.errors.front().code, CampaignErrorCode::kExecutionFailed);
    expect_one_call_each(log, out, {0, 2, 3, 4});
  }
}

TEST(GridSlotsHook, EightConcurrentFillersGiveTheSameCalls) {
  // Every cell's result is computed up front, so the eight threads below
  // do nothing but race on fill(); each round deals the cells to them in
  // a different interleaving.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  std::vector<CampaignSpec> specs = hook_grid();
  for (int s = 0; s < 6; ++s) {
    specs.push_back({"race-" + std::to_string(s), "DS-1",
                     core::AttackVector::kDisappear, AttackMode::kNoSh,
                     1 + s % 4, 700u + static_cast<unsigned>(s)});
  }
  const std::vector<GridCell> cells = grid_cells(specs);
  std::vector<RunResult> computed;
  for (const GridCell& c : cells) {
    computed.push_back(runner.run_one(specs[c.spec], c.run));
  }
  std::set<std::size_t> all;
  for (std::size_t s = 0; s < specs.size(); ++s) all.insert(s);

  constexpr int kThreads = 8;
  for (int round = 0; round < 25; ++round) {
    HookLog log;
    GridSlots slots(specs, log.hook());
    std::atomic<int> ready{0};
    std::vector<std::thread> fillers;
    for (int t = 0; t < kThreads; ++t) {
      fillers.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const std::size_t cell = (i * 7 + static_cast<std::size_t>(round)) %
                                   cells.size();
          if (cell % kThreads == static_cast<std::size_t>(t)) {
            slots.fill(cell, computed[cell]);
          }
        }
      });
    }
    for (std::thread& f : fillers) f.join();
    const GridOutcome out = std::move(slots).finish(false);
    ASSERT_TRUE(out.errors.empty());
    expect_one_call_each(log, out, all);
  }
}

}  // namespace
}  // namespace rt::experiments
