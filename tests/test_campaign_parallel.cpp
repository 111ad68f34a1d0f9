#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
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

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.eb_count(), b.eb_count());
  EXPECT_EQ(a.crash_count(), b.crash_count());
  EXPECT_EQ(a.triggered_count(), b.triggered_count());
  EXPECT_EQ(a.ids_flagged_count(), b.ids_flagged_count());
  EXPECT_DOUBLE_EQ(a.median_k(), b.median_k());
  EXPECT_EQ(a.detected_count(), b.detected_count());
  EXPECT_EQ(a.false_alarm_count(), b.false_alarm_count());
  EXPECT_DOUBLE_EQ(a.median_frames_to_detection(),
                   b.median_frames_to_detection());
  for (int i = 0; i < a.n(); ++i) {
    const auto& ra = a.runs[static_cast<std::size_t>(i)];
    const auto& rb = b.runs[static_cast<std::size_t>(i)];
    EXPECT_EQ(ra.eb, rb.eb) << "run " << i;
    EXPECT_EQ(ra.crash, rb.crash) << "run " << i;
    EXPECT_EQ(ra.attack.triggered, rb.attack.triggered) << "run " << i;
    EXPECT_DOUBLE_EQ(ra.min_delta, rb.min_delta) << "run " << i;
    EXPECT_DOUBLE_EQ(ra.end_time, rb.end_time) << "run " << i;
    EXPECT_EQ(ra.defense.flagged, rb.defense.flagged) << "run " << i;
    EXPECT_EQ(ra.defense.detected, rb.defense.detected) << "run " << i;
    EXPECT_EQ(ra.defense.frames_to_detection,
              rb.defense.frames_to_detection)
        << "run " << i;
    EXPECT_DOUBLE_EQ(ra.defense.first_alert_time,
                     rb.defense.first_alert_time)
        << "run " << i;
  }
}

CampaignSpec small_spec() {
  return {"DS-1-Disappear-R-x8", "DS-1",
          core::AttackVector::kDisappear, AttackMode::kRobotack, 8, 777};
}

TEST(CampaignScheduler, OneThreadMatchesSerialRunner) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto serial = runner.run(small_spec());
  const auto scheduled = CampaignScheduler(runner, 1).run(small_spec());
  expect_identical(serial, scheduled);
}

TEST(CampaignScheduler, HardwareConcurrencyMatchesOneThread) {
  // The determinism contract: aggregates (and every per-run field) are
  // bit-identical at 1 thread and at hardware_concurrency() threads.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto one = CampaignScheduler(runner, 1).run(small_spec());
  const unsigned hw = ThreadPool::default_threads();
  const auto many = CampaignScheduler(runner, hw).run(small_spec());
  expect_identical(one, many);
  // And at an oversubscribed thread count (> runs, > cores).
  const auto over = CampaignScheduler(runner, 16).run(small_spec());
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
  const auto one = CampaignScheduler(runner, 1).run(small_spec());
  EXPECT_GT(one.triggered_count(), 0);  // the oracle actually fires
  const auto many = CampaignScheduler(runner, 8).run(small_spec());
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

}  // namespace
}  // namespace rt::experiments
