// Chaos suite for the rt::service fault-injection layer (PR 9): drives a
// (fault type x injection site x seed) matrix through the sharded
// scheduler, the cell cache, the campaign service and the real
// campaign_server binary, asserting the robustness contract everywhere:
// under ANY armed fault schedule the stack either produces bit-identical
// results (full recovery) or clean, typed degradation — never a hang, a
// crash, or a silently partial result.
//
// Fault schedules are counter-based (stats::Rng::from_stream over the plan
// seed), so every run of this suite injects exactly the same faults at the
// same operations. RT_FAULT_SEEDS shrinks the seed set (the ASan lane runs
// with RT_FAULT_SEEDS=1, mirroring the fuzz lane's RT_FUZZ_SAMPLES).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/transfer_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "service/campaign_service.hpp"
#include "service/cell_cache.hpp"
#include "service/fault_injection.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/scenario_registry.hpp"

namespace rt::service {
namespace {

namespace fs = std::filesystem;
using experiments::AttackMode;
using experiments::CampaignErrorCode;
using experiments::CampaignResult;
using experiments::CampaignRunner;
using experiments::CampaignScheduler;
using experiments::CampaignSpec;
using experiments::GridOutcome;
using experiments::LoopConfig;
using Clock = std::chrono::steady_clock;

int fault_seeds() {
  const char* v = std::getenv("RT_FAULT_SEEDS");
  if (v == nullptr || v[0] == '\0') return 3;
  return std::max(1, std::atoi(v));
}

std::string grid_bytes(const std::vector<CampaignResult>& results) {
  std::string blob;
  for (const auto& r : results) {
    blob += experiments::serialize_campaign_result(r);
  }
  return blob;
}

std::string scratch_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Temp files (`*.tmp`, whatever their writer's name) left in a directory.
std::size_t tmp_files(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    n += de.path().extension() == ".tmp" ? 1 : 0;
  }
  return n;
}

CampaignSpec small_spec(const char* name = "DS-1-chaos",
                        std::uint64_t seed = 4242, int runs = 2) {
  return {name, "DS-1", core::AttackVector::kDisappear, AttackMode::kNoSh,
          runs, seed};
}

/// The hermetic 2-spec / 4-cell grid the chaos matrix runs (NoSh mode, no
/// oracles — every cell is a pure function of its seeds).
std::vector<CampaignSpec> chaos_grid() {
  return {small_spec("chaos-a", 910), small_spec("chaos-b", 911)};
}

FaultPlan one_rule(std::uint64_t seed, FaultSite site, FaultType type,
                   double rate = 1.0, int max_faults = -1,
                   int skip_ops = 0) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rules.push_back({site, type, rate, max_faults, skip_ops});
  return plan;
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

// --------------------------------------------------------- FaultInjector

TEST(FaultInjector, DecisionSequenceIsAPureFunctionOfTheSeed) {
  auto trace = [](std::uint64_t seed, std::uint64_t worker) {
    ArmedFaults armed(
        one_rule(seed, FaultSite::kPipeWrite, FaultType::kIoError, 0.5));
    FaultInjector::instance().set_worker(worker);
    std::vector<FaultType> out;
    for (int i = 0; i < 200; ++i) {
      out.push_back(FaultInjector::instance().next(FaultSite::kPipeWrite).type);
    }
    return out;
  };
  const auto a = trace(7, 0);
  EXPECT_EQ(a, trace(7, 0)) << "same seed, same schedule — always";
  EXPECT_NE(a, trace(8, 0)) << "another seed draws another schedule";
  EXPECT_NE(a, trace(7, 1)) << "another worker draws another schedule";
  // At rate 0.5 both outcomes must actually occur.
  EXPECT_NE(std::count(a.begin(), a.end(), FaultType::kIoError), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), FaultType::kNone), 0);
}

TEST(FaultInjector, SkipOpsAndMaxFaultsBoundTheSchedule) {
  ArmedFaults armed(one_rule(1, FaultSite::kCacheWrite, FaultType::kEnospc,
                             1.0, /*max_faults=*/2, /*skip_ops=*/3));
  auto& inj = FaultInjector::instance();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(inj.next(FaultSite::kCacheWrite).type, FaultType::kNone)
        << "op " << i << " is within skip_ops";
  }
  EXPECT_EQ(inj.next(FaultSite::kCacheWrite).type, FaultType::kEnospc);
  EXPECT_EQ(inj.next(FaultSite::kCacheWrite).type, FaultType::kEnospc);
  EXPECT_EQ(inj.next(FaultSite::kCacheWrite).type, FaultType::kNone)
      << "max_faults exhausted";
  EXPECT_EQ(inj.injected(FaultSite::kCacheWrite), 2u);
  EXPECT_EQ(inj.ops(FaultSite::kCacheWrite), 6u);
  EXPECT_EQ(inj.injected_total(), 2u);
}

TEST(FaultInjector, OtherSitesAreUntouched) {
  ArmedFaults armed(
      one_rule(1, FaultSite::kPipeWrite, FaultType::kIoError, 1.0));
  EXPECT_EQ(FaultInjector::instance().next(FaultSite::kPipeRead).type,
            FaultType::kNone);
  EXPECT_EQ(FaultInjector::instance().next(FaultSite::kFork).type,
            FaultType::kNone);
}

TEST(FaultInjector, ArmFromEnvParsesTheChaosSpec) {
  ::setenv("RT_CHAOS",
           "seed=7 site=client-write type=disconnect rate=1.0 max=2", 1);
  ASSERT_TRUE(FaultInjector::instance().arm_from_env());
  EXPECT_TRUE(FaultInjector::instance().armed());
  EXPECT_EQ(FaultInjector::instance().next(FaultSite::kClientWrite).type,
            FaultType::kDisconnect);
  EXPECT_EQ(FaultInjector::instance().next(FaultSite::kClientWrite).type,
            FaultType::kDisconnect);
  EXPECT_EQ(FaultInjector::instance().next(FaultSite::kClientWrite).type,
            FaultType::kNone);
  FaultInjector::instance().disarm();

  ::setenv("RT_CHAOS", "site=bogus type=disconnect", 1);
  EXPECT_FALSE(FaultInjector::instance().arm_from_env());
  ::setenv("RT_CHAOS", "not-a-kv-pair", 1);
  EXPECT_FALSE(FaultInjector::instance().arm_from_env());
  ::unsetenv("RT_CHAOS");
  EXPECT_FALSE(FaultInjector::instance().arm_from_env());
}

// ----------------------------------------------------------- sys_* shims

TEST(FaultShims, ShortWritesAreAbsorbedByWriteAll) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(300, 'x');
  {
    ArmedFaults armed(
        one_rule(3, FaultSite::kPipeWrite, FaultType::kShortWrite, 1.0));
    // EVERY write is short, yet write_all_fd converges (each call makes
    // progress) and the reader sees the complete buffer.
    ASSERT_TRUE(write_all_fd(FaultSite::kPipeWrite, fds[1], payload.data(),
                             payload.size()));
    EXPECT_GE(FaultInjector::instance().injected(FaultSite::kPipeWrite), 2u);
  }
  ::close(fds[1]);
  std::string got(payload.size(), '\0');
  std::size_t off = 0;
  ssize_t n = 0;
  while (off < got.size() &&
         (n = ::read(fds[0], got.data() + off, got.size() - off)) > 0) {
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  EXPECT_EQ(got, payload);
}

TEST(FaultShims, DisconnectFailsWithEpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ArmedFaults armed(
      one_rule(4, FaultSite::kClientWrite, FaultType::kDisconnect, 1.0));
  errno = 0;
  EXPECT_FALSE(write_all_fd(FaultSite::kClientWrite, fds[0], "hi", 2));
  EXPECT_EQ(errno, EPIPE);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(FaultShims, CorruptFrameFlipsExactlyOneByte) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(64, 'A');
  {
    ArmedFaults armed(one_rule(5, FaultSite::kPipeWrite,
                               FaultType::kCorruptFrame, 1.0,
                               /*max_faults=*/1));
    ASSERT_TRUE(write_all_fd(FaultSite::kPipeWrite, fds[1], payload.data(),
                             payload.size()));
  }
  ::close(fds[1]);
  std::string got(payload.size(), '\0');
  std::size_t off = 0;
  ssize_t n = 0;
  while (off < got.size() &&
         (n = ::read(fds[0], got.data() + off, got.size() - off)) > 0) {
    off += static_cast<std::size_t>(n);
  }
  ::close(fds[0]);
  int flipped = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (got[i] != payload[i]) {
      ++flipped;
      EXPECT_EQ(got[i], payload[i] ^ 0x20);
    }
  }
  EXPECT_EQ(flipped, 1);
}

// ------------------------------------------------- scheduler chaos matrix

struct MatrixEntry {
  FaultSite site;
  FaultType type;
  double rate{1.0};
  int max_faults{-1};
};

// Every meaningful (site, type) pair of the pipe/fork plane. EINTR storms
// are capped per rule (an unlimited 100%-EINTR schedule is a livelock by
// definition — the uncapped variant is covered by the deadline tests,
// where the single read budget bounds it). Worker hangs get their own
// timeout-bounded test below.
const MatrixEntry kSchedulerMatrix[] = {
    {FaultSite::kPipeWrite, FaultType::kShortWrite},
    {FaultSite::kPipeWrite, FaultType::kEintr, 1.0, 9},
    {FaultSite::kPipeWrite, FaultType::kIoError},
    {FaultSite::kPipeWrite, FaultType::kIoError, 0.5},
    {FaultSite::kPipeWrite, FaultType::kTruncateFrame},
    {FaultSite::kPipeWrite, FaultType::kCorruptFrame},
    {FaultSite::kPipeRead, FaultType::kEintr, 1.0, 9},
    {FaultSite::kPipeRead, FaultType::kIoError},
    {FaultSite::kPipePoll, FaultType::kEintr, 1.0, 9},
    {FaultSite::kPipePoll, FaultType::kIoError},
    {FaultSite::kFork, FaultType::kForkEagain},
    {FaultSite::kFork, FaultType::kForkEagain, 0.5},
};

TEST(ChaosMatrix, EveryFaultSiteRecoversToBitIdenticalResults) {
  // The headline robustness pin: for every (site, type) pair and every
  // seed, a fully-armed sharded run must still reassemble the grid
  // BIT-IDENTICALLY — worker deaths re-run, corrupt/truncated frames are
  // detected by the frame checksum and re-run, fork failures fall through
  // to the threaded in-process path. No typed errors, because nothing here
  // can make a cell unrecoverable.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  ShardOptions opts;
  opts.workers = 2;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 1;
  opts.read_timeout_ms = 60000;
  const ShardedCampaignScheduler sharded(runner, opts);

  const int seeds = fault_seeds();
  for (const MatrixEntry& entry : kSchedulerMatrix) {
    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(s);
      const std::string label =
          std::string(to_string(entry.site)) + " x " +
          to_string(entry.type) + " seed=" + std::to_string(seed);
      ArmedFaults armed(one_rule(seed, entry.site, entry.type, entry.rate,
                                 entry.max_faults,
                                 /*skip_ops=*/s % 3));
      const GridOutcome out = sharded.run_all_checked(specs, {});
      EXPECT_TRUE(out.errors.empty()) << label;
      EXPECT_FALSE(out.first_failure) << label;
      EXPECT_EQ(grid_bytes(out.results), reference) << label;
    }
  }
}

TEST(ChaosMatrix, EightFamilyGridSurvivesAMixedFaultPlan) {
  // The full 8-family registry grid (the test_service bit-identity
  // workload) under a plan that arms SEVERAL sites at once — corrupted
  // frames, failing forks and flaky parent reads in the same run.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  experiments::CampaignGridBuilder builder;
  builder.runs(2).seed(1122).modes({AttackMode::kNoSh});
  for (const auto& family : sim::ScenarioRegistry::global().keys()) {
    builder.scenarios({family})
        .vectors({experiments::transfer_vector_for(family)})
        .add_grid();
  }
  const auto specs = builder.build();
  ASSERT_GE(specs.size(), 8u);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));

  ShardOptions opts;
  opts.workers = 3;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 1;
  const ShardedCampaignScheduler sharded(runner, opts);
  FaultPlan plan;
  plan.seed = 77;
  plan.rules.push_back(
      {FaultSite::kPipeWrite, FaultType::kCorruptFrame, 0.2, -1, 0});
  plan.rules.push_back(
      {FaultSite::kFork, FaultType::kForkEagain, 0.5, -1, 0});
  plan.rules.push_back(
      {FaultSite::kPipeRead, FaultType::kIoError, 0.1, -1, 0});
  ArmedFaults armed(std::move(plan));
  const GridOutcome out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_EQ(grid_bytes(out.results), reference);
}

TEST(ChaosMatrix, SameSeedSameFaultSequenceAcrossRunsAndWorkerCounts) {
  // Reproducibility of the chaos itself: the same plan seed produces the
  // same store-failure pattern on every run (counter-based decisions), and
  // a different seed produces a different one. And whatever the fault
  // schedule does, results stay bit-identical at any worker count.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  auto store_pattern = [&](std::uint64_t seed) {
    CampaignCellCache cache({scratch_dir("chaos_pattern")});
    const CampaignResult r = runner.run(small_spec("pat", 1));
    ArmedFaults armed(
        one_rule(seed, FaultSite::kCacheWrite, FaultType::kIoError, 0.5));
    std::string pattern;
    for (int i = 0; i < 20; ++i) {
      pattern += cache.store(small_spec("pat", 1), r) ? '1' : '0';
    }
    return pattern;
  };
  const std::string p17 = store_pattern(17);
  EXPECT_EQ(p17, store_pattern(17));
  EXPECT_NE(p17, store_pattern(18));
  EXPECT_NE(p17.find('0'), std::string::npos);
  EXPECT_NE(p17.find('1'), std::string::npos);

  for (unsigned workers : {1u, 2u, 4u}) {
    ShardOptions opts;
    opts.workers = workers;
    opts.retry_backoff_ms = 1;
    const ShardedCampaignScheduler sharded(runner, opts);
    ArmedFaults armed(
        one_rule(9, FaultSite::kPipeWrite, FaultType::kIoError, 0.5));
    const GridOutcome out = sharded.run_all_checked(specs, {});
    EXPECT_TRUE(out.errors.empty()) << workers;
    EXPECT_EQ(grid_bytes(out.results), reference) << workers;
  }
}

TEST(ShardedScheduler, TotalForkFailureDegradesToThreadedExecution) {
  // fork() never succeeds: the grid must still complete bit-identically via
  // the in-process thread-pool fallback, with the degradation visible in
  // the registry instead of an exception.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  ShardOptions opts;
  opts.workers = 3;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 1;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  ArmedFaults armed(
      one_rule(2, FaultSite::kFork, FaultType::kForkEagain, 1.0));
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_GE(moved("rt_shard_fork_failures_total"), 3u);
  EXPECT_EQ(moved("rt_shard_forks_total"), 0u);
  EXPECT_EQ(moved("rt_shard_cells_recovered_in_process_total"), 4u);
}

TEST(ShardedScheduler, HungWorkerIsKilledWithinTheReadTimeout) {
  // A wedged worker (first pipe write blocks forever) must be detected by
  // the read timeout, killed, and its cells recovered — bounded wall time,
  // bit-identical results.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  ShardOptions opts;
  opts.workers = 2;
  opts.max_retries = 0;  // straight to the in-process fallback
  opts.read_timeout_ms = 250;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  ArmedFaults armed(one_rule(6, FaultSite::kPipeWrite, FaultType::kHang,
                             1.0, /*max_faults=*/1));
  const auto t0 = Clock::now();
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_GE(moved("rt_shard_worker_deaths_total"), 2u);
  EXPECT_LT(wall_s, 30.0) << "hang detection must be timeout-bounded";
}

TEST(ShardedScheduler, DeadlineExpiryYieldsTypedErrorsNotHangs) {
  // Every worker hangs AND the read timeout is far away: only the request
  // deadline bounds the run. Expiry must kill the workers and convert every
  // unfinished campaign into a kDeadlineExceeded record with NO partial
  // runs attached.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  ShardOptions opts;
  opts.workers = 2;
  opts.read_timeout_ms = 600000;
  const ShardedCampaignScheduler sharded(runner, opts);
  const CounterDelta moved;
  ArmedFaults armed(
      one_rule(8, FaultSite::kPipeWrite, FaultType::kHang, 1.0, 1));
  const auto deadline = Clock::now() + std::chrono::milliseconds(300);
  const auto t0 = Clock::now();
  const GridOutcome out = sharded.run_all_checked(specs, deadline);
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(wall_s, 30.0);
  EXPECT_EQ(moved("rt_shard_deadline_expirations_total"), 1u);
  ASSERT_EQ(out.errors.size(), specs.size());
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    EXPECT_EQ(out.errors[i].spec_index, i);
    EXPECT_EQ(out.errors[i].code, CampaignErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(out.results[i].runs.empty())
        << "an errored campaign must never carry partial runs";
  }
}

#if RT_OBS_TRACING
TEST(ShardedScheduler, TraceMergeSurvivesWorkerDeath) {
  // A worker dies mid-shard with spans still in its ring: those spans are
  // lost by design (the trace frame is the worker's LAST write), but the
  // merge must stay clean — no absorb failures, spans from the survivor and
  // the retry worker present, results bit-identical, and the death visible
  // in the metrics registry.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = chaos_grid();
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  const CounterDelta moved;
  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  ShardOptions opts;
  opts.workers = 2;
  opts.retry_backoff_ms = 1;
  opts.crash_shard = 0;       // first-wave worker for shard 0 ...
  opts.crash_after_cells = 1; // ... dies after streaming one cell
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto out = sharded.run_all_checked(specs, {});
  EXPECT_TRUE(out.errors.empty());
  EXPECT_FALSE(out.first_failure);
  const auto& results = out.results;
  obs::Tracer::global().disarm();

  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_GE(moved("rt_shard_worker_deaths_total"), 1u);
  EXPECT_GE(moved("rt_shard_retry_waves_total"), 1u);
  EXPECT_EQ(obs::Tracer::global().absorb_failures(), 0u);

  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::Tracer::global().render_chrome_trace());
  // Survivor + retry worker each shipped a shard_worker span; the dead
  // worker's ring never arrived.
  EXPECT_EQ(parsed.count_spans("shard_worker"), 2u);
  EXPECT_TRUE(parsed.has_span("shard_retry_wave"));
  const auto pids = parsed.span_pids();
  EXPECT_EQ(std::count(pids.begin(), pids.end(), 0u), 1) << "parent lane";
  EXPECT_EQ(pids.size(), 3u) << "parent + survivor + retry worker";
  obs::Tracer::global().clear();
}
#endif  // RT_OBS_TRACING

// ------------------------------------------------------ cell cache chaos

TEST(CellCacheFaults, StoreIoErrorsDeclineAndLeaveNoEntry) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("chaos_store_eio");
  CampaignCellCache cache({dir});
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);

  for (const FaultType type :
       {FaultType::kIoError, FaultType::kEnospc, FaultType::kEintr}) {
    SCOPED_TRACE(to_string(type));
    if (type == FaultType::kEintr) {
      // EINTR alone is absorbed by the write loop — the store SUCCEEDS.
      ArmedFaults armed(
          one_rule(11, FaultSite::kCacheWrite, type, 1.0, /*max=*/3));
      EXPECT_TRUE(cache.store(spec, fresh));
      fs::remove(cache.entry_path(spec));
      continue;
    }
    ArmedFaults armed(one_rule(11, FaultSite::kCacheWrite, type, 1.0));
    EXPECT_FALSE(cache.store(spec, fresh));
    EXPECT_FALSE(fs::exists(cache.entry_path(spec)))
        << "a declined store must not leave a live entry";
    EXPECT_EQ(tmp_files(dir), 0u)
        << "a declined store must not leak its tmp file";
  }
  EXPECT_GE(moved.cache("io_errors"), 2u);
  // Disarmed, the same store goes through durably.
  EXPECT_TRUE(cache.store(spec, fresh));
  ASSERT_TRUE(cache.lookup(spec).has_value());
}

TEST(CellCacheFaults, ShortWritesStillProduceADurableBitExactEntry) {
  // 100% short writes: write_all_fd keeps re-issuing the remainder, so the
  // entry lands complete — a torn tmp file can never become a live entry
  // because only a fully-written, fsynced tmp is renamed in.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("chaos_store_short")});
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);
  {
    ArmedFaults armed(one_rule(12, FaultSite::kCacheWrite,
                               FaultType::kShortWrite, 1.0));
    EXPECT_TRUE(cache.store(spec, fresh));
  }
  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(experiments::serialize_campaign_result(*hit),
            experiments::serialize_campaign_result(fresh));
}

TEST(CellCacheFaults, FsyncAndRenameFailuresDecline) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("chaos_store_sync");
  CampaignCellCache cache({dir});
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);
  {
    ArmedFaults armed(one_rule(13, FaultSite::kCacheFsync,
                               FaultType::kIoError, 1.0, /*max=*/1));
    EXPECT_FALSE(cache.store(spec, fresh));
  }
  {
    ArmedFaults armed(one_rule(13, FaultSite::kCacheRename,
                               FaultType::kIoError, 1.0));
    EXPECT_FALSE(cache.store(spec, fresh));
  }
  EXPECT_FALSE(fs::exists(cache.entry_path(spec)));
  EXPECT_EQ(tmp_files(dir), 0u) << "a declined store leaks no tmp file";
  EXPECT_EQ(moved.cache("io_errors"), 2u);
  EXPECT_EQ(moved.cache("stores"), 0u);
}

TEST(CellCacheFaults, ReadIoErrorIsAMissNeverAnException) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("chaos_read_eio")});
  const CampaignSpec spec = small_spec();
  ASSERT_TRUE(cache.store(spec, runner.run(spec)));
  {
    ArmedFaults armed(
        one_rule(14, FaultSite::kCacheRead, FaultType::kIoError, 1.0));
    EXPECT_FALSE(cache.lookup(spec).has_value());
  }
  EXPECT_EQ(moved.cache("io_errors"), 1u);
  EXPECT_EQ(moved.cache("misses"), 1u);
  // And EINTR storms (bounded) are absorbed entirely.
  {
    ArmedFaults armed(one_rule(14, FaultSite::kCacheRead, FaultType::kEintr,
                               1.0, /*max=*/5));
    EXPECT_TRUE(cache.lookup(spec).has_value());
  }
}

TEST(CellCacheFaults, ContentChecksumCatchesSingleFlippedByte) {
  // The regression the header-v2 checksum exists for: one flipped byte
  // inside a hex-encoded double can still deserialize cleanly — without
  // the checksum that is a silently WRONG cached result.
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("chaos_flip")});
  const CampaignSpec spec = small_spec();
  ASSERT_TRUE(cache.store(spec, runner.run(spec)));

  const std::string path = cache.entry_path(spec);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::size_t eol = blob.find('\n');
  ASSERT_NE(eol, std::string::npos);
  ASSERT_GT(blob.size(), eol + 64);
  blob[eol + 40] = blob[eol + 40] == '1' ? '2' : '1';  // payload byte flip
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << blob;
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("corrupt"), 1u);
}

TEST(CellCacheFaults, ZeroLengthAndV1EntriesAreCorruptAndStale) {
  const CounterDelta moved;
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("chaos_zero")});
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);

  // Zero-length file (a crash between open and write in some OTHER tool —
  // our own store can no longer produce one): corrupt, never served.
  { std::ofstream out(cache.entry_path(spec), std::ios::trunc); }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("corrupt"), 1u);

  // A well-formed pre-checksum v1 header: stale (format generation), not
  // corrupt — the bytes are fine, the format moved on.
  {
    std::ofstream out(cache.entry_path(spec), std::ios::trunc);
    char fp_hex[32];
    std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                  static_cast<unsigned long long>(
                      campaign_cell_fingerprint(spec)));
    out << "RTCACHE 1 " << kCampaignCodeVersion << ' ' << fp_hex << '\n'
        << experiments::serialize_campaign_result(fresh);
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(moved.cache("stale"), 1u);
  EXPECT_EQ(moved.cache("corrupt"), 1u);
}

// ------------------------------------------------- CampaignService chaos

TEST(CampaignServiceFaults, PersistentStoreFailuresLatchTheCacheOff) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("chaos_latch")};
  cfg.threads = 1;
  CampaignService svc(runner, cfg);
  const std::vector<CampaignSpec> specs{small_spec("a", 1),
                                        small_spec("b", 2),
                                        small_spec("c", 3)};
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all(specs));

  const CounterDelta moved;
  {
    ArmedFaults armed(
        one_rule(15, FaultSite::kCacheWrite, FaultType::kIoError, 1.0));
    const auto results = svc.run_grid(specs);
    svc.flush();  // the stores meet the armed faults
    EXPECT_EQ(grid_bytes(results), reference)
        << "a dead disk must not change results";
  }
  // Three failed stores in a row latch the cache off.
  EXPECT_TRUE(svc.cache_degraded());
  EXPECT_EQ(moved.cache("io_errors"), 3u);
  EXPECT_EQ(moved.cache("stores"), 0u);

  // Disk is healthy again, but the latch holds (no lookups, no stores):
  // results are still correct, just uncached.
  const CounterDelta latched;
  const auto again = svc.run_grid(specs);
  EXPECT_EQ(grid_bytes(again), reference);
  EXPECT_EQ(latched.cache("hits") + latched.cache("misses"), 0u);
  EXPECT_EQ(latched.cache("stores"), 0u);
}

TEST(CampaignServiceFaults, DeadlineProducesTypedErrorsInProcess) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.threads = 1;
  CampaignService svc(runner, cfg);
  GridRequest request;
  request.specs = chaos_grid();
  request.deadline_ms = 1e-6;  // expired before the first cell boundary
  const CounterDelta moved;
  const GridOutcome response = svc.run_grid_checked(request);
  ASSERT_EQ(response.errors.size(), request.specs.size());
  for (const auto& err : response.errors) {
    EXPECT_EQ(err.code, CampaignErrorCode::kDeadlineExceeded);
    EXPECT_TRUE(response.results[err.spec_index].runs.empty());
  }
  EXPECT_EQ(moved("rt_service_spec_errors_total"), request.specs.size());
}

TEST(CampaignServiceFaults, DeadlineProducesTypedErrorsSharded) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.shard.retry_backoff_ms = 1;
  CampaignService svc(runner, cfg);
  GridRequest request;
  request.specs = chaos_grid();
  request.deadline_ms = 1e-6;
  const GridOutcome response = svc.run_grid_checked(request);
  ASSERT_EQ(response.errors.size(), request.specs.size());
  for (const auto& err : response.errors) {
    EXPECT_EQ(err.code, CampaignErrorCode::kDeadlineExceeded);
  }
}

TEST(CampaignServiceFaults, CheckedRequestsMatchUncheckedBytes) {
  // run_grid_checked with no deadline and no faults is byte-for-byte the
  // historical run_grid — the checked path is a superset, not a fork.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.threads = 2;
  CampaignService svc(runner, cfg);
  GridRequest request;
  request.specs = chaos_grid();
  const GridOutcome response = svc.run_grid_checked(request);
  EXPECT_TRUE(response.errors.empty());
  EXPECT_EQ(grid_bytes(response.results),
            grid_bytes(CampaignScheduler(runner, 1).run_all(request.specs)));
}

TEST(CampaignServiceFaults, ExecutionFailureIsTypedAtTheFailingSpec) {
  // Every run of an unknown scenario throws. On each execution path the
  // request must come back with exactly one kExecutionFailed record at that
  // spec, carrying the runner's exception text and no partial runs, while
  // the good neighbour completes bit-identically and alone reaches the
  // cache. The spec is built by hand: CampaignGridBuilder rejects DS-99.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const CampaignSpec good = small_spec("good", 31);
  CampaignSpec bad = small_spec("bad", 32);
  bad.scenario = "DS-99";
  const std::vector<CampaignSpec> specs{good, bad};
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 1).run_all({good}));

  const auto check = [&](const ServiceConfig& cfg, const std::string& label) {
    CampaignService svc(runner, cfg);
    GridRequest request;
    request.specs = specs;
    const CounterDelta moved;
    const auto response = svc.run_grid_checked(request);
    ASSERT_EQ(response.errors.size(), 1u) << label;
    const auto& err = response.errors.front();
    EXPECT_EQ(err.spec_index, 1u) << label;
    EXPECT_EQ(err.code, CampaignErrorCode::kExecutionFailed) << label;
    EXPECT_NE(err.message.find("DS-99"), std::string::npos)
        << label << ": " << err.message;
    ASSERT_EQ(response.results.size(), 2u) << label;
    EXPECT_TRUE(response.results[1].runs.empty()) << label;
    EXPECT_EQ(grid_bytes({response.results[0]}), reference) << label;
    if (svc.cache() != nullptr) {
      svc.flush();
      EXPECT_EQ(moved.cache("stores"), 1u) << label;
      EXPECT_TRUE(svc.cache()->lookup(good).has_value()) << label;
      EXPECT_FALSE(svc.cache()->lookup(bad).has_value()) << label;
    }
    EXPECT_THROW((void)svc.run_grid(specs), std::out_of_range) << label;
  };

  ServiceConfig threaded;
  threaded.threads = 2;
  check(threaded, "threads=2");

  ServiceConfig sharded;
  sharded.workers = 2;
  sharded.shard.max_retries = 0;
  sharded.shard.retry_backoff_ms = 1;
  check(sharded, "workers=2");

  ServiceConfig cached;
  cached.threads = 2;
  cached.cache = CacheConfig{scratch_dir("chaos_exec_failed")};
  check(cached, "cache");
}

#ifdef RT_CAMPAIGN_SERVER_BIN

// ------------------------------------------------- campaign_server chaos
//
// These tests exec the REAL server binary over a Unix socket — the same
// artifact CI smokes — and drive it with raw-socket clients so client
// death, backpressure and shutdown behave exactly as in production.

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/rt_chaos_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

struct ServerProcess {
  pid_t pid{-1};
  std::string socket_path;

  bool start(const std::vector<std::string>& extra_args,
             const char* chaos = nullptr) {
    socket_path = unique_socket_path();
    ::unlink(socket_path.c_str());
    pid = ::fork();
    if (pid == 0) {
      if (chaos != nullptr) {
        ::setenv("RT_CHAOS", chaos, 1);
      } else {
        ::unsetenv("RT_CHAOS");
      }
      std::vector<std::string> args = {RT_CAMPAIGN_SERVER_BIN, "--socket",
                                       socket_path, "--no-oracles"};
      args.insert(args.end(), extra_args.begin(), extra_args.end());
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    // Wait for the socket to appear (or the child to die on startup).
    for (int i = 0; i < 1200; ++i) {
      if (::access(socket_path.c_str(), F_OK) == 0) return true;
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  /// Blocks for exit; returns the exit code (-1 on signal death).
  int wait_exit() {
    if (pid < 0) return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    pid = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~ServerProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      (void)::waitpid(pid, nullptr, 0);
    }
    if (!socket_path.empty()) ::unlink(socket_path.c_str());
  }
};

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::write(fd, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until `terminators` lines equal to "end" or "busy" arrived (or
/// timeout/EOF). Returns everything read.
std::string read_response(int fd, int terminators = 1,
                          int timeout_ms = 120000) {
  std::string text;
  std::string buffer;
  int seen = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (seen < terminators) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    if (left <= 0) break;
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, static_cast<int>(left));
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) break;
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol = 0;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol + 1);
      buffer.erase(0, eol + 1);
      text += line;
      if (line == "end\n" || line == "busy\n") ++seen;
    }
  }
  return text;
}

const char* kReqA = "run scenarios=DS-1 modes=RwoSH runs=2 seed=11";
const char* kReqB = "run scenarios=DS-1 modes=Golden runs=2 seed=22";

TEST(CampaignServer, ConcurrentClientsGetSerialBytesEvenWhenOneIsKilled) {
  ServerProcess server;
  ASSERT_TRUE(server.start({"--queue-limit", "16"}));

  // Serial reference: one client, both requests back to back.
  std::string serial_a;
  std::string serial_b;
  {
    const int fd = connect_unix(server.socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_line(fd, kReqA));
    serial_a = read_response(fd);
    ASSERT_TRUE(send_line(fd, kReqB));
    serial_b = read_response(fd);
    send_line(fd, "quit");
    ::close(fd);
  }
  ASSERT_NE(serial_a.find("end\n"), std::string::npos);
  ASSERT_NE(serial_b.find("end\n"), std::string::npos);
  ASSERT_NE(serial_a, serial_b);

  // Concurrent: two clients overlapping, while a third client is SIGKILLed
  // mid-stream (it sends a request and dies before reading the answer).
  const pid_t victim = ::fork();
  if (victim == 0) {
    const int fd = connect_unix(server.socket_path);
    if (fd >= 0) send_line(fd, kReqA);
    for (;;) ::pause();  // hold the connection open until SIGKILL
  }
  ASSERT_GT(victim, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ::kill(victim, SIGKILL);
  (void)::waitpid(victim, nullptr, 0);

  std::string got_a;
  std::string got_b;
  std::thread ta([&] {
    const int fd = connect_unix(server.socket_path);
    if (fd < 0) return;
    if (send_line(fd, kReqA)) got_a = read_response(fd);
    send_line(fd, "quit");
    ::close(fd);
  });
  std::thread tb([&] {
    const int fd = connect_unix(server.socket_path);
    if (fd < 0) return;
    if (send_line(fd, kReqB)) got_b = read_response(fd);
    send_line(fd, "quit");
    ::close(fd);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, serial_a)
      << "a killed client must not perturb survivors' bytes";
  EXPECT_EQ(got_b, serial_b);

  // Graceful shutdown via the protocol: exit code 0, socket removed.
  const int fd = connect_unix(server.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_line(fd, "shutdown"));
  EXPECT_EQ(server.wait_exit(), 0);
  ::close(fd);
  EXPECT_NE(::access(server.socket_path.c_str(), F_OK), 0)
      << "socket file must be unlinked on shutdown";
}

TEST(CampaignServer, BoundedQueueAnswersEveryRequestWithEndOrBusy) {
  ServerProcess server;
  ASSERT_TRUE(server.start({"--queue-limit", "1", "--threads", "1"}));
  const int fd = connect_unix(server.socket_path);
  ASSERT_GE(fd, 0);
  // Flood: more requests than the queue admits, in one burst. The
  // invariant is total accounting — every request is answered exactly
  // once, with rows+end (accepted) or busy (shed), and the server never
  // wedges.
  const int burst = 5;
  for (int i = 0; i < burst; ++i) ASSERT_TRUE(send_line(fd, kReqA));
  const std::string text = read_response(fd, burst);
  int ends = 0;
  int busys = 0;
  std::size_t pos = 0;
  std::string rest = text;
  for (std::size_t eol = 0; (eol = rest.find('\n')) != std::string::npos;
       rest.erase(0, eol + 1)) {
    const std::string line = rest.substr(0, eol);
    if (line == "end") ++ends;
    if (line == "busy") ++busys;
  }
  (void)pos;
  EXPECT_EQ(ends + busys, burst);
  EXPECT_GE(ends, 1) << "at least the first request must execute";

  send_line(fd, "shutdown");
  EXPECT_EQ(server.wait_exit(), 0);
  ::close(fd);
}

TEST(CampaignServer, SigtermDrainsAndExitsZero) {
  ServerProcess server;
  ASSERT_TRUE(server.start({}));
  const int fd = connect_unix(server.socket_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_line(fd, kReqA));
  const std::string response = read_response(fd);
  EXPECT_NE(response.find("end\n"), std::string::npos);
  ::kill(server.pid, SIGTERM);
  EXPECT_EQ(server.wait_exit(), 0);
  ::close(fd);
  EXPECT_NE(::access(server.socket_path.c_str(), F_OK), 0);
}

TEST(CampaignServer, DeadlineFieldYieldsTypedErrorRecords) {
  ServerProcess server;
  ASSERT_TRUE(server.start({"--threads", "1"}));
  const int fd = connect_unix(server.socket_path);
  ASSERT_GE(fd, 0);
  // A big grid with a 1 ms budget: the response must be typed deadline
  // errors (and a terminator), not a hang and not partial rows.
  ASSERT_TRUE(send_line(
      fd, "run scenarios=DS-1 modes=RwoSH runs=200 seed=3 deadline_ms=1"));
  const std::string response = read_response(fd);
  EXPECT_NE(response.find("error deadline-exceeded"), std::string::npos)
      << response;
  EXPECT_NE(response.find("end\n"), std::string::npos);
  send_line(fd, "shutdown");
  EXPECT_EQ(server.wait_exit(), 0);
  ::close(fd);
}

TEST(CampaignServer, RtChaosClientWriteFaultDropsOneClientNotTheServer) {
  // RT_CHAOS arms the injector inside the real server process: the first
  // client write fails (disconnect), that client is dropped, and the NEXT
  // client is served normally — client death (real or injected) is never
  // fatal to the service.
  ServerProcess server;
  ASSERT_TRUE(server.start(
      {}, "seed=5 site=client-write type=disconnect rate=1.0 max=1"));

  const int first = connect_unix(server.socket_path);
  ASSERT_GE(first, 0);
  ASSERT_TRUE(send_line(first, kReqA));
  // The injected fault eats the server's response write: we see EOF or
  // nothing, never a partial frame followed by a hang.
  const std::string dropped = read_response(first, 1, 30000);
  EXPECT_EQ(dropped.find("end\n"), std::string::npos);
  ::close(first);

  const int second = connect_unix(server.socket_path);
  ASSERT_GE(second, 0);
  ASSERT_TRUE(send_line(second, kReqA));
  const std::string served = read_response(second);
  EXPECT_NE(served.find("end\n"), std::string::npos)
      << "the fault budget (max=1) is spent; the next client must be served";
  send_line(second, "shutdown");
  EXPECT_EQ(server.wait_exit(), 0);
  ::close(second);
}

#endif  // RT_CAMPAIGN_SERVER_BIN

}  // namespace
}  // namespace rt::service
