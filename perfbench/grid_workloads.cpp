// table2_1t and defense_2t: whole campaign grids through the public
// CampaignService::run_grid entry point, without a result cache.
//
// Both modes cycle through a pool of distinct grids for the run's duration,
// each grid on its own seed (grid 0 is the workload seed's and is checked
// against the pinned digest). Untraced (--trace 0) that is all. Traced
// (--trace 1) every request is followed by a CellProbe of each of its
// cells, serially. The grids run without a cache and serve no hits, so
// their service.* hit figures are fixed: hit ratio, stores and hit latencies
// are 0. They have no server either, so service.miss_p90_ms is 0 too.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "defense/monitor_registry.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/sh_training.hpp"
#include "experiments/transfer_matrix.hpp"
#include "service/campaign_service.hpp"
#include "traced_cell.hpp"

namespace perfbench {

namespace ex = rt::experiments;
namespace svc = rt::service;

namespace {

constexpr int kSetups = 5;
constexpr std::size_t kPoolSize = 10;
constexpr unsigned kDefenseThreads = 2;
constexpr int kMinRepeats = 3;
constexpr int kCacheReadSamples = 300;

/// The attack-vs-defense matrix exactly as run_defense_grid builds it:
/// every family x its natural vector x {R, RwoSH, Golden} x every monitor.
std::vector<ex::CampaignSpec> defense_specs(int runs, std::uint64_t seed) {
  ex::CampaignGridBuilder builder;
  builder.runs(runs)
      .seed(seed)
      .modes({ex::AttackMode::kRobotack, ex::AttackMode::kNoSh,
              ex::AttackMode::kGolden})
      .monitors(rt::defense::MonitorRegistry::global().keys());
  for (const auto& family : rt::sim::ScenarioRegistry::global().keys()) {
    builder.scenarios({family})
        .vectors({ex::transfer_vector_for(family)})
        .add_grid();
  }
  return builder.build();
}

int total_runs(const std::vector<ex::CampaignSpec>& specs) {
  int n = 0;
  for (const auto& s : specs) n += s.runs;
  return n;
}

bool complete(const std::vector<ex::CampaignSpec>& specs,
              const std::vector<ex::CampaignResult>& results) {
  if (results.size() != specs.size()) return false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (results[i].n() != specs[i].runs ||
        results[i].spec.name != specs[i].name) {
      return false;
    }
  }
  return true;
}

}  // namespace

void measure_cache_reads(const std::string& dir,
                         const std::vector<ex::CampaignSpec>& specs,
                         Report& report) {
  std::vector<double> lookup_us;
  std::vector<double> decode_us;
  svc::CampaignCellCache cache(svc::CacheConfig{dir});
  for (int i = 0; i < kCacheReadSamples && !specs.empty(); ++i) {
    const auto& spec = specs[static_cast<std::size_t>(i) % specs.size()];
    const std::uint64_t t0 = now_ns();
    const auto hit = cache.lookup(spec);
    lookup_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!hit) {
      report.fail("cache lookup missed a stored spec " + spec.name);
      continue;
    }
    std::ifstream in(cache.entry_path(spec), std::ios::binary);
    std::stringstream blob;
    blob << in.rdbuf();
    const std::string text = blob.str();
    const std::string payload = text.substr(text.find('\n') + 1);
    const std::uint64_t t1 = now_ns();
    const ex::CampaignResult decoded =
        ex::deserialize_campaign_result(payload);
    decode_us.push_back(static_cast<double>(now_ns() - t1) / 1e3);
    if (decoded.n() != hit->n()) report.fail("decode differs from lookup");
  }
  report.add("service.cache_lookup_us", median(lookup_us), "us");
  report.add("experiments.serde_decode_us", median(decode_us), "us");
}

int run_grid_workload(const Options& opts, Report& report) {
  const bool table2 = opts.workload == "table2_1t";
  // The defense matrix runs on 2 threads. On the shared 4-core container
  // this was tuned on, its runs_per_s moved by 1% between runs of the same
  // code on 1 thread and by 4% on 2, but by 17-30% on 3 or 4 threads: the
  // host gave this guest about two steady cores.
  const unsigned threads = table2 ? 1u : kDefenseThreads;
  // Grid sizes: about 100 ms (table2) and 120 ms (defense) per request on
  // that container, so a 25 s run times each grid of the pool about 20
  // times.
  const int runs_per = table2 ? 8 : 1;
  const auto build_specs = [&](std::uint64_t seed) {
    return table2 ? ex::table2_campaigns(runs_per, seed)
                  : defense_specs(runs_per, seed);
  };
  std::printf("workload %s: %u thread(s), %d runs per campaign\n",
              opts.workload.c_str(), threads, runs_per);

  // Set-up, repeated: train the three oracles into an empty directory,
  // build the runner and the service, build the first grid. Every set-up
  // is timed from its own start; process launch is reported on its own.
  print_launch(opts);
  const ex::LoopConfig loop;
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::unique_ptr<ex::CampaignRunner> runner;
  std::unique_ptr<svc::CampaignService> service;
  std::vector<ex::CampaignSpec> specs;
  for (int k = 0; k < kSetups; ++k) {
    const std::uint64_t start = now_ns();
    const std::string dir = "oracles-" + std::to_string(k);
    fresh_dir(dir);
    const std::uint64_t t_train = now_ns();
    ex::OracleSet oracles =
        ex::load_or_train_oracles(dir, loop, ex::ShTrainingConfig{});
    train_s.push_back(static_cast<double>(now_ns() - t_train) / 1e9);
    service.reset();
    runner = std::make_unique<ex::CampaignRunner>(loop, std::move(oracles));
    svc::ServiceConfig cfg;
    cfg.threads = threads;
    service = std::make_unique<svc::CampaignService>(*runner, cfg);
    specs = build_specs(opts.seed);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  // The timed phase cycles through a pool of distinct grids built from the
  // seed (grid 0 is the workload seed's grid) and keeps each grid's fastest
  // request. On the shared host this was tuned on, other tenants slowed the
  // same request by up to 2x in bursts of seconds, so a run's median request
  // moved by over 25% between runs; the fastest of a grid's repeats moved
  // far less. A change to the program moves every repeat, the fastest too.
  // A short reference job before every request tracks the host's own speed:
  // the fastest times are scaled by its nominal over its fastest time.
  std::vector<std::vector<ex::CampaignSpec>> pool{specs};
  while (pool.size() < kPoolSize) {
    pool.push_back(build_specs(rep_seed(opts.seed, pool.size())));
  }
  std::vector<double> fastest_ms(pool.size(), 0.0);
  std::vector<int> repeats(pool.size(), 0);
  std::vector<double> wall_ms;  // every completed request, as served
  std::vector<double> exec_ms;
  long runs_done = 0;
  std::vector<ex::CampaignResult> first;
  CellProbe probe(*runner);
  StageTotals first_grid;  // the workload seed's grid: exact counts
  bool probe_warm = false;
  double timed_wall_s = 0.0;
  double reference_fastest_ms = 0.0;
  const std::uint64_t phase_start = now_ns();
  const auto deadline =
      phase_start + static_cast<std::uint64_t>(opts.seconds * 1e9);
  for (std::size_t i = 0;; ++i) {
    const std::size_t g = i % pool.size();
    const auto& grid = pool[g];
    report.attempt();
    std::vector<ex::CampaignResult> results;
    const double ref = static_cast<double>(reference_job_ns()) / 1e6;
    reference_fastest_ms = i == 0 ? ref : std::min(reference_fastest_ms, ref);
    const std::uint64_t t0 = now_ns();
    try {
      results = service->run_grid(grid);
    } catch (const std::exception& e) {
      report.fail(std::string("grid request threw: ") + e.what());
      if (now_ns() >= deadline) break;
      continue;
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    timed_wall_s += ms / 1e3;
    if (!complete(grid, results)) {
      report.fail("grid request returned incomplete results");
    } else {
      fastest_ms[g] = repeats[g] == 0 ? ms : std::min(fastest_ms[g], ms);
      ++repeats[g];
      wall_ms.push_back(ms);
      exec_ms.push_back(service->last_request().wall_ms);
      runs_done += total_runs(grid);
    }
    if (i == 0) {
      first = results;
      const std::string digest = hex64(grid_digest(results));
      std::printf("grid digest (seed %llu): %s\n",
                  static_cast<unsigned long long>(opts.seed), digest.c_str());
      if (!opts.expect_digest.empty() && digest != opts.expect_digest) {
        report.fail("grid digest " + digest + " != pinned " +
                    opts.expect_digest);
      }
    }
    if (opts.trace) {
      if (!probe_warm) {
        // First-call registrations and per-thread workspaces allocate once
        // per process; keep them out of the per-run allocation count.
        (void)runner->run_one(grid.front(), 0);
        probe_warm = true;
      }
      probe.probe_grid(grid, SIZE_MAX, report);
      if (i == 0) first_grid = probe.totals();
    }
    if (now_ns() >= deadline) break;
  }
  const double phase_s = static_cast<double>(now_ns() - phase_start) / 1e9;
  std::printf("timed: %zu grid requests in %.2f s\n", wall_ms.size(),
              phase_s);
  std::printf("as served: %.2f runs/s, request p50 %.2f ms\n",
              static_cast<double>(runs_done) / timed_wall_s, median(wall_ms));

  if (!opts.trace) {
    const auto [fewest, most] = std::minmax_element(repeats.begin(),
                                                    repeats.end());
    std::printf("samples: %zu grids, each timed %d to %d times, %d setups\n",
                pool.size(), *fewest, *most, kSetups);
    report.gate(*fewest >= kMinRepeats,
                "every grid in the pool must be timed at least " +
                    std::to_string(kMinRepeats) + " times");
    double fastest_s = 0.0;
    long pool_runs = 0;
    for (std::size_t g = 0; g < pool.size(); ++g) {
      fastest_s += fastest_ms[g] / 1e3;
      pool_runs += total_runs(pool[g]);
    }
    std::printf("host: reference job fastest %.4f ms (nominal %.4f), "
                "unscaled %.2f runs/s\n",
                reference_fastest_ms, kReferenceNominalMs,
                static_cast<double>(pool_runs) / fastest_s);
    const double scale = kReferenceNominalMs / reference_fastest_ms;
    fastest_s *= scale;
    for (auto& f : fastest_ms) f *= scale;
    report.add("setup_s", median(setup_s), "s");
    report.add("runs_per_s", static_cast<double>(pool_runs) / fastest_s,
               "1/s");
    report.add("requests_per_s", static_cast<double>(pool.size()) / fastest_s,
               "1/s");
    report.add("miss_p50_ms", percentile(fastest_ms, 0.5), "ms");
    report.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    return 0;
  }

  const StageTotals& t = probe.totals();
  std::printf("traced: %llu cells, %llu frames, coverage %.4f\n",
              static_cast<unsigned long long>(t.cells),
              static_cast<unsigned long long>(t.frames), t.coverage());
  report.gate(t.byte_mismatches == 0,
              "traced cells must serialize byte-identically to run_one");
  report.gate(t.mot_mismatched_frames == 0,
              "MOT replay must equal the ADS camera tracks on every frame");
  report.gate(t.coverage() >= 0.9,
              "stages must cover at least 90% of traced cell time");
  // The per-run allocation count must repeat exactly.
  report.gate(run_one_allocations(*runner, specs.front(), 0) ==
                  run_one_allocations(*runner, specs.front(), 0),
              "allocations per run must repeat exactly");
  add_stage_metrics(t, first_grid, report);
  report.add("runtime.parallel_efficiency",
             static_cast<double>(t.ref_ns) / 1e9 /
                 (static_cast<double>(threads) * timed_wall_s),
             "ratio");
  report.add("nn.oracle_train_s", median(train_s), "s");
  // No cache: every grid request is a fresh miss and nothing is stored.
  report.add("service.hit_share", 0.0, "ratio");
  report.add("service.partial_share", 0.0, "ratio");
  report.add("service.fresh_share", 1.0, "ratio");
  report.add("service.hit_ratio", 0.0, "ratio");
  report.add("service.cache_stores", 0.0, "count");
  report.add("service.shard_retries",
             static_cast<double>(service->shard_stats().shard_retries),
             "count");
  report.add("service.exec_ms_p50", median(exec_ms), "ms");
  std::vector<double> overhead;
  for (std::size_t i = 0; i < wall_ms.size(); ++i) {
    overhead.push_back(wall_ms[i] - exec_ms[i]);
  }
  report.add("service.overhead_ms_p50", median(overhead), "ms");
  report.add("service.hit_p50_ms", 0.0, "ms");
  report.add("service.hit_p90_ms", 0.0, "ms");
  report.add("service.miss_p90_ms", 0.0, "ms");
  // The two public cache read calls, timed on this workload's results:
  // the first grid is stored straight into a cache directory for them.
  fresh_dir("cache");
  svc::CampaignCellCache cache(svc::CacheConfig{"cache"});
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!cache.store(specs[i], first[i])) {
      report.fail("cache store failed for " + specs[i].name);
    }
  }
  measure_cache_reads("cache", specs, report);
  return 0;
}

}  // namespace perfbench
