#pragma once

// Shared helpers for the benchmark/reproduction binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/reporting.hpp"
#include "experiments/sh_training.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/campaign_service.hpp"

namespace rt::bench {

/// Loads (or trains once and caches under data/) the three per-vector
/// safety-hijacker oracles.
inline experiments::OracleSet oracles(const experiments::LoopConfig& loop) {
  experiments::ShTrainingConfig cfg;
  return experiments::load_or_train_oracles(
      experiments::default_cache_dir(), loop, cfg);
}

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Shared CLI options of the grid drivers. Defaults come from the
/// environment knobs (ROBOTACK_RUNS / ROBOTACK_THREADS) so existing
/// invocations keep working; flags override the environment.
struct BenchOptions {
  int runs{60};  ///< paper uses 131-185; sized to keep drivers ~a minute
  unsigned threads{0};  ///< 0 = one thread per hardware core
  std::uint64_t seed{0};
  std::string csv_path;   ///< empty = no CSV output
  std::string json_path;  ///< empty = no JSON perf records
  std::string cache_dir;  ///< empty = no result cache
  unsigned workers{0};    ///< forked grid workers; 0 = in-process threads
  std::string trace_path;    ///< Chrome trace JSON written on exit
  std::string metrics_path;  ///< Prometheus metrics text written on exit
};

/// How a driver runs its grid, which decides whether it takes the service
/// flags (--cache-dir, --workers).
enum class GridRoute {
  kService,    ///< through make_service: the flags pick cache and workers
  kInProcess,  ///< in-process only: the flags are usage errors
};

/// Parses --runs N, --seed S, --threads T, --csv PATH, --json PATH,
/// --trace PATH, --metrics PATH, --help, and for service-routed drivers
/// --cache-dir PATH and --workers N. Numbers are strict
/// (experiments::parse_uint): runs in [1, INT_MAX], threads and workers in
/// [0, 4096], for the flags and the ROBOTACK_RUNS / ROBOTACK_THREADS knobs
/// alike. Unknown flags, missing values and bad numbers print usage and
/// exit 2.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::uint64_t default_seed,
                                  GridRoute route = GridRoute::kService) {
  const bool service = route == GridRoute::kService;
  BenchOptions opts;
  opts.seed = default_seed;
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--runs N] [--seed S] [--threads T] [--csv PATH] "
                 "[--json PATH]%s [--trace PATH] [--metrics PATH]\n"
                 "  --runs N     runs per campaign (default %d; env ROBOTACK_RUNS)\n"
                 "  --seed S     base campaign seed (default %llu)\n"
                 "  --threads T  campaign-engine threads, 0 = per core "
                 "(env ROBOTACK_THREADS)\n"
                 "  --csv PATH   also write the result table as CSV\n"
                 "  --json PATH  also write machine-readable perf records\n"
                 "%s"
                 "  --trace PATH    arm span tracing, write a Chrome trace "
                 "JSON on exit (env RT_TRACE=PATH)\n"
                 "  --metrics PATH  write the final metrics snapshot as "
                 "Prometheus text on exit\n",
                 argv[0], service ? " [--cache-dir PATH] [--workers N]" : "",
                 opts.runs,
                 static_cast<unsigned long long>(default_seed),
                 service ? "  --cache-dir PATH  campaign result cache "
                           "(empty = off)\n"
                           "  --workers N  forked grid worker processes "
                           "(0 = in-process threads)\n"
                         : "");
  };
  // A bad number is a usage error, never a silent 0 or a wrapped -1.
  const auto number = [&](const char* what, const char* text,
                          std::uint64_t lo, std::uint64_t hi) {
    const auto parsed = experiments::parse_uint(text, lo, hi);
    if (!parsed) {
      std::fprintf(stderr, "%s: %s expects an integer in [%llu, %llu], got "
                   "'%s'\n", argv[0], what, static_cast<unsigned long long>(lo),
                   static_cast<unsigned long long>(hi), text);
      usage(stderr);
      std::exit(2);
    }
    return *parsed;
  };
  constexpr std::uint64_t kMaxRuns = std::numeric_limits<int>::max();
  constexpr std::uint64_t kMaxThreads = 4096;
  if (const char* env = std::getenv("ROBOTACK_RUNS")) {
    opts.runs = std::max(
        4, static_cast<int>(number("ROBOTACK_RUNS", env, 1, kMaxRuns)));
  }
  if (const char* env = std::getenv("ROBOTACK_THREADS")) {
    opts.threads = static_cast<unsigned>(
        number("ROBOTACK_THREADS", env, 0, kMaxThreads));
  }
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    if (!service && (std::strcmp(flag, "--cache-dir") == 0 ||
                     std::strcmp(flag, "--workers") == 0)) {
      std::fprintf(stderr, "%s: %s is not supported: this driver runs its "
                   "grid in-process only\n", argv[0], flag);
      usage(stderr);
      std::exit(2);
    }
    if (std::strcmp(flag, "--runs") == 0) {
      opts.runs = static_cast<int>(number(flag, value(), 1, kMaxRuns));
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = number(flag, value(), 0,
                         std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(flag, "--threads") == 0) {
      opts.threads =
          static_cast<unsigned>(number(flag, value(), 0, kMaxThreads));
    } else if (std::strcmp(flag, "--csv") == 0) {
      opts.csv_path = value();
    } else if (std::strcmp(flag, "--json") == 0) {
      opts.json_path = value();
    } else if (std::strcmp(flag, "--cache-dir") == 0) {
      opts.cache_dir = value();
    } else if (std::strcmp(flag, "--workers") == 0) {
      opts.workers =
          static_cast<unsigned>(number(flag, value(), 0, kMaxThreads));
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.trace_path = value();
    } else if (std::strcmp(flag, "--metrics") == 0) {
      opts.metrics_path = value();
    } else if (std::strcmp(flag, "--help") == 0 ||
               std::strcmp(flag, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag);
      usage(stderr);
      std::exit(2);
    }
  }
  // Arm tracing before any instrumented work runs: RT_TRACE=PATH or
  // --trace PATH (the flag wins for the output path).
  if (!obs::Tracer::global().arm_from_env() && !opts.trace_path.empty()) {
    obs::Tracer::global().arm();
  }
  if (opts.trace_path.empty()) {
    opts.trace_path = obs::Tracer::global().env_path();
  }
  return opts;
}

/// Shared observability epilogue: writes the Chrome trace (when tracing
/// was armed) and/or the Prometheus metrics snapshot, confirming paths on
/// stdout like the CSV/JSON epilogues do. Call once, after the last
/// instrumented work of the driver.
inline void finish_observability(const BenchOptions& opts) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.armed() && !opts.trace_path.empty()) {
    if (tracer.write_chrome_trace(opts.trace_path)) {
      std::printf("wrote %s (%zu spans, %llu dropped)\n",
                  opts.trace_path.c_str(), tracer.span_count(),
                  static_cast<unsigned long long>(tracer.dropped_spans()));
    } else {
      std::fprintf(stderr, "failed to write trace %s\n",
                   opts.trace_path.c_str());
    }
  }
  if (!opts.metrics_path.empty()) {
    const std::string text =
        obs::render_prometheus(obs::MetricsRegistry::global().snapshot());
    std::FILE* f = std::fopen(opts.metrics_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", opts.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics %s\n",
                   opts.metrics_path.c_str());
    }
  }
}

/// Shared CSV epilogue of the grid drivers: writes the table when --csv
/// was given and confirms the path on stdout.
inline void maybe_write_csv(const BenchOptions& opts,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (opts.csv_path.empty()) return;
  experiments::write_csv(opts.csv_path, header, rows);
  std::printf("wrote %s\n", opts.csv_path.c_str());
}

/// Builds the CampaignService implied by --cache-dir/--workers (plus
/// --threads for in-process misses). The service outlives the returned
/// executor, so drivers keep it alive for the whole grid run.
inline std::unique_ptr<service::CampaignService> make_service(
    const experiments::CampaignRunner& runner, const BenchOptions& opts) {
  service::ServiceConfig cfg;
  if (!opts.cache_dir.empty()) {
    cfg.cache = service::CacheConfig{opts.cache_dir};
  }
  cfg.workers = opts.workers;
  cfg.threads = opts.threads;
  return std::make_unique<service::CampaignService>(runner, cfg);
}

/// Shared grid-run epilogue for drivers that route through a service:
/// reports what the service did since `before` (a registry snapshot taken
/// when the pass began) — cache traffic when a cache was configured, and
/// worker forks, deaths and retry waves when misses ran on forked workers.
inline void report_service_stats(const service::CampaignService& svc,
                                 const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  const auto delta = [&](const char* name) {
    return static_cast<unsigned long long>(after.counter(name) -
                                           before.counter(name));
  };
  if (svc.config().cache) {
    std::printf("cache: hits=%llu misses=%llu stale=%llu corrupt=%llu "
                "(dir %s)\n",
                delta("rt_campaign_cache_hits_total"),
                delta("rt_campaign_cache_misses_total"),
                delta("rt_campaign_cache_stale_total"),
                delta("rt_campaign_cache_corrupt_total"),
                svc.config().cache->dir.c_str());
  }
  if (svc.config().workers >= 1) {
    std::printf("workers: %llu forked, %llu deaths, %llu retries\n",
                delta("rt_shard_forks_total"),
                delta("rt_shard_worker_deaths_total"),
                delta("rt_shard_retry_waves_total"));
  }
}

/// Shared JSON epilogue: writes the perf records when --json was given and
/// confirms the path on stdout. CI uses this to track the perf trajectory
/// across PRs (BENCH_campaign.json).
inline void maybe_write_bench_json(
    const BenchOptions& opts,
    const std::vector<experiments::BenchJsonRecord>& records) {
  if (opts.json_path.empty()) return;
  experiments::write_bench_json(opts.json_path, records);
  std::printf("wrote %s\n", opts.json_path.c_str());
}

}  // namespace rt::bench
