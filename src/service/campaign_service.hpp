#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "experiments/campaign.hpp"
#include "service/cell_cache.hpp"
#include "service/sharded_scheduler.hpp"

namespace rt::service {

/// How a CampaignService executes and caches grids.
struct ServiceConfig {
  /// Content-hash result cache; nullopt = always re-run.
  std::optional<CacheConfig> cache{};
  /// Forked worker processes for cache-miss execution. 0 = in-process
  /// CampaignScheduler (with `threads` threads); >= 1 = the multi-process
  /// ShardedCampaignScheduler with this many workers.
  unsigned workers{0};
  /// Thread count of the in-process scheduler when workers == 0
  /// (0 = one per hardware core).
  unsigned threads{0};
  /// Sharder knobs (its `workers` field is overridden by `workers` above).
  ShardOptions shard{};
};

/// One grid request with per-request execution controls.
struct GridRequest {
  std::vector<experiments::CampaignSpec> specs;
  /// Wall-clock budget for the whole request; 0 = unbounded. On expiry,
  /// execution stops at the next cell boundary and every unfinished
  /// campaign becomes a kDeadlineExceeded error record.
  double deadline_ms{0.0};
};

/// The campaign-as-a-service facade: one long-lived object that answers
/// grid requests, consulting the content-hash cache first and executing
/// only the misses (in-process or via forked shards), then storing fresh
/// results back. Because cache entries round-trip bit-exactly and both
/// executors honour the counter-based seeding contract, any mix of cached
/// and freshly-computed cells is indistinguishable from a cold in-process
/// run of the whole grid.
///
/// The service hands its cache an oracle key folded from each deployed
/// oracle's content hash (CacheConfig::oracle_key), so services with
/// different oracles never serve each other's results from a shared
/// directory (see campaign_cell_fingerprint for what the cache still
/// leaves out).
///
/// The service degrades, never dies: fork failure falls back to threaded
/// execution (inside the sharder), cache IO errors are absorbed and — after
/// three consecutive failed stores — latch the cache off for the service's
/// remaining lifetime (a full disk would otherwise add a failing write +
/// fsync to every spec of every request, forever; execution continues
/// uncached), and a request deadline turns unfinished campaigns into typed
/// error records (run_grid_checked).
///
/// Requests, cache hits and errors are counted in the metrics registry
/// (`rt_service_*_total`), next to the cache's and the sharder's counters.
class CampaignService {
 public:
  CampaignService(const experiments::CampaignRunner& runner,
                  ServiceConfig config);

  /// Runs (or recalls) every spec; results in spec order. Rethrows the
  /// first execution failure (run_grid_checked degrades to typed errors
  /// instead).
  [[nodiscard]] std::vector<experiments::CampaignResult> run_grid(
      const std::vector<experiments::CampaignSpec>& specs);

  /// Like run_grid, but honours the request deadline and degrades instead
  /// of throwing: campaigns that cannot be completed come back as typed
  /// error records next to the completed results.
  [[nodiscard]] experiments::GridOutcome run_grid_checked(
      const GridRequest& request);

  /// Wall time and shard retry waves of the most recent request, read by
  /// perfbench's in-process grid workloads (`last_request().wall_ms`,
  /// `shard_stats().shard_retries`). Every count lives in the metrics
  /// registry; `shard_retries` is the request's delta of
  /// `rt_shard_retry_waves_total`.
  struct LastRequest {
    double wall_ms{0.0};
    std::uint64_t shard_retries{0};
  };
  [[nodiscard]] const LastRequest& last_request() const { return last_; }
  [[nodiscard]] const LastRequest& shard_stats() const { return last_; }

  /// The cache, or nullptr when caching is off.
  [[nodiscard]] CampaignCellCache* cache() { return cache_.get(); }

  /// True once consecutive failed stores latched the cache off.
  [[nodiscard]] bool cache_degraded() const { return cache_degraded_; }

  /// This service as the experiments::GridExecutor that the grid
  /// harnesses (defense grid, scenario search) run on; they know nothing
  /// about rt::service.
  [[nodiscard]] experiments::GridExecutor executor();

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  const experiments::CampaignRunner& runner_;
  ServiceConfig config_;
  std::unique_ptr<CampaignCellCache> cache_;
  LastRequest last_;
  int cache_fail_streak_{0};
  bool cache_degraded_{false};
};

}  // namespace rt::service
