#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
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
  /// execution stops at the next drive boundary and every unfinished
  /// campaign becomes a kDeadlineExceeded error record.
  double deadline_ms{0.0};
};

/// The campaign-as-a-service facade: one long-lived object that answers
/// grid requests, consulting the content-hash cache first and executing
/// only the misses (in-process or via forked shards). Because cache entries
/// round-trip bit-exactly and both executors honour the counter-based
/// seeding contract, any mix of cached and freshly-computed cells is
/// indistinguishable from a cold in-process run of the whole grid.
///
/// Replies do not wait for the disk. The grid's completion hook (one
/// commit path for both executors) only *stages* each fresh campaign the
/// moment its last cell lands: it is queued in memory, and one committer
/// thread, started only when the service has a cache, makes it durable
/// through CampaignCellCache::store (temp file, fsync, rename, directory
/// fsync) while the request goes on and replies. At most kMaxStaged
/// campaigns wait at once; past that the hook waits for a commit, so a
/// slow disk slows execution down to its pace instead of growing memory.
/// A lookup of a staged spec is served from memory and counted as a cache
/// hit (and as a staged hit), so a repeat that arrives before the commit
/// still hits. flush() and the destructor drain the committer. A crash
/// before a commit loses only cache entries, never an answer already
/// served.
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
/// uncached, and campaigns still staged are dropped), and a request
/// deadline turns unfinished campaigns into typed error records
/// (run_grid_checked).
///
/// Requests, cache hits and errors are counted in the metrics registry
/// (`rt_service_*_total`), next to the cache's and the sharder's counters;
/// the `rt_campaign_cache_commit_queue` gauge holds the campaigns staged
/// and not yet committed.
class CampaignService {
 public:
  /// Most campaigns staged and not yet committed (the one being stored
  /// included); staging one more waits for a commit.
  static constexpr std::size_t kMaxStaged = 64;

  CampaignService(const experiments::CampaignRunner& runner,
                  ServiceConfig config);
  /// Drains the committer: every staged campaign is committed first.
  ~CampaignService();
  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

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

  /// Blocks until every campaign staged so far is committed to the cache
  /// (or declined): afterwards the entries are on disk, byte-equal to what
  /// a synchronous CampaignCellCache::store writes, and the cache counters
  /// and the latch reflect them. Returns at once without a cache.
  void flush();

  /// This service as the experiments::GridExecutor that the grid
  /// harnesses (defense grid, scenario search) run on; they know nothing
  /// about rt::service.
  [[nodiscard]] experiments::GridExecutor executor();

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  /// A finished campaign waiting for its durable store, under its spec's
  /// canonical bytes.
  struct Staged {
    std::string key;
    std::shared_ptr<const experiments::CampaignResult> result;
  };

  /// The grid's completion hook: queues a copy of the campaign for the
  /// committer and makes it visible to lookups, first waiting for a
  /// commit while kMaxStaged are pending. Called from several pool
  /// threads at once under the in-process executor.
  void stage(const experiments::CampaignResult& result);
  /// The staged result for this spec, if it is still waiting.
  [[nodiscard]] std::shared_ptr<const experiments::CampaignResult> staged(
      const experiments::CampaignSpec& spec);
  /// The committer thread: stores each staged campaign in order until the
  /// destructor asks it to stop and the queue is empty.
  void commit_loop();
  /// Stores one campaign and keeps the fail streak and the cache-off
  /// latch. Committer thread only.
  void commit(const experiments::CampaignResult& result);

  const experiments::CampaignRunner& runner_;
  ServiceConfig config_;
  std::unique_ptr<CampaignCellCache> cache_;
  LastRequest last_;
  int cache_fail_streak_{0};  ///< committer thread only
  std::atomic<bool> cache_degraded_{false};

  std::mutex commit_mutex_;  ///< guards the four fields below
  std::condition_variable commit_ready_;  ///< work queued, or stopping
  std::condition_variable commit_done_;   ///< pending_ dropped
  std::deque<Staged> queue_;              ///< FIFO, not yet picked up
  /// Staged and not yet committed or declined (the one being stored
  /// included), by spec bytes; lookups are served from it.
  std::unordered_map<std::string,
                     std::shared_ptr<const experiments::CampaignResult>>
      staged_;
  std::size_t pending_{0};  ///< queued + the one being stored
  bool stopping_{false};
  std::thread committer_;  ///< started only when there is a cache
};

}  // namespace rt::service
