#include "service/campaign_service.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "core/safety_oracle.hpp"
#include "experiments/campaign_serde.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/hash.hpp"

namespace rt::service {

using experiments::CampaignError;
using experiments::CampaignResult;
using experiments::CampaignSpec;
using experiments::GridOutcome;

namespace {

using Clock = obs::MonotonicClock::clock;

/// Consecutive failed cache stores that latch the cache off.
constexpr int kCacheFailThreshold = 3;

struct ServiceCounters {
  obs::Counter requests;
  obs::Counter spec_cache_hits;
  obs::Counter spec_errors;
  obs::Gauge commit_queue;
};

const ServiceCounters& service_counters() {
  static const ServiceCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return ServiceCounters{
        reg.counter("rt_service_requests_total",
                    "Grid requests executed by CampaignService"),
        reg.counter("rt_service_spec_cache_hits_total",
                    "Request specs answered from the cell cache"),
        reg.counter("rt_service_spec_errors_total",
                    "Request specs that ended as typed errors"),
        reg.gauge("rt_campaign_cache_commit_queue",
                  "Finished campaigns staged for a cache store and not "
                  "yet committed")};
  }();
  return c;
}

/// The cache's oracle key of a runner's deployed oracles: for each attack
/// vector in order, the oracle's content hash, or a marker when the vector
/// has none. An empty set has a key too, so no entry written without one
/// is ever served.
std::uint64_t oracle_key(const experiments::OracleSet& oracles) {
  std::uint64_t h = stats::fnv1a_str(stats::kFnv1aOffset, "rt.oracles.v1");
  for (const core::AttackVector v :
       {core::AttackVector::kMoveOut, core::AttackVector::kMoveIn,
        core::AttackVector::kDisappear}) {
    const auto it = oracles.find(v);
    const bool deployed = it != oracles.end() && it->second != nullptr;
    h = stats::fnv1a_u64(h, deployed ? 1 : 0);
    if (deployed) h = stats::fnv1a_u64(h, it->second->content_hash());
  }
  return h;
}

/// A counter some other component registers, read without registering it
/// (0 until it exists).
std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().snapshot().counter(name);
}

}  // namespace

CampaignService::CampaignService(const experiments::CampaignRunner& runner,
                                 ServiceConfig config)
    : runner_(runner), config_(std::move(config)) {
  // Registered up front, so a scrape before the first request reads zeros.
  (void)service_counters();
  if (config_.cache) {
    CacheConfig cache = *config_.cache;
    cache.oracle_key = oracle_key(runner_.oracles());
    cache_ = std::make_unique<CampaignCellCache>(std::move(cache));
    committer_ = std::thread([this] { commit_loop(); });
  }
}

CampaignService::~CampaignService() {
  if (!committer_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(commit_mutex_);
    stopping_ = true;
  }
  commit_ready_.notify_one();
  committer_.join();
}

std::vector<CampaignResult> CampaignService::run_grid(
    const std::vector<CampaignSpec>& specs) {
  GridRequest request;
  request.specs = specs;
  return run_grid_checked(request).complete_or_throw();
}

GridOutcome CampaignService::run_grid_checked(const GridRequest& request) {
  RT_TRACE_SPAN("grid_request", "service",
                static_cast<std::uint64_t>(request.specs.size()), "specs");
  const ServiceCounters& counters = service_counters();
  counters.requests.inc();
  const auto t0 = obs::MonotonicClock::now();
  last_ = LastRequest{};

  experiments::GridDeadline deadline;
  if (request.deadline_ms > 0.0) {
    deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            request.deadline_ms));
  }

  GridOutcome response;
  response.results.resize(request.specs.size());
  std::vector<std::size_t> miss_indices;
  std::vector<CampaignSpec> miss_specs;
  for (std::size_t i = 0; i < request.specs.size(); ++i) {
    if (cache_ && !cache_degraded()) {
      if (const auto pending = staged(request.specs[i])) {
        response.results[i] = *pending;
        cache_->count_staged_hit();
        counters.spec_cache_hits.inc();
        continue;
      }
      if (auto cached = cache_->lookup(request.specs[i])) {
        response.results[i] = std::move(*cached);
        counters.spec_cache_hits.inc();
        continue;
      }
    }
    miss_indices.push_back(i);
    miss_specs.push_back(request.specs[i]);
  }

  if (!miss_specs.empty()) {
    // Each campaign is staged the moment its last cell lands, while the
    // rest of the grid is still running, and the committer stores it off
    // the reply path. Only complete campaigns fire the hook: an errored
    // one has no runs and must be re-executed next time, not recalled
    // empty.
    experiments::CampaignComplete commit;
    if (cache_ && !cache_degraded()) {
      commit = [this](std::size_t, const CampaignResult& result) {
        stage(result);
      };
    }
    GridOutcome outcome;
    if (config_.workers >= 1) {
      ShardOptions shard = config_.shard;
      shard.workers = config_.workers;
      const char* retry_waves = "rt_shard_retry_waves_total";
      const std::uint64_t retries_before = counter_value(retry_waves);
      outcome = ShardedCampaignScheduler(runner_, shard)
                    .run_all_checked(miss_specs, deadline, std::move(commit));
      last_.shard_retries = counter_value(retry_waves) - retries_before;
    } else {
      outcome = experiments::CampaignScheduler(runner_, config_.threads)
                    .run_all_checked(miss_specs, deadline, std::move(commit));
    }
    response.first_failure = outcome.first_failure;
    for (CampaignError& err : outcome.errors) {
      err.spec_index = miss_indices[err.spec_index];  // request indexing
      response.errors.push_back(std::move(err));
    }
    for (std::size_t m = 0; m < miss_indices.size(); ++m) {
      response.results[miss_indices[m]] = std::move(outcome.results[m]);
    }
  }

  counters.spec_errors.inc(response.errors.size());
  last_.wall_ms =
      obs::MonotonicClock::ms_between(t0, obs::MonotonicClock::now());
  return response;
}

void CampaignService::stage(const CampaignResult& result) {
  Staged entry{experiments::serialize_spec(result.spec),
               std::make_shared<const CampaignResult>(result)};
  {
    std::unique_lock<std::mutex> lock(commit_mutex_);
    // Backpressure: with kMaxStaged campaigns waiting, the hook waits for
    // a commit, so a slow or hung disk slows execution down to its pace
    // (as the inline store did) instead of growing memory without bound.
    commit_done_.wait(lock, [this] { return pending_ < kMaxStaged; });
    staged_[entry.key] = entry.result;
    queue_.push_back(std::move(entry));
    ++pending_;
    service_counters().commit_queue.set(static_cast<std::int64_t>(pending_));
  }
  commit_ready_.notify_one();
}

std::shared_ptr<const CampaignResult> CampaignService::staged(
    const CampaignSpec& spec) {
  const std::string key = experiments::serialize_spec(spec);
  std::lock_guard<std::mutex> lock(commit_mutex_);
  const auto it = staged_.find(key);
  return it == staged_.end() ? nullptr : it->second;
}

void CampaignService::flush() {
  std::unique_lock<std::mutex> lock(commit_mutex_);
  commit_done_.wait(lock, [this] { return pending_ == 0; });
}

void CampaignService::commit_loop() {
  std::unique_lock<std::mutex> lock(commit_mutex_);
  for (;;) {
    commit_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and everything is committed
    const Staged next = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    commit(*next.result);
    lock.lock();
    // Durable (or declined) now: lookups go to the disk. A later staging
    // of the same spec keeps its own entry until its own commit.
    const auto it = staged_.find(next.key);
    if (it != staged_.end() && it->second == next.result) staged_.erase(it);
    --pending_;
    service_counters().commit_queue.set(static_cast<std::int64_t>(pending_));
    commit_done_.notify_all();
  }
}

void CampaignService::commit(const CampaignResult& result) {
  if (cache_degraded_) return;
  bool stored = false;
  try {
    stored = cache_->store(result.spec, result);
  } catch (const std::exception&) {
    // Out of memory serializing the entry: a failed store like any other,
    // and the committer thread lives on.
  }
  if (stored) {
    cache_fail_streak_ = 0;
  } else if (++cache_fail_streak_ >= kCacheFailThreshold) {
    // Disk is persistently unhealthy: stop adding a failing write + fsync
    // to every future spec. Execution continues uncached.
    cache_degraded_ = true;
  }
}

experiments::GridExecutor CampaignService::executor() {
  return [this](const std::vector<CampaignSpec>& specs) {
    return run_grid(specs);
  };
}

}  // namespace rt::service
