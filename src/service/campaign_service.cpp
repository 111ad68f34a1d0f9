#include "service/campaign_service.hpp"

#include <chrono>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rt::service {

using experiments::CampaignError;
using experiments::CampaignResult;
using experiments::CampaignSpec;
using experiments::GridOutcome;

namespace {

using Clock = obs::MonotonicClock::clock;

struct ServiceCounters {
  obs::Counter requests;
  obs::Counter spec_cache_hits;
  obs::Counter spec_errors;
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
                    "Request specs that ended as typed errors")};
  }();
  return c;
}

}  // namespace

CampaignService::CampaignService(const experiments::CampaignRunner& runner,
                                 ServiceConfig config)
    : runner_(runner), config_(std::move(config)) {
  if (config_.cache) {
    cache_ = std::make_unique<CampaignCellCache>(*config_.cache);
  }
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
  service_counters().requests.inc();
  const auto t0 = obs::MonotonicClock::now();
  request_stats_ = RequestStats{};
  request_stats_.specs = request.specs.size();
  shard_stats_ = ShardStats{};

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
    if (cache_ && !cache_degraded_) {
      if (auto cached = cache_->lookup(request.specs[i])) {
        response.results[i] = std::move(*cached);
        ++request_stats_.cache_hits;
        continue;
      }
    }
    miss_indices.push_back(i);
    miss_specs.push_back(request.specs[i]);
  }

  if (!miss_specs.empty()) {
    GridOutcome outcome;
    if (config_.workers >= 1) {
      ShardOptions shard = config_.shard;
      shard.workers = config_.workers;
      const ShardedCampaignScheduler sharded(runner_, shard);
      outcome = sharded.run_all_checked(miss_specs, deadline);
      shard_stats_ = sharded.stats();
    } else {
      outcome = experiments::CampaignScheduler(runner_, config_.threads)
                    .run_all_checked(miss_specs, deadline);
    }
    response.first_failure = outcome.first_failure;
    for (CampaignError& err : outcome.errors) {
      err.spec_index = miss_indices[err.spec_index];  // request indexing
      response.errors.push_back(std::move(err));
    }
    for (std::size_t m = 0; m < miss_indices.size(); ++m) {
      // Only complete campaigns are cached (an errored one has no runs and
      // must be re-executed next time, not recalled empty).
      const bool complete = !outcome.results[m].runs.empty() ||
                            miss_specs[m].runs <= 0;
      if (cache_ && !cache_degraded_ && complete) {
        if (cache_->store(miss_specs[m], outcome.results[m])) {
          cache_fail_streak_ = 0;
        } else if (++cache_fail_streak_ >= config_.cache_fail_threshold) {
          // Disk is persistently unhealthy: stop adding a failing write +
          // fsync to every future spec. Execution continues uncached.
          cache_degraded_ = true;
        }
      }
      response.results[miss_indices[m]] = std::move(outcome.results[m]);
    }
  }

  request_stats_.errors = response.errors.size();
  request_stats_.wall_ms =
      obs::MonotonicClock::ms_between(t0, obs::MonotonicClock::now());
  if (request_stats_.cache_hits > 0) {
    service_counters().spec_cache_hits.inc(request_stats_.cache_hits);
  }
  if (request_stats_.errors > 0) {
    service_counters().spec_errors.inc(request_stats_.errors);
  }
  return response;
}

CacheStats CampaignService::cache_stats() const {
  return cache_ ? cache_->stats() : CacheStats{};
}

experiments::GridExecutor CampaignService::executor() {
  return [this](const std::vector<CampaignSpec>& specs) {
    return run_grid(specs);
  };
}

}  // namespace rt::service
