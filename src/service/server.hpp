#pragma once

/// The request path of examples/campaign_server, shared by its stdin and
/// socket front-ends: the line grammar, the CSV response rendering, the
/// execute-and-log step of one request, and the bounded request queue.
///
/// Request language (one request per line; '#' starts a comment):
///   run scenarios=DS-1,DS-2 vectors=Disappear modes=RwoSH,Golden
///       runs=6 seed=11 [monitors=m1,m2] [param=name:value]
///       [sweep=name:v1,v2,...] [deadline_ms=N]      (all on ONE line)
///   stats            # one-line JSON metrics snapshot (obs registry)
///   quit | shutdown
/// Vectors: Disappear, Move_Out, Move_In. Modes: R, RwoSH, Golden, Random.
/// `param` pins one scenario parameter (repeatable); `sweep` crosses a
/// parameter axis exactly like the grid builder's sweep(). `deadline_ms`
/// bounds one request; on expiry the response carries
/// `error deadline-exceeded ...` records instead of rows for the
/// unfinished campaigns.
///
/// Operational records go to stderr as single-line JSON
/// ({"ts":...,"event":...}), so CI can compare result bytes across passes
/// while asserting on structured fields instead of scraping free text.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "experiments/campaign.hpp"
#include "obs/metrics.hpp"
#include "service/campaign_service.hpp"

namespace rt::service {

/// What one request line asked for.
enum class Verb : std::uint8_t { kNone, kRun, kStats, kQuit, kShutdown };

struct ParsedLine {
  Verb verb{Verb::kNone};
  GridRequest request;  ///< kRun only
  /// Why the line was rejected; empty for valid, blank and comment-only
  /// lines.
  std::string error;
};

/// Strips the comment, tokenizes and parses one request line. Any unknown
/// verb, key or name and any malformed number makes the line kNone with
/// `error` set and no specs: a bad request is rejected, never half-run.
/// Front-ends answer kNone with a bare `end`, so a client never waits on a
/// typo.
[[nodiscard]] ParsedLine parse_line(const std::string& line);

/// The CSV response to one `run` request: a header and one row per
/// completed campaign, then one `error <code> <name> <message>` line per
/// incomplete one. The same outcome always renders the same bytes.
[[nodiscard]] std::string render_response(
    const experiments::GridOutcome& outcome);

/// The `stats` verb body: the registry snapshot as one JSON line.
[[nodiscard]] std::string render_stats();

/// Writes `{"ts":"<UTC wall clock>",<fields>}` as one stderr line.
/// Wall-clock on purpose: log timestamps are for humans and log
/// collectors; measured durations use obs::MonotonicClock.
void log_json(const std::string& fields);

/// Runs one `run` request: assigns its id (ids follow execution order, so
/// id N is the N-th grid run whatever the client interleaving), runs the
/// grid under a `request_execute` span, renders it under
/// `request_serialize`, hands the body to `reply`, then logs the `request`
/// record and feeds `rt_server_request_latency_ms`. A queued request
/// passes its `enqueue_ns`, recorded as its `request_queue_wait` span.
/// Requests must not run concurrently: the record's hit count is the
/// request's delta of the service's cache-hit counter.
void execute_request(CampaignService& svc, const GridRequest& request,
                     std::optional<std::uint64_t> enqueue_ns,
                     const std::function<void(const std::string&)>& reply);

/// Drains the service's committer, then logs the process's cumulative
/// cache counters as a `cache_summary` record (one cache per server
/// process), so its `stores` count every campaign the server computed.
void log_cache_summary(CampaignService& svc);

/// Bounded multi-producer single-consumer request queue. `push` fails when
/// full or closed (the caller answers `busy`); `close` lets the consumer
/// drain what is queued and then stop, which is the graceful-shutdown
/// path. Its length is the `rt_server_queue_depth` gauge.
template <typename Job>
class JobQueue {
 public:
  explicit JobQueue(std::size_t limit)
      : limit_(limit),
        depth_(obs::MetricsRegistry::global().gauge(
            "rt_server_queue_depth",
            "Requests currently waiting in the executor queue")) {}

  bool push(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || jobs_.size() >= limit_) return false;
      jobs_.push_back(std::move(job));
      depth_.set(static_cast<std::int64_t>(jobs_.size()));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks for the next job; nullopt once closed AND drained.
  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return std::nullopt;
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    depth_.set(static_cast<std::int64_t>(jobs_.size()));
    return job;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  const std::size_t limit_;
  const obs::Gauge depth_;
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace rt::service
