// Campaign-as-a-service front-end: a long-lived process answering
// line-delimited campaign-grid requests against one shared content-hash
// result cache (rt::service::CampaignService). Batch mode reads requests
// from stdin; --socket PATH serves the same protocol on a Unix stream
// socket to MANY concurrent clients: each connection gets a reader thread,
// parsed requests land in a bounded queue (overflow is answered `busy`),
// and a single executor thread runs grids one at a time — so results stay
// bit-deterministic (a repeated request is byte-identical, whatever the
// client interleaving) while parsing and IO overlap execution. Operational
// logs go to stderr as single-line JSONL records ({"ts":...,"event":...})
// so CI can compare result bytes across passes while asserting on the
// structured fields (request ids, hit counts, outcomes) instead of
// scraping free text.
//
// Request language (one request per line; '#' starts a comment):
//   run scenarios=DS-1,DS-2 vectors=Disappear modes=RwoSH,Golden
//       runs=6 seed=11 [monitors=m1,m2] [param=name:value]
//       [sweep=name:v1,v2,...] [deadline_ms=N]      (all on ONE line)
//   stats            # one-line JSON metrics snapshot (obs registry)
//   quit | shutdown
// Vectors: Disappear, Move_Out, Move_In. Modes: R, RwoSH, Golden, Random.
// `param` pins one scenario parameter (repeatable); `sweep` crosses a
// parameter axis exactly like the grid builder's sweep(). `deadline_ms`
// bounds one request (overriding --request-timeout-ms); on expiry the
// response carries `error deadline-exceeded ...` records instead of rows
// for the unfinished campaigns.
//
// Responses (socket mode) end with `end\n`; a request rejected by the full
// queue is answered `busy\n` (and nothing else). A client line `shutdown`
// — or SIGTERM/SIGINT — drains the queued requests, answers them, then
// exits 0. RT_CHAOS arms the deterministic fault injector at startup (see
// service/fault_injection.hpp), which is how the chaos suite drives
// client-write failures through a real server.
//
// Observability: `--trace PATH` (or the RT_TRACE env var, whose value is
// the path) arms the span tracer and writes a Chrome trace-event JSON file
// on exit; requests get queue-wait / execute / serialize spans on top of
// the service- and scheduler-level ones. `--metrics PATH` dumps the final
// registry snapshot as one JSONL line; the `stats` verb serves the same
// snapshot in-band.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/campaign_grid.hpp"
#include "experiments/sh_training.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/campaign_service.hpp"
#include "service/fault_injection.hpp"

using namespace rt;

namespace {

struct ServerOptions {
  std::string cache_dir;       ///< empty = no result cache
  std::size_t cache_max_mb{256};
  unsigned workers{0};         ///< forked workers per miss batch
  unsigned threads{0};         ///< in-process threads when workers == 0
  bool json{false};            ///< stream JSONL instead of CSV
  std::string socket_path;     ///< empty = stdin batch mode
  bool no_oracles{false};      ///< skip oracle loading (R requests run
                               ///< without a safety hijacker model)
  int backlog{16};             ///< listen(2) backlog
  int queue_limit{8};          ///< pending requests before `busy` replies
  double request_timeout_ms{0.0};  ///< default per-request deadline; 0 = off
  std::string trace_path;      ///< Chrome trace JSON written on exit
  std::string metrics_path;    ///< final metrics snapshot (one JSONL line)
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s [--cache-dir PATH] [--cache-max-mb N] [--workers N]\n"
      "          [--threads N] [--json] [--socket PATH] [--no-oracles]\n"
      "          [--backlog N] [--queue-limit N] [--request-timeout-ms N]\n"
      "          [--trace PATH] [--metrics PATH]\n"
      "Reads 'run ...' requests from stdin (or the Unix socket) and streams\n"
      "results; see the header of examples/campaign_server.cpp for the\n"
      "request language. RT_CAMPAIGN_CACHE sets the default cache dir;\n"
      "RT_CHAOS arms the deterministic fault injector; RT_TRACE=PATH arms\n"
      "the span tracer (same as --trace PATH). --metrics dumps the final\n"
      "metrics snapshot; the `stats` verb serves it in-band.\n",
      argv0);
  std::exit(code);
}

/// Strict unsigned parse: the WHOLE string must be base-10 digits and the
/// value must land in [lo, hi]. Unlike atoi/strtoull this rejects empty
/// strings, signs, whitespace, trailing junk ("12x") and overflow instead
/// of silently returning 0 or wrapping — a garbled `runs=abc` must be an
/// error reply, not a 0-run campaign.
std::optional<std::uint64_t> parse_uint(const std::string& s,
                                        std::uint64_t lo,
                                        std::uint64_t hi) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) out.push_back(item);
  return out;
}

/// Parsed key=value arguments of one `run` request.
struct Request {
  std::vector<std::string> scenarios;
  std::vector<core::AttackVector> vectors{core::AttackVector::kDisappear};
  std::vector<experiments::AttackMode> modes{
      experiments::AttackMode::kRobotack};
  std::vector<std::string> monitors;
  int runs{8};
  std::uint64_t seed{20200613};
  double deadline_ms{0.0};  ///< 0 = use the server default
  std::vector<std::pair<std::string, std::vector<double>>> sweeps;
};

std::optional<core::AttackVector> parse_vector(const std::string& name) {
  if (name == "Disappear") return core::AttackVector::kDisappear;
  if (name == "Move_Out") return core::AttackVector::kMoveOut;
  if (name == "Move_In") return core::AttackVector::kMoveIn;
  return std::nullopt;
}

std::optional<experiments::AttackMode> parse_mode(const std::string& name) {
  if (name == "R") return experiments::AttackMode::kRobotack;
  if (name == "RwoSH") return experiments::AttackMode::kNoSh;
  if (name == "Golden") return experiments::AttackMode::kGolden;
  if (name == "Random") return experiments::AttackMode::kRandomBaseline;
  return std::nullopt;
}

/// Parses everything after the `run` verb. Returns nullopt (with a stderr
/// diagnostic) on any unknown key, name or malformed number — a bad
/// request is rejected, never half-run.
std::optional<Request> parse_request(const std::vector<std::string>& words) {
  Request req;
  for (std::size_t w = 1; w < words.size(); ++w) {
    const std::string& word = words[w];
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "error: expected key=value, got '%s'\n",
                   word.c_str());
      return std::nullopt;
    }
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    if (key == "scenarios") {
      req.scenarios = split(value, ',');
    } else if (key == "vectors") {
      req.vectors.clear();
      for (const auto& name : split(value, ',')) {
        const auto v = parse_vector(name);
        if (!v) {
          std::fprintf(stderr, "error: unknown vector '%s'\n", name.c_str());
          return std::nullopt;
        }
        req.vectors.push_back(*v);
      }
    } else if (key == "modes") {
      req.modes.clear();
      for (const auto& name : split(value, ',')) {
        const auto m = parse_mode(name);
        if (!m) {
          std::fprintf(stderr, "error: unknown mode '%s'\n", name.c_str());
          return std::nullopt;
        }
        req.modes.push_back(*m);
      }
    } else if (key == "monitors") {
      req.monitors = split(value, ',');
    } else if (key == "runs") {
      const auto runs = parse_uint(value, 1,
                                   std::numeric_limits<int>::max());
      if (!runs) {
        std::fprintf(stderr, "error: bad runs '%s' (want a positive integer)\n",
                     value.c_str());
        return std::nullopt;
      }
      req.runs = static_cast<int>(*runs);
    } else if (key == "seed") {
      const auto seed = parse_uint(
          value, 0, std::numeric_limits<std::uint64_t>::max());
      if (!seed) {
        std::fprintf(stderr, "error: bad seed '%s'\n", value.c_str());
        return std::nullopt;
      }
      req.seed = *seed;
    } else if (key == "deadline_ms") {
      const auto ms = parse_uint(value, 1, 1ull << 40);
      if (!ms) {
        std::fprintf(stderr, "error: bad deadline_ms '%s'\n", value.c_str());
        return std::nullopt;
      }
      req.deadline_ms = static_cast<double>(*ms);
    } else if (key == "param" || key == "sweep") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "error: %s expects name:value[,value...]\n",
                     key.c_str());
        return std::nullopt;
      }
      std::vector<double> values;
      for (const auto& tok : split(value.substr(colon + 1), ',')) {
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0' || !std::isfinite(d)) {
          // Unconsumed trailing characters and nan/inf tokens are both
          // rejected — a non-finite scenario parameter is never meaningful.
          std::fprintf(stderr, "error: bad %s value '%s'\n", key.c_str(),
                       tok.c_str());
          return std::nullopt;
        }
        values.push_back(d);
      }
      if (values.empty() || (key == "param" && values.size() != 1)) {
        std::fprintf(stderr, "error: bad %s '%s'\n", key.c_str(),
                     value.c_str());
        return std::nullopt;
      }
      req.sweeps.emplace_back(value.substr(0, colon), std::move(values));
    } else {
      std::fprintf(stderr, "error: unknown key '%s'\n", key.c_str());
      return std::nullopt;
    }
  }
  if (req.scenarios.empty()) {
    std::fprintf(stderr, "error: request needs scenarios=...\n");
    return std::nullopt;
  }
  return req;
}

/// Expands a request into campaign specs via the shared grid builder (a
/// `param` pin is a one-value sweep, so per-family defaults survive for
/// everything unpinned).
std::optional<std::vector<experiments::CampaignSpec>> build_specs(
    const Request& req) {
  experiments::CampaignGridBuilder builder;
  builder.scenarios(req.scenarios)
      .vectors(req.vectors)
      .modes(req.modes)
      .runs(req.runs)
      .seed(req.seed);
  if (!req.monitors.empty()) builder.monitors(req.monitors);
  for (const auto& [name, values] : req.sweeps) builder.sweep(name, values);
  try {
    return builder.build();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Structured stderr logging: every operational record is one JSON line with
// a wall-clock timestamp (`ts`) and an `event` discriminator. Results stay
// on stdout (or the socket); stderr is machine-parseable.

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Emits {"ts":"...","event":...} with `fields` spliced in after ts.
/// Wall-clock (not monotonic) on purpose: log timestamps are for humans
/// and log collectors; all measured durations use obs::MonotonicClock.
void log_json(const std::string& fields) {
  char ts[32];
  const std::time_t now = std::time(nullptr);
  struct tm tm_utc {};
  ::gmtime_r(&now, &tm_utc);
  std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  std::fprintf(stderr, "{\"ts\":\"%s\",%s}\n", ts, fields.c_str());
}

/// Request ids are assigned in EXECUTION order (the executor is the single
/// determinism barrier), so id N in the log is the N-th grid actually run,
/// whatever the client interleaving.
std::atomic<std::uint64_t> g_request_id{0};

const obs::Histogram& request_latency_histogram() {
  static const obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "rt_server_request_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
      "End-to-end grid request wall time in milliseconds");
  return h;
}

const char* kCsvHeader =
    "name,scenario,vector,mode,runs,seed,n,triggered,eb,crash,detected,"
    "false_alarms,eb_rate,crash_rate,detection_rate,median_k\n";

void append_result(const experiments::CampaignResult& r, bool json,
                   std::string& out) {
  const auto& s = r.spec;
  char buf[512];
  if (json) {
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"%s\",\"scenario\":\"%s\",\"vector\":\"%s\","
        "\"mode\":\"%s\",\"runs\":%d,\"seed\":%" PRIu64 ",\"n\":%d,"
        "\"triggered\":%d,\"eb\":%d,\"crash\":%d,\"detected\":%d,"
        "\"false_alarms\":%d,\"eb_rate\":%.6f,\"crash_rate\":%.6f,"
        "\"detection_rate\":%.6f,\"median_k\":%.6f}\n",
        s.name.c_str(), s.scenario.c_str(), core::to_string(s.vector),
        to_string(s.mode), s.runs, s.seed, r.n(), r.triggered_count(),
        r.eb_count(), r.crash_count(), r.detected_count(),
        r.false_alarm_count(), r.eb_rate(), r.crash_rate(),
        r.detection_rate(), r.median_k());
  } else {
    std::snprintf(buf, sizeof buf,
                  "%s,%s,%s,%s,%d,%" PRIu64 ",%d,%d,%d,%d,%d,%d,%.6f,%.6f,"
                  "%.6f,%.6f\n",
                  s.name.c_str(), s.scenario.c_str(),
                  core::to_string(s.vector), to_string(s.mode), s.runs,
                  s.seed, r.n(), r.triggered_count(), r.eb_count(),
                  r.crash_count(), r.detected_count(), r.false_alarm_count(),
                  r.eb_rate(), r.crash_rate(), r.detection_rate(),
                  r.median_k());
  }
  out += buf;
}

/// Renders a checked grid response: one row per COMPLETED campaign, one
/// typed `error <code> <name> <message>` line per incomplete one (same in
/// JSON mode, as an error object). Deterministic: the same request against
/// the same cache state renders the same bytes.
std::string render_response(const experiments::GridOutcome& response,
                            bool json) {
  std::string out;
  if (!json && !response.results.empty()) out += kCsvHeader;
  std::vector<char> errored(response.results.size(), 0);
  for (const auto& err : response.errors) {
    if (err.spec_index < errored.size()) errored[err.spec_index] = 1;
  }
  for (std::size_t i = 0; i < response.results.size(); ++i) {
    if (!errored[i]) append_result(response.results[i], json, out);
  }
  for (const auto& err : response.errors) {
    const std::string name = err.spec_index < response.results.size()
                                 ? response.results[err.spec_index].spec.name
                                 : std::string("?");
    char buf[512];
    if (json) {
      std::snprintf(buf, sizeof buf,
                    "{\"error\":\"%s\",\"name\":\"%s\",\"message\":\"%s\"}\n",
                    experiments::to_string(err.code), name.c_str(),
                    err.message.c_str());
    } else {
      std::snprintf(buf, sizeof buf, "error %s %s %s\n",
                    experiments::to_string(err.code), name.c_str(),
                    err.message.c_str());
    }
    out += buf;
  }
  return out;
}

/// The service's cache-hit counter. Only the executor thread runs
/// requests, so its delta around one request is that request's hits.
const obs::Counter& spec_cache_hits_counter() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter(
      "rt_service_spec_cache_hits_total");
  return c;
}

/// One JSONL record per executed request: id, sizes, cache hits, wall time
/// and the outcome ("ok" or the first typed error code). Also feeds the
/// request-latency histogram, so the `stats` verb and the log agree.
void log_request_stats(std::uint64_t id, std::size_t specs, std::size_t hits,
                       const experiments::GridOutcome& response,
                       double wall_ms) {
  request_latency_histogram().observe(wall_ms);
  const char* outcome = response.errors.empty()
                            ? "ok"
                            : experiments::to_string(
                                  response.errors.front().code);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"event\":\"request\",\"id\":%llu,\"specs\":%zu,"
                "\"hits\":%zu,\"misses\":%zu,\"errors\":%zu,"
                "\"wall_ms\":%.1f,\"outcome\":\"%s\"",
                static_cast<unsigned long long>(id), specs, hits,
                specs - hits, response.errors.size(), wall_ms, outcome);
  log_json(buf);
}

/// The process's cache counters (one cache per server process).
void print_cache_summary(const service::CampaignService& svc) {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto count = [&](const char* what) {
    return static_cast<unsigned long long>(snap.counter(
        std::string("rt_campaign_cache_") + what + "_total"));
  };
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "\"event\":\"cache_summary\",\"hits\":%llu,\"misses\":%llu,"
                "\"stale\":%llu,\"corrupt\":%llu,\"stores\":%llu,"
                "\"evictions\":%llu,\"io_errors\":%llu,\"degraded\":%s",
                count("hits"), count("misses"), count("stale"),
                count("corrupt"), count("stores"), count("evictions"),
                count("io_errors"), svc.cache_degraded() ? "true" : "false");
  log_json(buf);
}

/// The `stats` verb body: the current registry snapshot as one JSON line.
std::string render_stats() {
  return obs::render_json(obs::MetricsRegistry::global().snapshot()) + "\n";
}

/// What one request line asked for.
enum class Verb : std::uint8_t { kNone, kRun, kStats, kQuit, kShutdown };

struct ParsedLine {
  Verb verb{Verb::kNone};
  std::vector<experiments::CampaignSpec> specs;  ///< kRun only
  double deadline_ms{0.0};
};

/// Strips comments, tokenizes, parses. kNone covers blank lines AND
/// malformed requests (which have already logged a diagnostic) — the
/// caller answers `end` either way, so a client never waits on a typo.
ParsedLine parse_line(const std::string& line, const ServerOptions& opts) {
  ParsedLine out;
  std::string text = line;
  const std::size_t hash = text.find('#');
  if (hash != std::string::npos) text.resize(hash);
  std::istringstream in(text);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  if (words.empty()) return out;
  if (words[0] == "quit") {
    out.verb = Verb::kQuit;
    return out;
  }
  if (words[0] == "shutdown") {
    out.verb = Verb::kShutdown;
    return out;
  }
  if (words[0] == "stats") {
    out.verb = Verb::kStats;
    return out;
  }
  if (words[0] != "run") {
    std::fprintf(stderr, "error: unknown verb '%s'\n", words[0].c_str());
    return out;
  }
  const auto req = parse_request(words);
  if (!req) return out;
  auto specs = build_specs(*req);
  if (!specs) return out;
  out.verb = Verb::kRun;
  out.specs = std::move(*specs);
  out.deadline_ms =
      req->deadline_ms > 0.0 ? req->deadline_ms : opts.request_timeout_ms;
  return out;
}

/// Executes one `run` request for either front-end: assigns its id, runs
/// the grid under `request_execute`, renders it under `request_serialize`,
/// hands the body to `reply`, then logs the request. A queued request
/// passes its `enqueue_ns`, recorded as its `request_queue_wait` span.
void execute_request(service::CampaignService& svc, const ServerOptions& opts,
                     const service::GridRequest& request,
                     std::optional<std::uint64_t> enqueue_ns,
                     const std::function<void(const std::string&)>& reply) {
  const std::uint64_t id =
      g_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
  if (enqueue_ns) {
    obs::record_span("request_queue_wait", "server", *enqueue_ns,
                     obs::Tracer::now_ns(), id, "request");
  }
  experiments::GridOutcome response;
  const std::uint64_t hits_before = spec_cache_hits_counter().value();
  const obs::Stopwatch watch;
  {
    RT_TRACE_SPAN("request_execute", "server", id, "request");
    response = svc.run_grid_checked(request);
  }
  const double wall_ms = watch.elapsed_ms();
  const std::size_t hits = spec_cache_hits_counter().value() - hits_before;
  std::string body;
  {
    RT_TRACE_SPAN("request_serialize", "server", id, "request");
    body = render_response(response, opts.json);
  }
  reply(body);
  log_request_stats(id, request.specs.size(), hits, response, wall_ms);
}

/// Serves the stdin batch: every line is a request, EOF or quit ends the
/// batch, and the cumulative cache summary is the last stderr line.
int serve_stdin(service::CampaignService& svc, const ServerOptions& opts) {
  std::string line;
  while (std::getline(std::cin, line)) {
    const ParsedLine parsed = parse_line(line, opts);
    if (parsed.verb == Verb::kQuit || parsed.verb == Verb::kShutdown) break;
    if (parsed.verb == Verb::kStats) {
      const std::string body = render_stats();
      std::fwrite(body.data(), 1, body.size(), stdout);
      std::fflush(stdout);
      continue;
    }
    if (parsed.verb != Verb::kRun) continue;
    execute_request(svc, opts, {parsed.specs, parsed.deadline_ms},
                    std::nullopt, [](const std::string& body) {
                      std::fwrite(body.data(), 1, body.size(), stdout);
                      std::fflush(stdout);
                    });
  }
  print_cache_summary(svc);
  return 0;
}

// ---------------------------------------------------------------------------
// Socket mode: accept loop + per-connection reader threads + one executor.

/// Self-pipe written by the SIGTERM/SIGINT handler (and the `shutdown`
/// verb) to wake the accept loop's poll without races.
int g_wake_pipe_w = -1;

void wake_accept_loop() {
  if (g_wake_pipe_w >= 0) {
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(g_wake_pipe_w, &byte, 1);
  }
}

void on_terminate_signal(int) { wake_accept_loop(); }

/// One client connection. The reader thread and the executor both write to
/// it (replies vs results), serialized by `write_mu`. A failed write marks
/// the connection dead; queued work for a dead client is skipped. The fd
/// closes when the last reference drops, so the executor can never write
/// into a recycled descriptor.
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes through the kClientWrite shim; detects (and latches) client
  /// death instead of trusting fputs' ignored return.
  void send(const std::string& bytes) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (!open.load(std::memory_order_relaxed)) return;
    if (!service::write_all_fd(service::FaultSite::kClientWrite, fd,
                               bytes.data(), bytes.size())) {
      open.store(false, std::memory_order_relaxed);
      ::shutdown(fd, SHUT_RDWR);  // unblocks the reader thread's poll
      log_json("\"event\":\"client_drop\",\"error\":\"" +
               json_escape(std::strerror(errno)) + "\"");
    }
  }

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> open{true};
};

struct Job {
  std::shared_ptr<Connection> conn;
  std::vector<experiments::CampaignSpec> specs;
  double deadline_ms{0.0};
  Verb verb{Verb::kRun};        ///< kRun or kStats
  std::uint64_t enqueue_ns{0};  ///< for the request_queue_wait span
};

/// Bounded multi-producer single-consumer request queue. `push` fails when
/// full (the caller answers `busy`); `close` lets the executor drain what
/// is queued and then stop — the graceful-shutdown path.
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

/// Reads one connection: splits lines, parses, enqueues. Every `run` line
/// is answered — `busy` on queue overflow, otherwise (eventually) the
/// executor's rows + `end`. Malformed lines answer a bare `end` so clients
/// never hang on a typo. Returns when the client disconnects, sends
/// `quit`/`shutdown`, or the server begins draining.
void reader_loop(const std::shared_ptr<Connection>& conn, JobQueue& queue,
                 const ServerOptions& opts,
                 const std::atomic<bool>& draining) {
  std::string buffer;
  char chunk[4096];
  while (conn->open.load(std::memory_order_relaxed) &&
         !draining.load(std::memory_order_relaxed)) {
    struct pollfd pfd {};
    pfd.fd = conn->fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, 200);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;  // timeout: re-check the stop flags
    const ssize_t n = ::read(conn->fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed its end
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t eol = 0;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      ParsedLine parsed = parse_line(line, opts);
      switch (parsed.verb) {
        case Verb::kQuit:
          conn->open.store(false, std::memory_order_relaxed);
          return;
        case Verb::kShutdown:
          wake_accept_loop();
          conn->open.store(false, std::memory_order_relaxed);
          return;
        case Verb::kRun:
        case Verb::kStats: {
          Job job{conn, std::move(parsed.specs), parsed.deadline_ms,
                  parsed.verb, obs::Tracer::now_ns()};
          if (!queue.push(std::move(job))) conn->send("busy\n");
          break;
        }
        case Verb::kNone:
          conn->send("end\n");
          break;
      }
    }
  }
}

/// Runs queued grids one at a time (the determinism barrier: concurrent
/// clients share one execution order, so byte-level results never depend
/// on scheduling) until the queue is closed and drained.
void executor_loop(service::CampaignService& svc, JobQueue& queue,
                   const ServerOptions& opts) {
  while (auto job = queue.pop()) {
    if (!job->conn->open.load(std::memory_order_relaxed)) continue;
    if (job->verb == Verb::kStats) {
      // Answered on the executor so a `stats` line queued after a `run`
      // reflects that run — same ordering the client observes.
      job->conn->send(render_stats() + "end\n");
      continue;
    }
    execute_request(svc, opts, {std::move(job->specs), job->deadline_ms},
                    job->enqueue_ns, [&](const std::string& body) {
                      job->conn->send(body + "end\n");
                    });
  }
}

/// Serves the Unix socket until `shutdown`, SIGTERM or SIGINT, then drains
/// the queue (every accepted request is answered) and exits 0.
int serve_socket(service::CampaignService& svc, const ServerOptions& opts) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("socket");
    return 1;
  }
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  if (opts.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long\n");
    ::close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, opts.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  // A stale socket file is replaced; anything we CANNOT remove (EPERM, a
  // directory, ...) would make bind() fail confusingly later or hijack
  // traffic — refuse to start instead.
  if (::unlink(opts.socket_path.c_str()) != 0 && errno != ENOENT) {
    std::fprintf(stderr, "error: cannot remove stale socket %s: %s\n",
                 opts.socket_path.c_str(), std::strerror(errno));
    ::close(listener);
    return 1;
  }
  if (::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, opts.backlog) != 0) {
    std::perror("bind/listen");
    ::close(listener);
    return 1;
  }
  // Owner-only: campaign requests can cost minutes of CPU, so the socket
  // is not a shared utility by default.
  if (::chmod(opts.socket_path.c_str(), 0600) != 0) {
    std::perror("chmod");
    ::close(listener);
    ::unlink(opts.socket_path.c_str());
    return 1;
  }

  int wake[2];
  if (::pipe(wake) != 0) {
    std::perror("pipe");
    ::close(listener);
    ::unlink(opts.socket_path.c_str());
    return 1;
  }
  g_wake_pipe_w = wake[1];
  std::signal(SIGTERM, on_terminate_signal);
  std::signal(SIGINT, on_terminate_signal);

  log_json("\"event\":\"listening\",\"socket\":\"" +
           json_escape(opts.socket_path) +
           "\",\"backlog\":" + std::to_string(opts.backlog) +
           ",\"queue_limit\":" + std::to_string(opts.queue_limit));

  JobQueue queue(static_cast<std::size_t>(opts.queue_limit));
  std::atomic<bool> draining{false};
  std::thread executor(
      [&] { executor_loop(svc, queue, opts); });
  std::vector<std::thread> readers;
  std::vector<std::shared_ptr<Connection>> connections;

  for (;;) {
    struct pollfd pfds[2] = {};
    pfds[0].fd = listener;
    pfds[0].events = POLLIN;
    pfds[1].fd = wake[0];
    pfds[1].events = POLLIN;
    if (::poll(pfds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      std::perror("poll");
      break;
    }
    if (pfds[1].revents != 0) break;  // shutdown verb or SIGTERM/SIGINT
    if (pfds[0].revents == 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      std::perror("accept");
      break;
    }
    auto conn = std::make_shared<Connection>(fd);
    connections.push_back(conn);
    readers.emplace_back(
        [conn, &queue, &opts, &draining] {
          reader_loop(conn, queue, opts, draining);
        });
  }

  // Graceful drain: no new connections or requests, but everything already
  // accepted is executed and answered before exit.
  log_json("\"event\":\"draining\"");
  draining.store(true, std::memory_order_relaxed);
  ::close(listener);
  ::unlink(opts.socket_path.c_str());
  for (auto& t : readers) t.join();
  queue.close();
  executor.join();
  for (auto& conn : connections) {
    conn->open.store(false, std::memory_order_relaxed);
  }
  connections.clear();
  ::close(wake[0]);
  ::close(wake[1]);
  g_wake_pipe_w = -1;
  print_cache_summary(svc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
  if (const char* env = std::getenv("RT_CAMPAIGN_CACHE")) {
    opts.cache_dir = env;
  }
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        usage(argv[0], 2);
      }
      return argv[++i];
    };
    // Strict flag numbers: `--workers 4x` or `--threads abc` is a usage
    // error, not a silent 0.
    const auto uint_value = [&](std::uint64_t lo,
                                std::uint64_t hi) -> std::uint64_t {
      const char* flag = argv[i];
      const std::string text = value();
      const auto v = parse_uint(text, lo, hi);
      if (!v) {
        std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0],
                     text.c_str(), flag);
        usage(argv[0], 2);
      }
      return *v;
    };
    if (std::strcmp(argv[i], "--cache-dir") == 0) {
      opts.cache_dir = value();
    } else if (std::strcmp(argv[i], "--cache-max-mb") == 0) {
      opts.cache_max_mb = static_cast<std::size_t>(
          uint_value(0, std::numeric_limits<std::size_t>::max() >> 20));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      opts.workers = static_cast<unsigned>(uint_value(0, 4096));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = static_cast<unsigned>(uint_value(0, 4096));
    } else if (std::strcmp(argv[i], "--backlog") == 0) {
      opts.backlog = static_cast<int>(uint_value(1, 4096));
    } else if (std::strcmp(argv[i], "--queue-limit") == 0) {
      opts.queue_limit = static_cast<int>(uint_value(1, 1 << 20));
    } else if (std::strcmp(argv[i], "--request-timeout-ms") == 0) {
      opts.request_timeout_ms =
          static_cast<double>(uint_value(1, 1ull << 40));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json = true;
    } else if (std::strcmp(argv[i], "--socket") == 0) {
      opts.socket_path = value();
    } else if (std::strcmp(argv[i], "--no-oracles") == 0) {
      opts.no_oracles = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace_path = value();
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.metrics_path = value();
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
      usage(argv[0], 2);
    }
  }
  std::signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill us
  if (service::FaultInjector::instance().arm_from_env()) {
    log_json("\"event\":\"chaos_armed\",\"source\":\"RT_CHAOS\"");
  }
  // Tracing: RT_TRACE=PATH or --trace PATH arms the span tracer; an
  // explicit flag wins for the output path.
  obs::Tracer& tracer = obs::Tracer::global();
  if (!tracer.arm_from_env() && !opts.trace_path.empty()) tracer.arm();
  const std::string trace_out =
      !opts.trace_path.empty() ? opts.trace_path : tracer.env_path();

  experiments::LoopConfig loop;
  experiments::OracleSet oracles;
  if (!opts.no_oracles) {
    experiments::ShTrainingConfig train;
    oracles = experiments::load_or_train_oracles(
        experiments::default_cache_dir(), loop, train);
  }
  const experiments::CampaignRunner runner(loop, oracles);

  service::ServiceConfig cfg;
  if (!opts.cache_dir.empty()) {
    cfg.cache = service::CacheConfig{opts.cache_dir,
                                     opts.cache_max_mb * 1024 * 1024};
  }
  cfg.workers = opts.workers;
  cfg.threads = opts.threads;
  service::CampaignService svc(runner, cfg);

  log_json(
      "\"event\":\"start\",\"cache\":" +
      (opts.cache_dir.empty() ? std::string("null")
                              : "\"" + json_escape(opts.cache_dir) + "\"") +
      ",\"workers\":" + std::to_string(opts.workers) + ",\"oracles\":" +
      (opts.no_oracles ? "false" : "true"));
  const int rc = opts.socket_path.empty() ? serve_stdin(svc, opts)
                                          : serve_socket(svc, opts);

  if (tracer.armed() && !trace_out.empty()) {
    if (tracer.write_chrome_trace(trace_out)) {
      log_json("\"event\":\"trace_written\",\"path\":\"" +
               json_escape(trace_out) + "\",\"spans\":" +
               std::to_string(tracer.span_count()) + ",\"dropped\":" +
               std::to_string(tracer.dropped_spans()));
    } else {
      log_json("\"event\":\"trace_write_failed\",\"path\":\"" +
               json_escape(trace_out) + "\"");
    }
  }
  if (!opts.metrics_path.empty()) {
    std::FILE* f = std::fopen(opts.metrics_path.c_str(), "w");
    if (f != nullptr) {
      const std::string line = render_stats();
      std::fwrite(line.data(), 1, line.size(), f);
      std::fclose(f);
      log_json("\"event\":\"metrics_written\",\"path\":\"" +
               json_escape(opts.metrics_path) + "\"");
    } else {
      log_json("\"event\":\"metrics_write_failed\",\"path\":\"" +
               json_escape(opts.metrics_path) + "\"");
    }
  }
  return rc;
}
