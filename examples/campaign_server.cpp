// Campaign-as-a-service front-end: a long-lived process answering
// line-delimited campaign-grid requests against one shared content-hash
// result cache (rt::service::CampaignService). Batch mode reads requests
// from stdin; --socket PATH serves the same protocol on a Unix stream
// socket to MANY concurrent clients: each connection gets a reader thread,
// parsed requests land in a bounded queue (overflow is answered `busy`),
// and a single executor thread runs grids one at a time — so results stay
// bit-deterministic (a repeated request is byte-identical, whatever the
// client interleaving) while parsing and IO overlap execution.
//
// The request grammar, the CSV responses, the per-request `request` log
// record and the queue live in src/service/server.hpp; this file holds the
// flags, start-up and the two front-end loops.
//
// Responses (socket mode) end with `end\n`; a request rejected by the full
// queue is answered `busy\n` (and nothing else). A reply goes out before
// its cache entries are durable (CampaignService commits them on its own
// thread). A client line `shutdown` — or SIGTERM/SIGINT — drains the
// queued requests, answers them, commits every staged cache entry, then
// exits 0; so does the end of a stdin batch. RT_CHAOS arms the deterministic fault injector at startup (see
// service/fault_injection.hpp), which is how the chaos suite drives
// client-write failures through a real server.
//
// Observability: `--trace PATH` (or the RT_TRACE env var, whose value is
// the path) arms the span tracer and writes a Chrome trace-event JSON file
// on exit; requests get queue-wait / execute / serialize spans on top of
// the service- and scheduler-level ones. `--metrics PATH` writes the final
// registry snapshot as Prometheus text; the `stats` verb serves it in-band
// as one JSON line.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/reporting.hpp"
#include "experiments/sh_training.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/campaign_service.hpp"
#include "service/fault_injection.hpp"
#include "service/server.hpp"

using namespace rt;
using service::log_json;
using service::Verb;

namespace {

struct ServerOptions {
  std::string cache_dir;       ///< empty = no result cache
  std::size_t cache_max_mb{256};
  unsigned workers{0};         ///< forked workers per miss batch
  unsigned threads{0};         ///< in-process threads when workers == 0
  std::string socket_path;     ///< empty = stdin batch mode
  bool no_oracles{false};      ///< skip oracle loading (R requests run
                               ///< without a safety hijacker model)
  int queue_limit{8};          ///< pending requests before `busy` replies
  std::string trace_path;      ///< Chrome trace JSON written on exit
  std::string metrics_path;    ///< final metrics snapshot (Prometheus text)
};

/// listen(2) backlog of the socket front-end.
constexpr int kListenBacklog = 16;

[[noreturn]] void usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(
      out,
      "usage: %s [--cache-dir PATH] [--cache-max-mb N] [--workers N]\n"
      "          [--threads N] [--socket PATH] [--no-oracles]\n"
      "          [--queue-limit N] [--trace PATH] [--metrics PATH]\n"
      "Reads 'run ...' requests from stdin (or the Unix socket) and streams\n"
      "CSV results; see src/service/server.hpp for the request language.\n"
      "RT_CHAOS arms the deterministic fault injector; RT_TRACE=PATH arms\n"
      "the span tracer (same as --trace PATH). --metrics writes the final\n"
      "metrics snapshot as Prometheus text; the `stats` verb serves it\n"
      "in-band as JSON.\n",
      argv0);
  std::exit(code);
}

/// `s` as a quoted, escaped JSON string for a log record.
std::string quoted(const std::string& s) {
  std::string out = "\"";
  obs::append_json_escaped(out, s.c_str());
  return out + "\"";
}

/// Parses one line and reports a rejected request on stderr.
service::ParsedLine parse_and_report(const std::string& line) {
  service::ParsedLine parsed = service::parse_line(line);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "error: %s\n", parsed.error.c_str());
  }
  return parsed;
}

/// Serves the stdin batch: every line is a request, EOF or quit ends the
/// batch, and the cumulative cache summary is the last stderr line.
int serve_stdin(service::CampaignService& svc) {
  const auto write_stdout = [](const std::string& body) {
    std::fwrite(body.data(), 1, body.size(), stdout);
    std::fflush(stdout);
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    const service::ParsedLine parsed = parse_and_report(line);
    if (parsed.verb == Verb::kQuit || parsed.verb == Verb::kShutdown) break;
    if (parsed.verb == Verb::kStats) write_stdout(service::render_stats());
    if (parsed.verb == Verb::kRun) {
      service::execute_request(svc, parsed.request, std::nullopt,
                               write_stdout);
    }
  }
  service::log_cache_summary(svc);
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
      log_json("\"event\":\"client_drop\",\"error\":" +
               quoted(std::strerror(errno)));
    }
  }

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> open{true};
};

struct Job {
  std::shared_ptr<Connection> conn;
  service::GridRequest request;
  Verb verb{Verb::kRun};        ///< kRun or kStats
  std::uint64_t enqueue_ns{0};  ///< for the request_queue_wait span
};

using JobQueue = service::JobQueue<Job>;

/// Reads one connection: splits lines, parses, enqueues. Every `run` line
/// is answered — `busy` on queue overflow, otherwise (eventually) the
/// executor's rows + `end`. Malformed lines answer a bare `end` so clients
/// never hang on a typo. Returns when the client disconnects, sends
/// `quit`/`shutdown`, or the server begins draining.
void reader_loop(const std::shared_ptr<Connection>& conn, JobQueue& queue,
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
      service::ParsedLine parsed = parse_and_report(line);
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
          Job job{conn, std::move(parsed.request), parsed.verb,
                  obs::Tracer::now_ns()};
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
void executor_loop(service::CampaignService& svc, JobQueue& queue) {
  while (auto job = queue.pop()) {
    if (!job->conn->open.load(std::memory_order_relaxed)) continue;
    if (job->verb == Verb::kStats) {
      // Answered on the executor so a `stats` line queued after a `run`
      // reflects that run — same ordering the client observes.
      job->conn->send(service::render_stats() + "end\n");
      continue;
    }
    service::execute_request(svc, job->request, job->enqueue_ns,
                             [&](const std::string& body) {
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
      ::listen(listener, kListenBacklog) != 0) {
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

  log_json("\"event\":\"listening\",\"socket\":" + quoted(opts.socket_path) +
           ",\"backlog\":" + std::to_string(kListenBacklog) +
           ",\"queue_limit\":" + std::to_string(opts.queue_limit));

  JobQueue queue(static_cast<std::size_t>(opts.queue_limit));
  std::atomic<bool> draining{false};
  std::thread executor([&] { executor_loop(svc, queue); });
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
        [conn, &queue, &draining] { reader_loop(conn, queue, draining); });
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
  service::log_cache_summary(svc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServerOptions opts;
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
      const auto v = experiments::parse_uint(text, lo, hi);
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
    } else if (std::strcmp(argv[i], "--queue-limit") == 0) {
      opts.queue_limit = static_cast<int>(uint_value(1, 1 << 20));
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

  log_json("\"event\":\"start\",\"cache\":" +
           (opts.cache_dir.empty() ? std::string("null")
                                   : quoted(opts.cache_dir)) +
           ",\"workers\":" + std::to_string(opts.workers) + ",\"oracles\":" +
           (opts.no_oracles ? "false" : "true"));
  const int rc = opts.socket_path.empty() ? serve_stdin(svc)
                                          : serve_socket(svc, opts);

  if (tracer.armed() && !trace_out.empty()) {
    if (tracer.write_chrome_trace(trace_out)) {
      log_json("\"event\":\"trace_written\",\"path\":" + quoted(trace_out) +
               ",\"spans\":" + std::to_string(tracer.span_count()) +
               ",\"dropped\":" + std::to_string(tracer.dropped_spans()));
    } else {
      log_json("\"event\":\"trace_write_failed\",\"path\":" +
               quoted(trace_out));
    }
  }
  if (!opts.metrics_path.empty()) {
    const char* event = obs::write_prometheus_file(opts.metrics_path)
                            ? "metrics_written"
                            : "metrics_write_failed";
    log_json(std::string("\"event\":\"") + event + "\",\"path\":" +
             quoted(opts.metrics_path));
  }
  return rc;
}
