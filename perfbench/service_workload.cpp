// service_mixed: the real campaign_server on a Unix socket with a fresh
// cache directory and 2 forked workers, driven by this process over one
// closed-loop connection. With two connections a request's latency also
// held whatever the other connection's request left to run in the server's
// single executor, and on the shared 4-core container this was tuned on,
// runs_per_s moved by 30% between runs of the same code; with one it moved
// by 10%. The client code takes any number of connections (kConnections).
//
// Each connection's request stream is a pure function of (seed,
// connection): fresh grids (all specs miss), exact repeats of a request the
// connection already completed (all hit) and partial overlaps (a completed
// request with its second scenario swapped, never into a request already
// completed: two specs hit, two miss). A repeat
// only refers to requests the same connection has completed, and the two
// connections' seeds differ in parity, so which spec hits never depends on
// how the connections interleave.
//
// Where the traffic comes from:
// - Request shape: the campaign_server requests in ci.sh, two scenarios x
//   one vector x two modes at runs=3 (four specs).
// - Repeats: ci.sh's cache gate sends one request three times against one
//   cache directory, one miss and then two hits, so two requests in three
//   are exact repeats here.
// - Assumed, not measured: the third that brings new work is two fresh grids
//   for each partial overlap, and families, vectors and modes are drawn
//   uniformly. The kinds follow a fixed cycle, so every run serves the same
//   shares; with two fresh grids per partial overlap the miss median lies
//   among the fresh grids rather than on the gap between the two kinds.
//   The measured shares are reported every run.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "bench.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/sh_training.hpp"
#include "stats/hash.hpp"
#include "traced_cell.hpp"

extern char** environ;

namespace perfbench {

namespace ex = rt::experiments;

namespace {

constexpr int kSetups = 5;
constexpr int kWorkers = 2;
constexpr int kConnections = 1;
constexpr int kRunsPerSpec = 3;
// Request kinds in order (see the top of the file): F fresh grid, H exact
// repeat, P partial overlap.
constexpr char kKindCycle[] = "FHHFHHPHH";
constexpr int kMaxProbedCells = 240;
constexpr int kReferenceJobsPerRound = 100;
constexpr const char* kVectors[] = {"Disappear", "Move_Out", "Move_In"};
constexpr const char* kModes[] = {"R", "RwoSH", "Golden", "Random"};

/// A spawned campaign_server; stopped (SIGTERM, then SIGKILL) and reaped on
/// destruction.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { stop(); }

  bool start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& data_dir, const std::string& log_path) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string kv = *e;
      if (kv.rfind("ROBOTACK_DATA_DIR=", 0) == 0 ||
          kv.rfind("RT_CHAOS=", 0) == 0 || kv.rfind("RT_TRACE=", 0) == 0 ||
          kv.rfind("RT_CAMPAIGN_CACHE=", 0) == 0) {
        continue;
      }
      env.push_back(kv);
    }
    env.push_back("ROBOTACK_DATA_DIR=" + data_dir);
    std::vector<char*> envp;
    for (auto& kv : env) envp.push_back(kv.data());
    envp.push_back(nullptr);
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                 argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "cannot start %s: %s\n", binary.c_str(),
                   std::strerror(rc));
      return false;
    }
    return true;
  }

  [[nodiscard]] bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// Peak resident set (VmHWM) of the server process, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 1000; ++i) {  // the drain finishes queued requests
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_{-1};
};

/// One client connection with a line reader.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() { close(); }

  bool connect(const std::string& path) {
    close();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof addr) != 0) {
      close();
      return false;
    }
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buffer_.clear();
  }

  /// Sends one request line and collects the reply lines up to `end` (a
  /// `busy` reply ends the exchange too). False on IO failure.
  bool exchange(const std::string& line, std::vector<std::string>& reply) {
    reply.clear();
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string l = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        if (l == "end") return true;
        reply.push_back(std::move(l));
        if (reply.size() == 1 && reply.front() == "busy") return true;
        continue;
      }
      char chunk[8192];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_{-1};
  std::string buffer_;
};

std::string join(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out;
}

/// One grid request of the stream: scenarios x {vector} x modes.
struct Request {
  std::vector<std::string> scenarios;  ///< two distinct families
  std::string vector;
  std::vector<std::string> modes;  ///< two distinct modes
  std::uint64_t seed{0};

  [[nodiscard]] std::string line() const {
    return "run scenarios=" + join(scenarios) + " vectors=" + vector +
           " modes=" + join(modes) + " runs=" + std::to_string(kRunsPerSpec) +
           " seed=" + std::to_string(seed) + "\n";
  }

  /// The specs the server builds for this line (same builder). The builder
  /// numbers specs scenario-innermost, so the first scenario's specs keep
  /// their names and seeds when the second scenario changes.
  [[nodiscard]] std::vector<ex::CampaignSpec> specs() const {
    static const std::map<std::string, rt::core::AttackVector> vectors{
        {"Disappear", rt::core::AttackVector::kDisappear},
        {"Move_Out", rt::core::AttackVector::kMoveOut},
        {"Move_In", rt::core::AttackVector::kMoveIn}};
    static const std::map<std::string, ex::AttackMode> mode_keys{
        {"R", ex::AttackMode::kRobotack},
        {"RwoSH", ex::AttackMode::kNoSh},
        {"Golden", ex::AttackMode::kGolden},
        {"Random", ex::AttackMode::kRandomBaseline}};
    std::vector<ex::AttackMode> ms;
    for (const auto& m : modes) ms.push_back(mode_keys.at(m));
    ex::CampaignGridBuilder builder;
    builder.scenarios(scenarios)
        .vectors({vectors.at(vector)})
        .modes(ms)
        .runs(kRunsPerSpec)
        .seed(seed);
    return builder.build();
  }
};

/// Deterministic request stream of one connection.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int connection)
      : rng_(rt::stats::fnv1a_u64(
            rt::stats::fnv1a_u64(rt::stats::kFnv1aOffset, seed),
            static_cast<std::uint64_t>(connection))),
        connection_(connection),
        families_(rt::sim::ScenarioRegistry::global().keys()) {}

  Request next() {
    const char kind = kKindCycle[sent_++ % (std::size(kKindCycle) - 1)];
    if (done_.empty() || kind == 'F') return fresh();
    const Request& base = done_[pick(done_.size())];
    if (kind == 'P') {
      // Redraw a swap that would rebuild a completed request.
      for (int tries = 0; tries < 8; ++tries) {
        Request r = base;
        add_distinct(r.scenarios, families_, 1);
        if (seen_.count(r.line()) == 0) return r;
      }
      return fresh();
    }
    return base;
  }

  /// Only completed requests may be repeated; each is kept once, so every
  /// distinct request is equally likely to be repeated or overlapped.
  void completed(const Request& r) {
    if (seen_.insert(r.line()).second) done_.push_back(r);
  }

 private:
  std::size_t pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }

  /// Keeps the first `keep` items and draws distinct new ones from `pool`
  /// until there are two; the replacements differ from the dropped items.
  template <typename Pool>
  void add_distinct(std::vector<std::string>& items, const Pool& pool,
                    std::size_t keep) {
    const std::vector<std::string> before = items;
    items.resize(keep);
    while (items.size() < 2) {
      const std::string f = pool[pick(std::size(pool))];
      if (std::find(before.begin(), before.end(), f) == before.end() &&
          std::find(items.begin(), items.end(), f) == items.end()) {
        items.push_back(f);
      }
    }
  }

  Request fresh() {
    Request r;
    add_distinct(r.scenarios, families_, 0);
    r.vector = kVectors[pick(std::size(kVectors))];
    add_distinct(r.modes, kModes, 0);
    // Parity keeps the two connections' specs apart.
    r.seed = ((rng_() >> 24) << 1) | static_cast<std::uint64_t>(connection_);
    return r;
  }

  std::mt19937_64 rng_;
  std::size_t sent_{0};
  int connection_;
  std::vector<std::string> families_;
  std::vector<Request> done_;
  std::set<std::string> seen_;  ///< request lines in done_
};

/// What the client saw of one completed request.
struct Sample {
  std::uint64_t recv_ns{0};
  double latency_ms{0.0};
  int specs{0};
  int expected_hits{0};
  std::vector<ex::CampaignSpec> new_specs;  ///< specs that missed
};

/// One `request` record of the server's JSONL log.
struct ServerRecord {
  std::uint64_t id{0};
  int specs{0};
  int hits{0};
  double wall_ms{0.0};
};

/// The number after `"key":` in a flat JSON line (0 when absent).
double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

std::vector<ServerRecord> read_server_log(const std::string& path) {
  std::vector<ServerRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"request\"") == std::string::npos) continue;
    ServerRecord r;
    r.id = static_cast<std::uint64_t>(json_number(line, "id"));
    r.specs = static_cast<int>(json_number(line, "specs"));
    r.hits = static_cast<int>(json_number(line, "hits"));
    r.wall_ms = json_number(line, "wall_ms");
    out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const ServerRecord& a, const ServerRecord& b) {
              return a.id < b.id;
            });
  return out;
}

/// Drives one connection until the deadline, or for exactly `quota`
/// requests when `quota` is not 0.
void drive(Connection& conn, std::uint64_t seed, int connection,
           std::uint64_t deadline, std::size_t quota, Report& report,
           std::mutex& report_mu, std::vector<Sample>& samples) {
  RequestStream stream(seed, connection);
  std::map<std::string, std::string> rows;  // spec key -> first CSV row
  std::vector<std::string> reply;
  for (std::size_t sent = 0; quota == 0 ? now_ns() < deadline : sent < quota;
       ++sent) {
    const Request req = stream.next();
    const std::vector<ex::CampaignSpec> specs = req.specs();
    const std::uint64_t t0 = now_ns();
    const bool io_ok = conn.exchange(req.line(), reply);
    const std::uint64_t t1 = now_ns();
    std::string why;
    if (!io_ok) {
      why = "connection failed";
    } else if (reply.size() == 1 && reply.front() == "busy") {
      why = "server answered busy";
    } else if (reply.size() != specs.size() + 1) {
      why = "reply has " + std::to_string(reply.size()) + " lines, want " +
            std::to_string(specs.size() + 1) +
            (reply.empty() ? std::string() : ": " + reply.back());
    }
    Sample s;
    s.recv_ns = t1;
    s.latency_ms = static_cast<double>(t1 - t0) / 1e6;
    s.specs = static_cast<int>(specs.size());
    for (std::size_t i = 0; why.empty() && i < specs.size(); ++i) {
      const std::string& row = reply[i + 1];
      if (row.rfind(specs[i].name + ",", 0) != 0) {
        why = "row " + std::to_string(i) + " is not " + specs[i].name;
        break;
      }
      const std::string key =
          specs[i].name + "#" + std::to_string(specs[i].seed);
      const auto [it, inserted] = rows.emplace(key, row);
      if (inserted) {
        s.new_specs.push_back(specs[i]);
      } else {
        ++s.expected_hits;
        if (it->second != row) {
          why = "cached row for " + key + " differs from its executed row";
        }
      }
    }
    std::lock_guard<std::mutex> lock(report_mu);
    report.attempt();
    if (!why.empty()) {
      report.fail("connection " + std::to_string(connection) + ": " + why);
      if (!io_ok) return;
      continue;
    }
    stream.completed(req);
    samples.push_back(std::move(s));
  }
}

}  // namespace

int run_service_workload(const Options& opts, Report& report) {
  if (opts.server.empty()) {
    std::fprintf(stderr, "service_mixed needs --server PATH\n");
    return 2;
  }
  print_launch(opts);
  // Traced runs also probe cells in this process, which needs the oracles;
  // train them before anything is timed.
  std::unique_ptr<ex::CampaignRunner> runner;
  double train_s = 0.0;
  if (opts.trace) {
    fresh_dir("client-oracles");
    const std::uint64_t t = now_ns();
    ex::OracleSet oracles = ex::load_or_train_oracles(
        "client-oracles", ex::LoopConfig{}, ex::ShTrainingConfig{});
    train_s = static_cast<double>(now_ns() - t) / 1e9;
    runner = std::make_unique<ex::CampaignRunner>(ex::LoopConfig{},
                                                  std::move(oracles));
  }

  // Set-ups and rounds. Each set-up spawns a server that trains its oracles
  // into an empty directory and has an empty cache, and is timed until its
  // socket accepts. That server then serves one round of the request
  // streams. The first round runs for a fifth of the run's time; the others
  // replay exactly as many requests per connection. Every request of the
  // streams therefore meets the same cache state in every round.
  std::vector<double> setup_s;
  std::vector<Sample> rounds[kSetups][kConnections];
  std::size_t quota[kConnections] = {};
  std::vector<double> hit_ms;  // as served, every round
  std::vector<double> miss_ms;
  std::vector<double> exec_ms;
  std::vector<double> overhead_ms;
  double miss_exec_s = 0.0;
  long miss_specs = 0;
  double served_s = 0.0;
  double reference_fastest_ms = 0.0;
  double server_rss_mb = 0.0;
  std::string stats;
  std::string cache_dir;
  std::mutex report_mu;
  for (int k = 0; k < kSetups; ++k) {
    ServerProcess server;
    Connection conns[kConnections];
    const std::string tag = std::to_string(k);
    const std::string sock = "srv-" + tag + ".sock";
    const std::string log_path = "srv-" + tag + ".log";
    cache_dir = "srv-cache-" + tag;
    fresh_dir("srv-oracles-" + tag);
    fresh_dir(cache_dir);
    const std::uint64_t start = now_ns();
    if (!server.start(opts.server,
                      {"--socket", sock, "--cache-dir", cache_dir,
                       "--workers", std::to_string(kWorkers)},
                      "srv-oracles-" + tag, log_path)) {
      return 2;
    }
    const std::uint64_t give_up = now_ns() + 120'000'000'000ull;
    while (!conns[0].connect(sock)) {
      if (!server.running() || now_ns() > give_up) {
        std::fprintf(stderr, "campaign_server did not come up (see %s)\n",
                     log_path.c_str());
        return 2;
      }
      ::usleep(1000);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    for (int c = 1; c < kConnections; ++c) {
      if (!conns[c].connect(sock)) {
        std::fprintf(stderr, "second connection refused\n");
        return 2;
      }
    }

    // The host's speed just before the round, with the server idle.
    for (int j = 0; j < kReferenceJobsPerRound; ++j) {
      const double ref = static_cast<double>(reference_job_ns()) / 1e6;
      reference_fastest_ms = k == 0 && j == 0
                                 ? ref
                                 : std::min(reference_fastest_ms, ref);
    }
    auto& samples = rounds[k];
    const std::uint64_t round_start = now_ns();
    const std::uint64_t deadline =
        round_start + static_cast<std::uint64_t>(opts.seconds * 1e9 / kSetups);
    {
      std::vector<std::thread> clients;
      for (int c = 0; c < kConnections; ++c) {
        clients.emplace_back([&, c] {
          drive(conns[c], opts.seed, c, deadline, quota[c], report, report_mu,
                samples[c]);
        });
      }
      for (auto& t : clients) t.join();
    }
    served_s += static_cast<double>(now_ns() - round_start) / 1e9;
    if (k == 0) {
      for (int c = 0; c < kConnections; ++c) quota[c] = samples[c].size();
    }

    std::vector<std::string> stats_reply;
    report.attempt();
    if (!conns[0].exchange("stats\n", stats_reply) || stats_reply.empty()) {
      report.fail("stats verb failed");
      stats_reply.assign(1, "");
    }
    stats = stats_reply.front();
    server_rss_mb = std::max(server_rss_mb, server.peak_rss_mb());
    for (auto& c : conns) c.close();
    server.stop();

    // Client view of the round, merged in completion order.
    std::vector<Sample> all;
    for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end(), [](const Sample& a, const Sample& b) {
      return a.recv_ns < b.recv_ns;
    });
    long expected_hits = 0;
    for (const auto& s : all) {
      (s.expected_hits == s.specs ? hit_ms : miss_ms).push_back(s.latency_ms);
      expected_hits += s.expected_hits;
      miss_specs += s.specs - s.expected_hits;
    }
    // Server view: every spec the client expected to hit must have hit.
    const std::vector<ServerRecord> records = read_server_log(log_path);
    long server_hits = 0;
    for (const auto& r : records) {
      server_hits += r.hits;
      if (r.hits < r.specs) {
        exec_ms.push_back(r.wall_ms);
        miss_exec_s += r.wall_ms / 1e3;
      }
    }
    report.gate(records.size() == all.size(),
                "server logged " + std::to_string(records.size()) +
                    " requests, client completed " +
                    std::to_string(all.size()));
    report.gate(server_hits == expected_hits,
                "server served " + std::to_string(server_hits) +
                    " cache hits, client expected " +
                    std::to_string(expected_hits));
    // Requests execute one at a time in queue order, so completion order is
    // execution order; pair client samples with log records where the
    // spec/hit counts agree.
    for (std::size_t i = 0; i < all.size() && i < records.size(); ++i) {
      if (all[i].specs == records[i].specs &&
          all[i].expected_hits == records[i].hits) {
        overhead_ms.push_back(all[i].latency_ms - records[i].wall_ms);
      }
    }
  }

  // Each request of the streams, at its fastest over the rounds. With one
  // connection no request waits behind another, so the server's rate is
  // requests over the summed latency. On the shared host this was tuned on,
  // other tenants slowed requests by up to 2x in bursts of seconds; the
  // fastest of a request's repeats is far steadier than its latency in one
  // round.
  std::vector<double> fastest_ms;
  std::vector<double> miss_fastest_ms;
  long runs = 0;
  long hits = 0;
  long fresh = 0;
  for (int c = 0; c < kConnections; ++c) {
    for (std::size_t i = 0; i < quota[c]; ++i) {
      const Sample& s = rounds[0][c][i];
      double ms = s.latency_ms;
      for (int k = 1; k < kSetups; ++k) {
        const auto& replay = rounds[k][c];
        const bool same = i < replay.size() && replay[i].specs == s.specs &&
                          replay[i].expected_hits == s.expected_hits;
        report.gate(same, "round " + std::to_string(k) + " request " +
                              std::to_string(i) + " differs from round 0");
        if (same) ms = std::min(ms, replay[i].latency_ms);
      }
      fastest_ms.push_back(ms);
      if (s.expected_hits < s.specs) miss_fastest_ms.push_back(ms);
      runs += static_cast<long>(s.specs) * kRunsPerSpec;
      hits += s.expected_hits == s.specs ? 1 : 0;
      fresh += s.expected_hits == 0 ? 1 : 0;
    }
  }
  // The mix as served: all specs hit, some hit, none hit.
  const double n_requests =
      fastest_ms.empty() ? 1.0 : static_cast<double>(fastest_ms.size());
  const double hit_share = static_cast<double>(hits) / n_requests;
  const double fresh_share = static_cast<double>(fresh) / n_requests;
  const double partial_share = 1.0 - hit_share - fresh_share;
  std::printf("mix: %zu requests, hit %.4f, partial %.4f, fresh %.4f\n",
              fastest_ms.size(), hit_share, partial_share, fresh_share);
  std::printf("as served: %.2f requests/s over %d rounds of %.2f s\n",
              static_cast<double>(hit_ms.size() + miss_ms.size()) / served_s,
              kSetups, served_s / kSetups);

  if (!opts.trace) {
    std::printf(
        "samples: %zu requests (%zu miss) over %d connections, each timed in "
        "%d rounds, %d setups\n",
        fastest_ms.size(), miss_fastest_ms.size(), kConnections, kSetups,
        kSetups);
    // Scaled to the nominal host speed, as on the grid workloads.
    const double scale = kReferenceNominalMs / reference_fastest_ms;
    std::printf("host: reference job fastest %.4f ms (nominal %.4f)\n",
                reference_fastest_ms, kReferenceNominalMs);
    double fastest_s = 0.0;
    for (double& ms : fastest_ms) {
      ms *= scale;
      fastest_s += ms / 1e3;
    }
    for (double& ms : miss_fastest_ms) ms *= scale;
    report.add("setup_s", median(setup_s), "s");
    report.add("runs_per_s", static_cast<double>(runs) / fastest_s, "1/s");
    report.add("requests_per_s",
               static_cast<double>(fastest_ms.size()) / fastest_s, "1/s");
    report.add("miss_p50_ms", percentile(miss_fastest_ms, 0.5), "ms");
    report.add("peak_rss_mb", server_rss_mb, "MB");
    return 0;
  }

  // Stage metrics from the cells the server executed for misses.
  CellProbe probe(*runner);
  // Connection 0's misses in its own order: a cell set fixed by the seed.
  std::vector<ex::CampaignSpec> stored;
  for (const auto& s : rounds[0][0]) {
    stored.insert(stored.end(), s.new_specs.begin(), s.new_specs.end());
  }
  if (!stored.empty()) (void)runner->run_one(stored.front(), 0);  // warm-up
  probe.probe_grid(stored, kMaxProbedCells, report);
  const StageTotals& t = probe.totals();
  std::printf("traced: %llu cells, %llu frames, coverage %.4f\n",
              static_cast<unsigned long long>(t.cells),
              static_cast<unsigned long long>(t.frames), t.coverage());
  report.gate(t.byte_mismatches == 0,
              "traced cells must serialize byte-identically to run_one");
  report.gate(t.mot_mismatched_frames == 0,
              "MOT replay must equal the ADS camera tracks on every frame");
  add_stage_metrics(t, t, report);
  const double cell_s = t.ref_cells == 0
                            ? 0.0
                            : static_cast<double>(t.ref_ns) / 1e9 /
                                  static_cast<double>(t.ref_cells);
  report.add("runtime.parallel_efficiency",
             miss_exec_s == 0.0
                 ? 0.0
                 : cell_s * static_cast<double>(miss_specs * kRunsPerSpec) /
                       (kWorkers * miss_exec_s),
             "ratio");
  report.add("nn.oracle_train_s", train_s, "s");
  report.add("service.hit_share", hit_share, "ratio");
  report.add("service.partial_share", partial_share, "ratio");
  report.add("service.fresh_share", fresh_share, "ratio");
  // The last round's server.
  const double cache_hits = json_number(stats, "rt_campaign_cache_hits_total");
  const double cache_misses =
      json_number(stats, "rt_campaign_cache_misses_total");
  report.add("service.hit_ratio",
             cache_hits + cache_misses == 0.0
                 ? 0.0
                 : cache_hits / (cache_hits + cache_misses),
             "ratio");
  report.add("service.cache_stores",
             json_number(stats, "rt_campaign_cache_stores_total"), "count");
  report.add("service.shard_retries",
             json_number(stats, "rt_shard_retry_waves_total"), "count");
  report.add("service.exec_ms_p50", median(exec_ms), "ms");
  report.add("service.overhead_ms_p50", median(overhead_ms), "ms");
  report.add("service.hit_p50_ms", percentile(hit_ms, 0.5), "ms");
  add_tail(report, "service.hit_p90_ms", hit_ms, 0.9, "ms");
  add_tail(report, "service.miss_p90_ms", miss_ms, 0.9, "ms");
  measure_cache_reads(cache_dir, stored, report);
  return 0;
}

}  // namespace perfbench
