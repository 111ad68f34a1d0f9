#include "service/sharded_scheduler.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/fault_injection.hpp"
#include "stats/hash.hpp"

namespace rt::service {

namespace {

using experiments::CampaignRunner;
using experiments::CampaignSpec;
using experiments::GridDeadline;
using experiments::GridOutcome;
using experiments::deadline_passed;

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFrameMagic = 0x52542d43454c4c32ull;  // "RT-CELL2"
/// A RunResult frame is a few KB; anything near this is stream corruption.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;
/// Sentinel cell index for the one trailing frame a worker sends when the
/// tracer is armed: its payload is the worker's serialized span buffers,
/// not a RunResult. Cell indices are bounded by the grid size, so the
/// sentinel can never collide with a real cell.
constexpr std::uint64_t kTraceFrameCell = ~0ull;

/// Ceiling of the exponential retry backoff.
constexpr int kRetryBackoffMaxMs = 2000;

/// The sharder's counters, accumulated across every grid this process
/// runs. Forked workers keep their metric increments to themselves — only
/// their trace buffers are shipped back — so these count parent-process
/// events, matching FaultInjector::injected_total() semantics.
struct ShardCounters {
  obs::Counter waves;
  obs::Counter worker_deaths;
  obs::Counter retry_waves;
  obs::Counter fork_failures;
  obs::Counter cells_recovered;
  obs::Counter deadline_expirations;
  obs::Counter forks;
};

const ShardCounters& shard_counters() {
  static const ShardCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return ShardCounters{
        reg.counter("rt_shard_waves_total",
                    "Fork waves launched (first wave + retries)"),
        reg.counter("rt_shard_worker_deaths_total",
                    "Forked workers that died or corrupted their stream"),
        reg.counter("rt_shard_retry_waves_total",
                    "Recovery waves forked after worker deaths"),
        reg.counter("rt_shard_fork_failures_total",
                    "fork()/pipe() failures absorbed by degradation"),
        reg.counter("rt_shard_cells_recovered_in_process_total",
                    "Cells recovered by the threaded in-process fallback"),
        reg.counter("rt_shard_deadline_expirations_total",
                    "Grids cut short by a request deadline"),
        reg.counter("rt_shard_forks_total",
                    "Worker processes forked (first wave + retries)")};
  }();
  return c;
}

std::uint64_t payload_checksum(std::string_view payload) {
  return stats::fnv1a_str(stats::kFnv1aOffset, payload);
}

/// Milliseconds until `t`, rounded up (a poll never wakes just short of
/// `t` and spins) and clamped to [0, ~2^30].
int ms_until(Clock::time_point t) {
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(
                      t - Clock::now())
                      .count();
  if (ms <= 0) return 0;
  return static_cast<int>(std::min<long long>(ms, 1ll << 30));
}

void sleep_ms(int ms) {
  struct timespec ts {};
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

/// Header of every frame: {magic, cell index, payload length, payload
/// FNV-1a}. The checksum is what turns a corrupted pipe byte from silent
/// result corruption into a detected worker death (and thus a re-run of the
/// affected cells).
constexpr std::size_t kFrameHeaderBytes = 4 * sizeof(std::uint64_t);
/// Bytes one read takes from a ready pipe (the pipe buffer's default size).
constexpr std::size_t kReadChunk = 64 * 1024;

struct Frame {
  std::uint64_t cell{0};
  std::string_view payload;
};

/// Parses the frame at the front of `buf`: 1 and `consumed` set when a
/// whole, valid frame is there, 0 when more bytes are needed, -1 on a bad
/// magic, an oversized length or a checksum mismatch (a corrupt stream).
int parse_frame(std::string_view buf, Frame& out, std::size_t& consumed) {
  if (buf.size() < kFrameHeaderBytes) return 0;
  std::uint64_t header[4];
  std::memcpy(header, buf.data(), kFrameHeaderBytes);
  if (header[0] != kFrameMagic || header[2] > kMaxFramePayload) return -1;
  const auto len = static_cast<std::size_t>(header[2]);
  if (buf.size() - kFrameHeaderBytes < len) return 0;
  out.cell = header[1];
  out.payload = buf.substr(kFrameHeaderBytes, len);
  if (payload_checksum(out.payload) != header[3]) return -1;
  consumed = kFrameHeaderBytes + len;
  return 1;
}

void write_frame(int fd, std::uint64_t cell, const std::string& payload,
                 bool& ok) {
  if (!ok) return;
  const std::uint64_t header[4] = {kFrameMagic, cell, payload.size(),
                                   payload_checksum(payload)};
  ok = write_all_fd(FaultSite::kPipeWrite, fd, header, sizeof header) &&
       write_all_fd(FaultSite::kPipeWrite, fd, payload.data(),
                    payload.size());
}

}  // namespace

ShardedCampaignScheduler::ShardedCampaignScheduler(
    const CampaignRunner& runner, ShardOptions opts)
    : runner_(runner), opts_(opts) {}

GridOutcome ShardedCampaignScheduler::run_all_checked(
    const std::vector<CampaignSpec>& specs, const GridDeadline& deadline,
    experiments::CampaignComplete on_complete) const {
  experiments::GridSlots slots(specs, std::move(on_complete));
  const std::vector<experiments::GridCell>& cells = slots.cells();
  if (cells.empty()) return std::move(slots).finish(false);
  const ShardCounters& counters = shard_counters();
  using Shard = std::vector<experiments::GridDrive>;
  const Shard drives = slots.drives(slots.unfilled());

  unsigned workers = opts_.workers == 0
                         ? runtime::ThreadPool::default_threads()
                         : opts_.workers;
  workers = std::max(
      1u, std::min(workers, static_cast<unsigned>(drives.size())));
  bool deadline_expired = false;

  // Deterministic worker ids (fork order), folded into the fault-injection
  // schedule stream so distinct workers draw distinct — but reproducible —
  // fault sequences.
  std::uint64_t worker_seq = 0;

  // Worker body: run the assigned drives, after each one stream one frame
  // per member cell, then _exit (no atexit/flush: nothing in the parent's
  // state may be touched). Never returns.
  const auto child_main = [&](const Shard& shard, int wfd, int crash_after,
                              std::uint64_t worker_id) {
    FaultInjector::instance().set_worker(worker_id);
    // fork() duplicated the parent's span buffers; drop them or this
    // worker would ship the parent's pre-fork spans back as its own.
    obs::Tracer::global().clear();
    const std::uint64_t span_start = obs::Tracer::now_ns();
    bool ok = true;
    int sent = 0;
    try {
      for (const experiments::GridDrive& drive : shard) {
        const std::vector<experiments::RunResult> runs =
            slots.simulate(runner_, drive);
        for (std::size_t m = 0; m < drive.size(); ++m) {
          if (crash_after >= 0 && sent == crash_after) ::_exit(42);
          write_frame(wfd, drive[m],
                      experiments::serialize_run_result(runs[m]), ok);
          ++sent;
        }
      }
    } catch (...) {
      ::_exit(3);
    }
    if (obs::Tracer::global().armed()) {
      // One trailing sentinel frame carries this worker's span buffers to
      // the parent. A worker that dies mid-stream simply never sends it —
      // its spans are lost, its results re-run; observation stays passive.
      obs::record_span("shard_worker", "shard", span_start,
                       obs::Tracer::now_ns(), worker_id, "worker");
      write_frame(wfd, kTraceFrameCell,
                  obs::Tracer::global().serialize_and_clear(), ok);
    }
    ::close(wfd);
    ::_exit(ok ? 0 : 4);
  };

  // Forks one worker per shard and drains every pipe at once. All pipes
  // are created before the first fork, and each child closes every
  // descriptor except its own write end — otherwise a sibling's surviving
  // write-end copy would keep a dead worker's pipe from ever reaching EOF.
  // One poll covers every live pipe, so a frame is merged (and may
  // complete a campaign, firing the commit hook) as soon as it arrives,
  // whichever worker sent it. Each worker has its own silence budget,
  // renewed by every byte it sends; a poll error cannot be pinned on one
  // pipe, so it ends every live stream (their received cells are kept).
  // A deadline expiry kills every worker still running.
  const auto run_wave = [&](const std::vector<Shard>& shards,
                            bool allow_crash_hook) {
    RT_TRACE_SPAN("shard_wave", "shard",
                  static_cast<std::uint64_t>(shards.size()), "shards");
    counters.waves.inc();
    struct Stream {
      int rfd{-1};
      int wfd{-1};
      pid_t pid{-1};
      std::uint64_t wid{0};
      bool live{false};  ///< pipe still open, stream not ended
      bool dead{true};   ///< cleared only by a clean EOF
      Clock::time_point silent_until{};
      std::string buf;  ///< bytes read, not yet parsed into frames
    };
    const std::size_t n = shards.size();
    // The first member of each drive: its frame stands for the drive.
    std::vector<char> leads(cells.size(), 0);
    for (const Shard& shard : shards) {
      for (const experiments::GridDrive& drive : shard) {
        leads[drive.front()] = 1;
      }
    }
    std::vector<Stream> streams(n);
    for (Stream& st : streams) {
      int fds[2];
      if (::pipe(fds) == 0) {
        st.rfd = fds[0];
        st.wfd = fds[1];
      }
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (streams[s].wfd < 0) continue;  // pipe() failed: shard is dead
      const std::uint64_t worker_id = ++worker_seq;
      streams[s].wid = worker_id;
      const pid_t pid = sys_fork();
      if (pid < 0) {
        // fork() failed (EAGAIN under pressure): shard handled as dead;
        // the retry waves (with backoff) and the threaded in-process
        // fallback below are the degradation path.
        counters.fork_failures.inc();
        continue;
      }
      if (pid == 0) {
        for (std::size_t t = 0; t < n; ++t) {
          if (streams[t].rfd >= 0) ::close(streams[t].rfd);
          if (t != s && streams[t].wfd >= 0) ::close(streams[t].wfd);
        }
        const int crash_after =
            (allow_crash_hook && static_cast<int>(s) == opts_.crash_shard)
                ? opts_.crash_after_cells
                : -1;
        child_main(shards[s], streams[s].wfd, crash_after, worker_id);
      }
      counters.forks.inc();
      streams[s].pid = pid;
    }
    const Clock::time_point started = Clock::now();
    for (Stream& st : streams) {
      if (st.wfd >= 0) ::close(st.wfd);
      st.live = st.pid >= 0;
      st.silent_until =
          started + std::chrono::milliseconds(opts_.read_timeout_ms);
    }

    // Ends a stream: closes its pipe, and SIGKILLs a worker that did not
    // finish cleanly so it stops computing cells nobody will read.
    const auto end_stream = [](Stream& st, bool clean) {
      st.live = false;
      st.dead = !clean;
      ::close(st.rfd);
      st.rfd = -1;
      if (!clean) ::kill(st.pid, SIGKILL);
    };
    // Merges every whole frame at the front of the stream's buffer.
    // Returns false on a corrupt stream.
    const auto merge_frames = [&](Stream& st) {
      std::size_t used = 0;
      while (true) {
        Frame f;
        std::size_t consumed = 0;
        const int pr = parse_frame(
            std::string_view(st.buf).substr(used), f, consumed);
        if (pr < 0) return false;
        if (pr == 0) break;
        used += consumed;
        if (f.cell == kTraceFrameCell) {
          // The worker's span buffers. Absorption is strict but failure
          // is absorbed observability-side (counted on the tracer) — a
          // bad trace frame must never invalidate good results.
          obs::Tracer::global().absorb(std::string(f.payload), st.wid);
          continue;
        }
        if (f.cell >= cells.size() || slots.filled(f.cell)) {
          return false;  // out-of-range or duplicate cell: corrupt stream
        }
        try {
          slots.fill(f.cell, experiments::deserialize_run_result(f.payload));
        } catch (const experiments::SerdeError&) {
          return false;
        }
        experiments::count_merged_cells(1, leads[f.cell] != 0 ? 1 : 0);
      }
      st.buf.erase(0, used);
      return true;
    };

    std::vector<char> chunk(kReadChunk);
    std::vector<struct pollfd> pfds;
    std::vector<Stream*> polled;
    while (true) {
      pfds.clear();
      polled.clear();
      Clock::time_point wait_end = Clock::time_point::max();
      for (Stream& st : streams) {
        if (!st.live) continue;
        pfds.push_back({st.rfd, POLLIN, 0});
        polled.push_back(&st);
        wait_end = std::min(wait_end, st.silent_until);
      }
      if (polled.empty()) break;
      if (deadline_passed(deadline)) {
        deadline_expired = true;
        for (Stream* st : polled) end_stream(*st, false);
        break;
      }
      if (deadline && *deadline < wait_end) wait_end = *deadline;
      const int pr = sys_poll(FaultSite::kPipePoll, pfds.data(),
                              static_cast<nfds_t>(pfds.size()),
                              ms_until(wait_end));
      if (pr < 0) {
        if (errno == EINTR) continue;
        for (Stream* st : polled) end_stream(*st, false);
        break;
      }
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < polled.size(); ++i) {
        Stream& st = *polled[i];
        if (pfds[i].revents == 0) {
          // Silent past its budget: declared dead. A stream with bytes
          // waiting is always read first, however late the parent polls.
          if (now >= st.silent_until) end_stream(st, false);
          continue;
        }
        const ssize_t got =
            sys_read(FaultSite::kPipeRead, st.rfd, chunk.data(), chunk.size());
        if (got < 0) {
          if (errno != EINTR) end_stream(st, false);
        } else if (got == 0) {
          // EOF: clean only on a frame boundary (else a truncated frame).
          end_stream(st, st.buf.empty());
        } else {
          st.buf.append(chunk.data(), static_cast<std::size_t>(got));
          st.silent_until =
              now + std::chrono::milliseconds(opts_.read_timeout_ms);
          if (!merge_frames(st)) end_stream(st, false);
        }
      }
    }

    for (Stream& st : streams) {
      if (st.rfd >= 0) ::close(st.rfd);
      if (st.pid >= 0) {
        int status = 0;
        while (::waitpid(st.pid, &status, 0) < 0 && errno == EINTR) {
        }
        if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) st.dead = true;
      }
      if (st.dead) counters.worker_deaths.inc();
    }
  };

  // First wave: striped shards, drive i to shard i % W, so a drive's
  // member cells stay on one worker. Any partition yields identical
  // results; striping deals every spec's runs across all workers, so specs
  // of unequal length (scenario families run for different times) cannot
  // leave one worker finishing a long spec alone while the others sit
  // idle. A grid without monitor variants has one drive per cell.
  std::vector<Shard> shards(workers);
  for (std::size_t i = 0; i < drives.size(); ++i) {
    shards[i % workers].push_back(drives[i]);
  }
  run_wave(shards, /*allow_crash_hook=*/true);

  // Shard retries: everything still missing, regrouped into drives, goes
  // to one recovery worker per attempt (the crash hook never fires on
  // retries), after a capped exponential backoff — a worker killed by
  // resource pressure gets breathing room instead of an immediate re-fork
  // into the same pressure.
  for (int attempt = 0; attempt < opts_.max_retries; ++attempt) {
    std::vector<std::size_t> missing = slots.unfilled();
    if (missing.empty()) break;
    if (deadline_passed(deadline)) break;
    int backoff = opts_.retry_backoff_ms > 0
                      ? std::min(opts_.retry_backoff_ms << attempt,
                                 kRetryBackoffMaxMs)
                      : 0;
    if (deadline) backoff = std::min(backoff, ms_until(*deadline));
    if (backoff > 0) sleep_ms(backoff);
    if (deadline_passed(deadline)) break;
    counters.retry_waves.inc();
    RT_TRACE_SPAN("shard_retry_wave", "shard",
                  static_cast<std::uint64_t>(attempt) + 1, "attempt");
    run_wave({slots.drives(std::move(missing))}, /*allow_crash_hook=*/false);
  }

  // Last resort: the parent runs whatever is still missing itself, again
  // grouped into drives, fanned over one thread per worker (so total fork
  // failure degrades to threaded, not serial, execution). A drive that
  // throws or misses the deadline leaves its cells unfilled, and they
  // become typed errors in finish().
  const std::vector<std::size_t> missing = slots.unfilled();
  if (!missing.empty() && !deadline_passed(deadline)) {
    RT_TRACE_SPAN("shard_fallback", "shard",
                  static_cast<std::uint64_t>(missing.size()), "cells");
    counters.cells_recovered.inc(missing.size());
    slots.run(runner_, missing,
              std::min(workers, static_cast<unsigned>(missing.size())),
              deadline);
  }
  if (deadline_passed(deadline)) deadline_expired = true;
  if (deadline_expired) counters.deadline_expirations.inc();

  return std::move(slots).finish(deadline_expired);
}

}  // namespace rt::service
