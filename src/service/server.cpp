#include "service/server.hpp"

#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "experiments/campaign_grid.hpp"
#include "experiments/reporting.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"

namespace rt::service {
namespace {

using experiments::parse_uint;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) out.push_back(item);
  return out;
}

core::AttackVector parse_vector(const std::string& name) {
  if (name == "Disappear") return core::AttackVector::kDisappear;
  if (name == "Move_Out") return core::AttackVector::kMoveOut;
  if (name == "Move_In") return core::AttackVector::kMoveIn;
  throw std::invalid_argument("unknown vector '" + name + "'");
}

experiments::AttackMode parse_mode(const std::string& name) {
  if (name == "R") return experiments::AttackMode::kRobotack;
  if (name == "RwoSH") return experiments::AttackMode::kNoSh;
  if (name == "Golden") return experiments::AttackMode::kGolden;
  if (name == "Random") return experiments::AttackMode::kRandomBaseline;
  throw std::invalid_argument("unknown mode '" + name + "'");
}

/// Parses the key=value words after the `run` verb and expands them
/// through the shared grid builder (a `param` pin is a one-value sweep, so
/// per-family defaults survive for everything unpinned). Throws
/// std::invalid_argument on any unknown key or name (the builder checks
/// scenario, monitor and parameter names) and any malformed number.
GridRequest parse_run(const std::vector<std::string>& words) {
  experiments::CampaignGridBuilder builder;
  builder.vectors({core::AttackVector::kDisappear})
      .modes({experiments::AttackMode::kRobotack})
      .runs(8)
      .seed(20200613);
  bool has_scenarios = false;
  double deadline_ms = 0.0;  // 0 = unbounded
  for (std::size_t w = 1; w < words.size(); ++w) {
    const std::string& word = words[w];
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected key=value, got '" + word + "'");
    }
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    if (key == "scenarios") {
      std::vector<std::string> keys = split(value, ',');
      has_scenarios = !keys.empty();
      builder.scenarios(std::move(keys));
    } else if (key == "vectors") {
      std::vector<core::AttackVector> vectors;
      for (const auto& name : split(value, ',')) {
        vectors.push_back(parse_vector(name));
      }
      builder.vectors(std::move(vectors));
    } else if (key == "modes") {
      std::vector<experiments::AttackMode> modes;
      for (const auto& name : split(value, ',')) {
        modes.push_back(parse_mode(name));
      }
      builder.modes(std::move(modes));
    } else if (key == "monitors") {
      // An empty list is the undefended cell, the builder's "" key.
      std::vector<std::string> keys = split(value, ',');
      if (keys.empty()) keys.emplace_back();
      builder.monitors(std::move(keys));
    } else if (key == "runs") {
      const auto runs =
          parse_uint(value, 1, std::numeric_limits<int>::max());
      if (!runs) {
        throw std::invalid_argument("bad runs '" + value +
                                    "' (want a positive integer)");
      }
      builder.runs(static_cast<int>(*runs));
    } else if (key == "seed") {
      const auto seed =
          parse_uint(value, 0, std::numeric_limits<std::uint64_t>::max());
      if (!seed) throw std::invalid_argument("bad seed '" + value + "'");
      builder.seed(*seed);
    } else if (key == "deadline_ms") {
      const auto ms = parse_uint(value, 1, 1ull << 40);
      if (!ms) throw std::invalid_argument("bad deadline_ms '" + value + "'");
      deadline_ms = static_cast<double>(*ms);
    } else if (key == "param" || key == "sweep") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument(key + " expects name:value[,value...]");
      }
      std::vector<double> values;
      for (const auto& tok : split(value.substr(colon + 1), ',')) {
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0' || !std::isfinite(d)) {
          // Unconsumed trailing characters and nan/inf tokens are both
          // rejected — a non-finite scenario parameter is never meaningful.
          throw std::invalid_argument("bad " + key + " value '" + tok + "'");
        }
        values.push_back(d);
      }
      if (values.empty() || (key == "param" && values.size() != 1)) {
        throw std::invalid_argument("bad " + key + " '" + value + "'");
      }
      builder.sweep(value.substr(0, colon), std::move(values));
    } else {
      throw std::invalid_argument("unknown key '" + key + "'");
    }
  }
  if (!has_scenarios) {
    throw std::invalid_argument("request needs scenarios=...");
  }
  return {builder.build(), deadline_ms};
}

/// printf-style append with no length cap: the text is measured first, so
/// a long campaign name can never cut a row, or its newline, short.
[[gnu::format(printf, 2, 3)]] void append_format(std::string& out,
                                                 const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (n > 0) {
    const std::size_t at = out.size();
    const auto len = static_cast<std::size_t>(n);
    out.resize(at + len + 1);
    std::vsnprintf(&out[at], len + 1, format, args);
    out.resize(at + len);
  }
  va_end(args);
}

const char* const kCsvHeader =
    "name,scenario,vector,mode,runs,seed,n,triggered,eb,crash,detected,"
    "false_alarms,eb_rate,crash_rate,detection_rate,median_k\n";

std::atomic<std::uint64_t> g_request_id{0};

const obs::Histogram& request_latency_histogram() {
  static const obs::Histogram h = obs::MetricsRegistry::global().histogram(
      "rt_server_request_latency_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000},
      "End-to-end grid request wall time in milliseconds");
  return h;
}

/// The service's cache-hit counter.
const obs::Counter& spec_cache_hits_counter() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter(
      "rt_service_spec_cache_hits_total");
  return c;
}

}  // namespace

ParsedLine parse_line(const std::string& line) {
  ParsedLine out;
  std::istringstream in(line.substr(0, line.find('#')));
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  if (words.empty()) return out;
  if (words[0] == "quit") {
    out.verb = Verb::kQuit;
  } else if (words[0] == "shutdown") {
    out.verb = Verb::kShutdown;
  } else if (words[0] == "stats") {
    out.verb = Verb::kStats;
  } else if (words[0] != "run") {
    out.error = "unknown verb '" + words[0] + "'";
  } else {
    try {
      out.request = parse_run(words);
      out.verb = Verb::kRun;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  }
  return out;
}

std::string render_response(const experiments::GridOutcome& outcome) {
  std::string out;
  if (!outcome.results.empty()) out += kCsvHeader;
  std::vector<char> errored(outcome.results.size(), 0);
  for (const auto& err : outcome.errors) {
    if (err.spec_index < errored.size()) errored[err.spec_index] = 1;
  }
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (errored[i]) continue;
    const experiments::CampaignResult& r = outcome.results[i];
    const experiments::CampaignSpec& s = r.spec;
    append_format(out,
                  "%s,%s,%s,%s,%d,%" PRIu64 ",%d,%d,%d,%d,%d,%d,%.6f,%.6f,"
                  "%.6f,%.6f\n",
                  s.name.c_str(), s.scenario.c_str(),
                  core::to_string(s.vector), to_string(s.mode), s.runs,
                  s.seed, r.n(), r.triggered_count(), r.eb_count(),
                  r.crash_count(), r.detected_count(), r.false_alarm_count(),
                  r.eb_rate(), r.crash_rate(), r.detection_rate(),
                  r.median_k());
  }
  for (const auto& err : outcome.errors) {
    const char* name = err.spec_index < outcome.results.size()
                           ? outcome.results[err.spec_index].spec.name.c_str()
                           : "?";
    append_format(out, "error %s %s %s\n", experiments::to_string(err.code),
                  name, err.message.c_str());
  }
  return out;
}

std::string render_stats() {
  return obs::render_json(obs::MetricsRegistry::global().snapshot()) + "\n";
}

void log_json(const std::string& fields) {
  char ts[32];
  const std::time_t now = std::time(nullptr);
  struct tm tm_utc {};
  ::gmtime_r(&now, &tm_utc);
  std::strftime(ts, sizeof ts, "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  std::fprintf(stderr, "{\"ts\":\"%s\",%s}\n", ts, fields.c_str());
}

void execute_request(CampaignService& svc, const GridRequest& request,
                     std::optional<std::uint64_t> enqueue_ns,
                     const std::function<void(const std::string&)>& reply) {
  const std::uint64_t id =
      g_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
  if (enqueue_ns) {
    obs::record_span("request_queue_wait", "server", *enqueue_ns,
                     obs::Tracer::now_ns(), id, "request");
  }
  experiments::GridOutcome outcome;
  const std::uint64_t hits_before = spec_cache_hits_counter().value();
  const obs::Stopwatch watch;
  {
    RT_TRACE_SPAN("request_execute", "server", id, "request");
    outcome = svc.run_grid_checked(request);
  }
  const double wall_ms = watch.elapsed_ms();
  const std::size_t hits = spec_cache_hits_counter().value() - hits_before;
  std::string body;
  {
    RT_TRACE_SPAN("request_serialize", "server", id, "request");
    body = render_response(outcome);
  }
  reply(body);

  request_latency_histogram().observe(wall_ms);
  const std::size_t specs = request.specs.size();
  std::string record;
  append_format(record,
                "\"event\":\"request\",\"id\":%" PRIu64
                ",\"specs\":%zu,\"hits\":%zu,\"misses\":%zu,\"errors\":%zu,"
                "\"wall_ms\":%.1f,\"outcome\":\"%s\"",
                id, specs, hits, specs - hits, outcome.errors.size(), wall_ms,
                outcome.errors.empty()
                    ? "ok"
                    : experiments::to_string(outcome.errors.front().code));
  log_json(record);
}

void log_cache_summary(CampaignService& svc) {
  svc.flush();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto count = [&](const char* what) {
    return snap.counter(std::string("rt_campaign_cache_") + what + "_total");
  };
  std::string record;
  append_format(record,
                "\"event\":\"cache_summary\",\"hits\":%" PRIu64
                ",\"misses\":%" PRIu64 ",\"stale\":%" PRIu64
                ",\"corrupt\":%" PRIu64 ",\"stores\":%" PRIu64
                ",\"evictions\":%" PRIu64 ",\"io_errors\":%" PRIu64
                ",\"degraded\":%s",
                count("hits"), count("misses"), count("stale"),
                count("corrupt"), count("stores"), count("evictions"),
                count("io_errors"), svc.cache_degraded() ? "true" : "false");
  log_json(record);
}

}  // namespace rt::service
