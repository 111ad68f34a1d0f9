#include "experiments/campaign_serde.hpp"

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <vector>

#include "sim/scenario_registry.hpp"

namespace rt::experiments {

namespace {

// One field list per record: each `fields(io, record)` below names a
// record's fields once, in wire order, and the Writer (emit) and the
// Reader (parse and check) each implement the same small vocabulary of
// field operations over it. Both are plain classes driven through a
// template, so a decode costs no indirect call per field.

// ----------------------------------------------------------------- Writer

class Writer {
 public:
  void tag(std::string_view t) {
    out_.append(t);
    out_ += '\n';
  }
  void u64(std::uint64_t v) { integer(v); }
  void i32(int v) { integer(v); }
  void b(bool v) { out_ += v ? "1\n" : "0\n"; }
  /// `d` and the raw IEEE-754 bits as 16 lower-case hex digits.
  void d(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    char buf[18];
    buf[0] = 'd';
    for (int i = 0; i < 16; ++i) {
      buf[16 - i] = "0123456789abcdef"[(bits >> (4 * i)) & 0xf];
    }
    buf[17] = '\n';
    out_.append(buf, sizeof buf);
  }
  void str(std::string_view s) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, s.size()).ptr);
    out_ += ':';
    out_.append(s);
    out_ += '\n';
  }
  template <class E>
  void enumeration(E v, std::uint64_t /*max*/, const char* /*what*/) {
    u64(static_cast<std::uint64_t>(v));
  }
  /// Count, then each element through `each`.
  template <class T, class Each>
  void seq(const std::vector<T>& v, std::uint64_t /*cap*/,
           const char* /*what*/, Each each) {
    u64(v.size());
    for (const T& x : v) each(x);
  }
  /// Presence flag, then (when present) the count and every name/value
  /// pair of the registry's named-parameter table, in table order.
  void params(const std::optional<sim::ScenarioParams>& p) {
    b(p.has_value());
    if (!p) return;
    const auto names = sim::scenario_param_names();
    u64(names.size());
    for (const auto& name : names) {
      str(name);
      d(sim::get_scenario_param(*p, name));
    }
  }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  template <class T>
  void integer(T v) {
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    out_ += '\n';
  }

  std::string out_;
};

// ----------------------------------------------------------------- Reader

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  void tag(std::string_view tag) {
    const std::string_view got = token();
    if (got != tag) {
      fail("expected '" + std::string(tag) + "', got '" + std::string(got) +
           "'");
    }
  }

  void u64(std::uint64_t& out) {
    out = integer<std::uint64_t>("unsigned integer");
  }

  void i32(int& out) {
    const auto v = integer<std::int64_t>("integer");
    if (v < INT32_MIN || v > INT32_MAX) fail("integer out of 32-bit range");
    out = static_cast<int>(v);
  }

  void b(bool& out) {
    const std::string_view t = token();
    if (t == "1") {
      out = true;
    } else if (t == "0") {
      out = false;
    } else {
      fail("expected bool 0/1, got '" + std::string(t) + "'");
    }
  }

  void d(double& out) {
    const std::string_view t = token();
    if (t.size() != 17 || t.front() != 'd') {
      fail("expected double d<16 hex>, got '" + std::string(t) + "'");
    }
    std::uint64_t bits = 0;
    for (std::size_t i = 1; i < t.size(); ++i) {
      const char c = t[i];
      int nibble = 0;
      if (c >= '0' && c <= '9') {
        nibble = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        nibble = c - 'a' + 10;
      } else {
        fail("bad hex digit in double token '" + std::string(t) + "'");
      }
      bits = (bits << 4) | static_cast<std::uint64_t>(nibble);
    }
    out = std::bit_cast<double>(bits);
  }

  /// `<len>:<bytes>\n`, the length in canonical decimal (no leading zero
  /// but in `0` itself).
  void str(std::string& out) {
    const std::size_t start = pos_;
    std::size_t len = 0;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      len = len * 10 + static_cast<std::size_t>(text_[pos_] - '0');
      if (len > text_.size()) fail("netstring length overflows input");
      ++pos_;
    }
    if (pos_ == start) fail("expected netstring <len>:<bytes>");
    if (text_[start] == '0' && pos_ - start > 1) {
      fail("netstring length has a leading zero");
    }
    if (pos_ >= text_.size() || text_[pos_] != ':') {
      fail("netstring missing ':' after length");
    }
    ++pos_;
    if (text_.size() - pos_ < len) fail("truncated netstring payload");
    out.assign(text_.substr(pos_, len));
    pos_ += len;
    end_of_value();
  }

  /// An enum stored as its numeric value; anything above `max` (e.g. from
  /// a future schema) throws instead of casting blindly.
  template <class E>
  void enumeration(E& out, std::uint64_t max, const char* what) {
    std::uint64_t v = 0;
    u64(v);
    if (v > max) fail(std::string(what) + " out of range");
    out = static_cast<E>(v);
  }

  /// Count (at most `cap`), then each element through `each`. Every
  /// element takes at least two bytes (a token and its separator), so a
  /// count the remaining input cannot hold fails before the reserve: a
  /// corrupt count never allocates more than the input could describe.
  template <class T, class Each>
  void seq(std::vector<T>& v, std::uint64_t cap, const char* what,
           Each each) {
    std::uint64_t n = 0;
    u64(n);
    if (n > cap || n > (text_.size() - pos_) / 2) {
      fail(std::string("implausible ") + what);
    }
    v.clear();
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) each(v.emplace_back());
  }

  /// Every name/value pair of the named-parameter table, in table order,
  /// as the Writer emits them: a missing, extra or reordered name (e.g. a
  /// ScenarioParams field this build lacks) fails instead of shifting later
  /// fields.
  void params(std::optional<sim::ScenarioParams>& out) {
    bool present = false;
    b(present);
    out.reset();
    if (!present) return;
    const auto names = sim::scenario_param_names();
    std::uint64_t n = 0;
    u64(n);
    if (n != names.size()) fail("scenario param count mismatch");
    sim::ScenarioParams p;
    std::string name;
    double value = 0.0;
    for (const auto& expected : names) {
      str(name);
      if (name != expected) {
        fail("expected scenario param '" + expected + "', got '" + name +
             "'");
      }
      d(value);
      sim::set_scenario_param(p, name, value);
      // An integer field keeps only the rounded value.
      if (std::bit_cast<std::uint64_t>(sim::get_scenario_param(p, name)) !=
          std::bit_cast<std::uint64_t>(value)) {
        fail("scenario param '" + name + "' does not hold its value");
      }
    }
    out = p;
  }

  /// Succeeds only when nothing follows the 'end' sentinel. Every value
  /// ends in exactly one newline, so EVERY strict prefix of a
  /// serialization is invalid, including the one that only drops the
  /// terminator, and so is any padded copy: payloads are canonical bytes.
  void done() {
    if (pos_ != text_.size()) {
      fail("trailing garbage after 'end'");
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw SerdeError("campaign serde: " + what + " (at byte " +
                     std::to_string(pos_) + " of " +
                     std::to_string(text_.size()) + ")");
  }

 private:
  /// A whole token that fits in T and is the Writer's decimal for it:
  /// digits with a '-' only for signed T, no leading zero, no '+', no
  /// "-0".
  template <class T>
  T integer(const char* what) {
    const std::string_view t = token();
    T v{};
    const auto [end, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
    char canonical[24];
    const auto [cend, cec] =
        std::to_chars(canonical, canonical + sizeof canonical, v);
    if (ec != std::errc{} || end != t.data() + t.size() ||
        cec != std::errc{} ||
        t != std::string_view(canonical,
                               static_cast<std::size_t>(cend - canonical))) {
      fail(std::string("expected ") + what + ", got '" + std::string(t) +
           "'");
    }
    return v;
  }

  /// Consumes the one '\n' that ends every value.
  void end_of_value() {
    if (pos_ >= text_.size()) fail("truncated input");
    if (text_[pos_] != '\n') fail("expected a newline after the value");
    ++pos_;
  }

  /// The bytes up to the next newline, which is consumed. The field
  /// parsers reject a token holding any other byte the Writer would not
  /// have put there, whitespace included.
  std::string_view token() {
    const std::size_t nl = text_.find('\n', pos_);
    if (nl == std::string_view::npos) fail("truncated input");
    const std::string_view t = text_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return t;
  }

  std::string_view text_;
  std::size_t pos_{0};
};

// ------------------------------------------------------------ field lists

/// `R` is `T` for the Reader and `const T` for the Writer.
template <class R, class T>
concept Record = std::same_as<std::remove_const_t<R>, T>;

constexpr std::uint64_t kMaxMonitors = 1024;
constexpr std::uint64_t kMaxSeq = 1ull << 24;  ///< timeline samples, runs

template <class Io, Record<CampaignSpec> S>
void fields(Io& io, S& s) {
  io.tag("spec");
  io.str(s.name);
  io.str(s.scenario);
  io.enumeration(s.vector, 2, "attack vector");
  io.enumeration(s.mode, 3, "attack mode");
  io.i32(s.runs);
  io.u64(s.seed);
  io.params(s.params);
  io.seq(s.monitors, kMaxMonitors, "monitor count",
         [&](auto& m) { io.str(m); });
}

template <class Io, Record<core::AttackLog> A>
void fields(Io& io, A& a) {
  io.tag("attack");
  io.b(a.triggered);
  io.i32(a.triggers);
  io.enumeration(a.vector, 2, "attack vector");
  io.d(a.start_time);
  io.d(a.delta_at_launch);
  io.d(a.v_rel_at_launch.x);
  io.d(a.v_rel_at_launch.y);
  io.d(a.a_rel_at_launch.x);
  io.d(a.a_rel_at_launch.y);
  io.d(a.predicted_delta);
  io.i32(a.planned_k);
  io.i32(a.frames_perturbed);
  io.i32(a.k_prime);
  io.d(a.omega_target);
  io.enumeration(a.victim_cls, 1, "victim class");
  io.i32(a.victim_truth_id);
}

template <class Io, Record<defense::DefenseReport> D>
void fields(Io& io, D& def) {
  io.tag("defense");
  io.b(def.flagged);
  io.d(def.first_alert_time);
  io.str(def.first_monitor);
  io.seq(def.monitors, kMaxMonitors, "monitor count", [&](auto& m) {
    io.str(m.monitor);
    io.b(m.fired);
    io.d(m.first_alert_time);
    io.i32(m.alarms);
    io.str(m.reason);
  });
  io.b(def.detected);
  io.i32(def.frames_to_detection);
  io.str(def.detected_by);
}

template <class Io, Record<RunResult> R>
void fields(Io& io, R& run) {
  io.tag("run");
  io.b(run.eb);
  io.i32(run.eb_episodes);
  io.b(run.crash);
  io.b(run.collision);
  io.d(run.min_delta);
  io.d(run.min_delta_since_attack);
  io.d(run.end_time);
  io.b(run.halted_early);
  fields(io, run.attack);
  io.tag("ids");
  io.b(run.ids_flagged);
  io.str(run.ids_reason);
  fields(io, run.defense);
  io.tag("timeline");
  io.seq(run.timeline, kMaxSeq, "timeline length", [&](auto& t) {
    io.d(t.time);
    io.d(t.delta);
    io.d(t.d_safe);
    io.d(t.target_delta);
    io.d(t.ego_speed);
    io.b(t.eb_active);
    io.b(t.attack_active);
  });
}

template <class Io, Record<CampaignResult> C>
void fields(Io& io, C& result) {
  fields(io, result.spec);
  io.tag("nruns");
  io.seq(result.runs, kMaxSeq, "run count",
         [&](auto& run) { fields(io, run); });
}

/// `<magic>\n<version>\n`, the record's fields, then the `end` sentinel.
template <class T>
std::string serialize(std::string_view magic, const T& record) {
  Writer w;
  w.tag(magic);
  w.u64(kCampaignSerdeVersion);
  fields(w, record);
  w.tag("end");
  return w.take();
}

template <class T>
T deserialize(std::string_view magic, std::string_view text) {
  Reader r(text);
  r.tag(magic);
  std::uint64_t version = 0;
  r.u64(version);
  if (version != kCampaignSerdeVersion) {
    r.fail("unsupported " + std::string(magic) + " version " +
           std::to_string(version) + " (this build reads " +
           std::to_string(kCampaignSerdeVersion) + ")");
  }
  T record;
  fields(r, record);
  r.tag("end");
  r.done();
  return record;
}

}  // namespace

std::string serialize_spec(const CampaignSpec& spec) {
  return serialize("RTSPEC", spec);
}

CampaignSpec deserialize_spec(std::string_view text) {
  return deserialize<CampaignSpec>("RTSPEC", text);
}

std::string serialize_run_result(const RunResult& run) {
  return serialize("RTRUN", run);
}

RunResult deserialize_run_result(std::string_view text) {
  return deserialize<RunResult>("RTRUN", text);
}

std::string serialize_campaign_result(const CampaignResult& result) {
  return serialize("RTCAMPAIGN", result);
}

CampaignResult deserialize_campaign_result(std::string_view text) {
  return deserialize<CampaignResult>("RTCAMPAIGN", text);
}

}  // namespace rt::experiments
