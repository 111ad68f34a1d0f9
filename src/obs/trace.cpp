#include "obs/trace.hpp"

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

namespace rt::obs {

namespace {

constexpr char kPayloadMagic[8] = {'R', 'T', 'O', 'B', 'S', 'T', 'R', '1'};
/// A worker payload is bounded by ring capacity x thread count; anything
/// claiming more records than this is garbage, not a big trace.
constexpr std::uint32_t kMaxPayloadRecords = 1u << 22;

void put_u16(std::string& out, std::uint16_t v) {
  char b[2];
  std::memcpy(b, &v, 2);
  out.append(b, 2);
}
void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}
void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void put_str(std::string& out, const char* s) {
  const std::size_t n = s != nullptr ? std::strlen(s) : 0;
  put_u16(out, static_cast<std::uint16_t>(n < 0xffff ? n : 0xffff));
  out.append(s != nullptr ? s : "", n < 0xffff ? n : 0xffff);
}

/// Bounds-checked little-endian reader for absorb(); every get_ returns
/// false instead of reading past the payload.
struct Reader {
  const char* p;
  std::size_t left;

  bool get(void* dst, std::size_t n) {
    if (left < n) return false;
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  bool get_u16(std::uint16_t& v) { return get(&v, 2); }
  bool get_u32(std::uint32_t& v) { return get(&v, 4); }
  bool get_u64(std::uint64_t& v) { return get(&v, 8); }
  bool get_str(std::string& out) {
    std::uint16_t n = 0;
    if (!get_u16(n)) return false;
    if (left < n) return false;
    out.assign(p, n);
    p += n;
    left -= n;
    return true;
  }
};

void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  // Microseconds with nanosecond precision, the native unit of the
  // trace-event format.
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

void append_json_escaped(std::string& out, const char* s) {
  for (; s != nullptr && *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  // fork() copies the tracer's mutex in whatever state another thread
  // holds it (a thread registering its first span lane, say), and the
  // child's clear() would then block on it forever. These handlers take
  // the mutex across every fork, so both processes come out of it with
  // the mutex free.
  static const int fork_safe = ::pthread_atfork(
      [] { tracer.mutex_.lock(); }, [] { tracer.mutex_.unlock(); },
      [] { tracer.mutex_.unlock(); });
  (void)fork_safe;
  return tracer;
}

namespace {
/// Builds the tracer, and so registers its fork handlers, while the program
/// loads with a single thread, so no fork can race its first use (a child
/// forked mid-construction would inherit the static's guard held).
[[maybe_unused]] const Tracer& tracer_at_load = Tracer::global();
}  // namespace

void Tracer::arm(TraceConfig config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = config.buffer_capacity > 0 ? config.buffer_capacity : 1;
  }
  clear();
  armed_.store(true, std::memory_order_relaxed);
}

void Tracer::disarm() { armed_.store(false, std::memory_order_relaxed); }

bool Tracer::arm_from_env(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') return false;
  env_path_ = v;
  arm();
  return true;
}

Tracer::ThreadBuffer* Tracer::local_buffer() {
  struct Entry {
    const Tracer* tracer;
    std::shared_ptr<ThreadBuffer> buffer;
  };
  // On thread exit the buffer lane is released for reuse, so a pool that
  // spins up fresh threads per grid keeps a bounded buffer set (max
  // concurrent threads, not total threads ever). The shared_ptr keeps the
  // release safe even if the tracer itself died first.
  struct Slot {
    std::vector<Entry> entries;
    ~Slot() {
      for (auto& e : entries) {
        e.buffer->in_use.store(false, std::memory_order_release);
      }
    }
  };
  thread_local Slot slot;
  for (const auto& e : slot.entries) {
    if (e.tracer == this) return e.buffer.get();
  }

  std::lock_guard<std::mutex> lock(mutex_);
  std::shared_ptr<ThreadBuffer> buf;
  for (const auto& b : buffers_) {
    if (!b->in_use.load(std::memory_order_acquire)) {
      b->in_use.store(true, std::memory_order_relaxed);
      buf = b;
      break;
    }
  }
  if (buf == nullptr) {
    buf = std::make_shared<ThreadBuffer>();
    buf->tid = static_cast<std::uint32_t>(buffers_.size()) + 1;
    buffers_.push_back(buf);
  }
  if (buf->ring.size() != capacity_) {
    buf->ring.resize(capacity_);
    buf->head = 0;
    buf->total = 0;
  }
  slot.entries.push_back(Entry{this, buf});
  return buf.get();
}

void Tracer::record(const char* name, const char* category,
                    std::uint64_t start_ns, std::uint64_t dur_ns,
                    std::uint64_t arg, const char* arg_name) {
  if (!armed()) return;
  ThreadBuffer* b = local_buffer();
  b->ring[b->head] = SpanRecord{name, category, start_ns, dur_ns, arg,
                                arg_name};
  ++b->total;
  b->head = (b->head + 1) % b->ring.size();
}

std::vector<std::pair<std::uint32_t, SpanRecord>> Tracer::collect_local()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::uint32_t, SpanRecord>> out;
  for (const auto& b : buffers_) {
    const std::size_t cap = b->ring.size();
    if (cap == 0 || b->total == 0) continue;
    const std::size_t kept =
        b->total < cap ? static_cast<std::size_t>(b->total) : cap;
    // Oldest retained span first: the ring's write head is also where the
    // oldest record lives once the buffer has wrapped.
    const std::size_t begin = b->total < cap ? 0 : b->head;
    for (std::size_t i = 0; i < kept; ++i) {
      out.emplace_back(b->tid, b->ring[(begin + i) % cap]);
    }
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = remote_.size();
  for (const auto& b : buffers_) {
    const std::size_t cap = b->ring.size();
    n += b->total < cap ? static_cast<std::size_t>(b->total) : cap;
  }
  return n;
}

std::uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = remote_dropped_;
  for (const auto& b : buffers_) {
    const std::size_t cap = b->ring.size();
    if (b->total > cap) dropped += b->total - cap;
  }
  return dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    if (b->ring.size() != capacity_) b->ring.resize(capacity_);
    b->head = 0;
    b->total = 0;
  }
  remote_.clear();
  remote_dropped_ = 0;
  absorb_failures_.store(0, std::memory_order_relaxed);
}

std::string Tracer::serialize_and_clear() {
  const auto spans = collect_local();
  const std::uint64_t dropped = dropped_spans() - remote_dropped_;

  std::string out;
  out.reserve(24 + spans.size() * 64);
  out.append(kPayloadMagic, sizeof kPayloadMagic);
  put_u32(out, static_cast<std::uint32_t>(spans.size()));
  put_u64(out, dropped);
  for (const auto& [tid, s] : spans) {
    put_u32(out, tid);
    put_u64(out, s.start_ns);
    put_u64(out, s.dur_ns);
    put_u64(out, s.arg);
    put_str(out, s.name);
    put_str(out, s.category);
    put_str(out, s.arg_name);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& b : buffers_) {
    b->head = 0;
    b->total = 0;
  }
  return out;
}

bool Tracer::absorb(const std::string& payload, std::uint64_t worker) {
  const auto fail = [this] {
    absorb_failures_.fetch_add(1, std::memory_order_relaxed);
    return false;
  };
  Reader r{payload.data(), payload.size()};
  char magic[sizeof kPayloadMagic];
  if (!r.get(magic, sizeof magic) ||
      std::memcmp(magic, kPayloadMagic, sizeof magic) != 0) {
    return fail();
  }
  std::uint32_t count = 0;
  std::uint64_t dropped = 0;
  if (!r.get_u32(count) || !r.get_u64(dropped)) return fail();
  if (count > kMaxPayloadRecords) return fail();

  std::vector<RemoteSpan> spans;
  spans.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    RemoteSpan s;
    s.worker = worker;
    if (!r.get_u32(s.tid) || !r.get_u64(s.start_ns) || !r.get_u64(s.dur_ns) ||
        !r.get_u64(s.arg) || !r.get_str(s.name) || !r.get_str(s.category) ||
        !r.get_str(s.arg_name)) {
      return fail();
    }
  // A record with an empty name would export as an anonymous event —
  // treat it as corruption, nothing in the stack emits one.
    if (s.name.empty()) return fail();
    spans.push_back(std::move(s));
  }
  if (r.left != 0) return fail();  // trailing bytes: not our payload

  std::lock_guard<std::mutex> lock(mutex_);
  remote_.insert(remote_.end(), std::make_move_iterator(spans.begin()),
                 std::make_move_iterator(spans.end()));
  remote_dropped_ += dropped;
  return true;
}

std::string Tracer::render_chrome_trace() const {
  const auto local = collect_local();
  std::vector<RemoteSpan> remote;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    remote = remote_;
  }
  const std::uint64_t dropped = dropped_spans();
  const std::uint64_t failures =
      absorb_failures_.load(std::memory_order_relaxed);

  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": ";
  out += "{\"dropped_spans\": ";
  {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(dropped));
    out += buf;
    out += ", \"absorb_failures\": ";
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(failures));
    out += buf;
  }
  out += "}, \"traceEvents\": [\n";

  bool first = true;
  const auto emit_meta = [&](std::uint64_t pid, const std::string& pname) {
    if (!first) out += ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(pid));
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": ";
    out += buf;
    out += ", \"tid\": 0, \"ts\": 0, \"args\": {\"name\": \"";
    append_json_escaped(out, pname.c_str());
    out += "\"}}";
  };
  emit_meta(0, "parent");
  std::set<std::uint64_t> workers;
  for (const auto& s : remote) workers.insert(s.worker);
  for (const std::uint64_t w : workers) {
    emit_meta(w, "worker " + std::to_string(w));
  }

  const auto emit_event = [&](const char* name, const char* cat,
                              std::uint64_t pid, std::uint32_t tid,
                              std::uint64_t start_ns, std::uint64_t dur_ns,
                              std::uint64_t arg, const char* arg_name) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\": \"";
    append_json_escaped(out, name);
    out += "\", \"cat\": \"";
    append_json_escaped(out, cat != nullptr && *cat != '\0' ? cat : "rt");
    out += "\", \"ph\": \"X\", \"ts\": ";
    append_us(out, start_ns);
    out += ", \"dur\": ";
    append_us(out, dur_ns);
    char buf[64];
    std::snprintf(buf, sizeof buf, ", \"pid\": %llu, \"tid\": %u",
                  static_cast<unsigned long long>(pid), tid);
    out += buf;
    if (arg_name != nullptr && *arg_name != '\0') {
      out += ", \"args\": {\"";
      append_json_escaped(out, arg_name);
      std::snprintf(buf, sizeof buf, "\": %llu}",
                    static_cast<unsigned long long>(arg));
      out += buf;
    }
    out += "}";
  };

  for (const auto& [tid, s] : local) {
    emit_event(s.name, s.category, 0, tid, s.start_ns, s.dur_ns, s.arg,
               s.arg_name);
  }
  for (const auto& s : remote) {
    emit_event(s.name.c_str(), s.category.c_str(), s.worker, s.tid,
               s.start_ns, s.dur_ns, s.arg,
               s.arg_name.empty() ? nullptr : s.arg_name.c_str());
  }

  out += "\n]}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::string json = render_chrome_trace();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace rt::obs
