#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <tuple>

#include "common/thread_pool.h"
#include "serial/serial.h"

namespace turret::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}

namespace {

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_i64(std::string& s, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  s += buf;
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  s += buf;
}

void append_double(std::string& s, double v) {
  // %.17g round-trips doubles exactly, matching report.cpp's convention.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  s += buf;
}

void append_member_key(std::string& s, const char* key) {
  if (!s.empty()) s += ',';
  s += '"';
  s += json_escape(key);
  s += "\":";
}

// Content tuple used for virtual-mode sorting: the order of two runs' event
// lists must match whenever their event multisets match, so every field
// participates.
auto content_key(const TraceEvent& e) {
  return std::tie(e.ts_us, e.dur_us, e.phase, e.tid) /* cheap fields first */;
}

bool content_less(const TraceEvent& a, const TraceEvent& b) {
  if (content_key(a) != content_key(b)) return content_key(a) < content_key(b);
  const int cat = std::string_view(a.category).compare(b.category);
  if (cat != 0) return cat < 0;
  if (a.name != b.name) return a.name < b.name;
  return a.args < b.args;
}

bool wall_less(const TraceEvent& a, const TraceEvent& b) {
  if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
  if (a.tid != b.tid) return a.tid < b.tid;
  return content_less(a, b);
}

void append_event_json(std::string& out, const TraceEvent& e) {
  out += "{\"name\":\"";
  out += json_escape(e.name);
  out += "\",\"cat\":\"";
  out += json_escape(e.category);
  out += "\",\"ph\":\"";
  out += e.phase;
  out += "\",\"pid\":1,\"tid\":";
  append_u64(out, e.tid);
  out += ",\"ts\":";
  append_i64(out, e.ts_us);
  if (e.phase == 'X') {
    out += ",\"dur\":";
    append_i64(out, e.dur_us);
  }
  if (e.phase == 'i') out += ",\"s\":\"g\"";
  if (!e.args.empty()) {
    out += ",\"args\":{";
    out += e.args;
    out += '}';
  }
  out += '}';
}

void append_counter_json(std::string& out, const char* name,
                         std::uint64_t value) {
  out += "{\"name\":\"";
  out += name;
  out += "\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,"
         "\"args\":{\"value\":";
  append_u64(out, value);
  out += "}}";
}

}  // namespace

std::string_view clock_name(Clock c) {
  return c == Clock::kWall ? "wall" : "virtual";
}

CounterSnapshot Counters::snapshot() const {
  CounterSnapshot s;
  s.branch_attempts = branch_attempts.load(std::memory_order_relaxed);
  s.branch_retries = branch_retries.load(std::memory_order_relaxed);
  s.branch_quarantines = branch_quarantines.load(std::memory_order_relaxed);
  s.budget_aborts = budget_aborts.load(std::memory_order_relaxed);
  s.unroutable_sends = unroutable_sends.load(std::memory_order_relaxed);
  s.decode_hits = decode_hits.load(std::memory_order_relaxed);
  s.decode_misses = decode_misses.load(std::memory_order_relaxed);
  s.emu_events = emu_events.load(std::memory_order_relaxed);
  s.reassembly_evicted = reassembly_evicted.load(std::memory_order_relaxed);
  s.proxy_observed = proxy_observed.load(std::memory_order_relaxed);
  s.proxy_injected = proxy_injected.load(std::memory_order_relaxed);
  s.journal_replays = journal_replays.load(std::memory_order_relaxed);
  s.snapshot_saves = snapshot_saves.load(std::memory_order_relaxed);
  s.snapshot_loads = snapshot_loads.load(std::memory_order_relaxed);
  s.snapshot_bytes_written =
      snapshot_bytes_written.load(std::memory_order_relaxed);
  s.snapshot_bytes_deduped =
      snapshot_bytes_deduped.load(std::memory_order_relaxed);
  s.cow_page_faults = cow_page_faults.load(std::memory_order_relaxed);
  s.pagestore_pages = pagestore_pages.load(std::memory_order_relaxed);
  s.pagestore_bytes = pagestore_bytes.load(std::memory_order_relaxed);
  s.pagestore_evicted = pagestore_evicted.load(std::memory_order_relaxed);
  s.hash_collisions = hash_collisions.load(std::memory_order_relaxed);
  s.hash_chain_max = hash_chain_max.load(std::memory_order_relaxed);
  s.dist_units_sent = dist_units_sent.load(std::memory_order_relaxed);
  s.dist_units_merged = dist_units_merged.load(std::memory_order_relaxed);
  s.dist_reassignments = dist_reassignments.load(std::memory_order_relaxed);
  s.dist_worker_deaths = dist_worker_deaths.load(std::memory_order_relaxed);
  s.dist_heartbeats = dist_heartbeats.load(std::memory_order_relaxed);
  s.dist_local_fallbacks =
      dist_local_fallbacks.load(std::memory_order_relaxed);
  s.dist_bytes_sent = dist_bytes_sent.load(std::memory_order_relaxed);
  s.dist_bytes_recv = dist_bytes_recv.load(std::memory_order_relaxed);
  s.discover_ns = discover_ns.load(std::memory_order_relaxed);
  s.evaluate_ns = evaluate_ns.load(std::memory_order_relaxed);
  s.classify_ns = classify_ns.load(std::memory_order_relaxed);
  s.advance_ns = advance_ns.load(std::memory_order_relaxed);
  s.dropped_events = dropped_events.load(std::memory_order_relaxed);
  return s;
}

void Counters::reset() {
  branch_attempts.store(0, std::memory_order_relaxed);
  branch_retries.store(0, std::memory_order_relaxed);
  branch_quarantines.store(0, std::memory_order_relaxed);
  budget_aborts.store(0, std::memory_order_relaxed);
  unroutable_sends.store(0, std::memory_order_relaxed);
  decode_hits.store(0, std::memory_order_relaxed);
  decode_misses.store(0, std::memory_order_relaxed);
  emu_events.store(0, std::memory_order_relaxed);
  reassembly_evicted.store(0, std::memory_order_relaxed);
  proxy_observed.store(0, std::memory_order_relaxed);
  proxy_injected.store(0, std::memory_order_relaxed);
  journal_replays.store(0, std::memory_order_relaxed);
  snapshot_saves.store(0, std::memory_order_relaxed);
  snapshot_loads.store(0, std::memory_order_relaxed);
  snapshot_bytes_written.store(0, std::memory_order_relaxed);
  snapshot_bytes_deduped.store(0, std::memory_order_relaxed);
  cow_page_faults.store(0, std::memory_order_relaxed);
  pagestore_pages.store(0, std::memory_order_relaxed);
  pagestore_bytes.store(0, std::memory_order_relaxed);
  pagestore_evicted.store(0, std::memory_order_relaxed);
  hash_collisions.store(0, std::memory_order_relaxed);
  hash_chain_max.store(0, std::memory_order_relaxed);
  dist_units_sent.store(0, std::memory_order_relaxed);
  dist_units_merged.store(0, std::memory_order_relaxed);
  dist_reassignments.store(0, std::memory_order_relaxed);
  dist_worker_deaths.store(0, std::memory_order_relaxed);
  dist_heartbeats.store(0, std::memory_order_relaxed);
  dist_local_fallbacks.store(0, std::memory_order_relaxed);
  dist_bytes_sent.store(0, std::memory_order_relaxed);
  dist_bytes_recv.store(0, std::memory_order_relaxed);
  discover_ns.store(0, std::memory_order_relaxed);
  evaluate_ns.store(0, std::memory_order_relaxed);
  classify_ns.store(0, std::memory_order_relaxed);
  advance_ns.store(0, std::memory_order_relaxed);
  dropped_events.store(0, std::memory_order_relaxed);
}

namespace {
constexpr std::size_t count_counter_fields() {
  std::size_t n = 0;
#define TURRET_COUNT_FIELD(name) ++n;
  TURRET_COUNTER_FIELDS(TURRET_COUNT_FIELD)
#undef TURRET_COUNT_FIELD
  return n;
}
static_assert(count_counter_fields() == kCounterFieldCount,
              "TURRET_COUNTER_FIELDS and kCounterFieldCount disagree — a "
              "counter was added to one but not the other");
static_assert(sizeof(CounterSnapshot) ==
                  kCounterFieldCount * sizeof(std::uint64_t),
              "CounterSnapshot has a field missing from "
              "TURRET_COUNTER_FIELDS");
}  // namespace

void save_counters(const CounterSnapshot& s, serial::Writer& w) {
  w.u32(static_cast<std::uint32_t>(kCounterFieldCount));
#define TURRET_SAVE_FIELD(name) w.u64(s.name);
  TURRET_COUNTER_FIELDS(TURRET_SAVE_FIELD)
#undef TURRET_SAVE_FIELD
}

CounterSnapshot load_counters(serial::Reader& r) {
  const std::uint32_t n = r.u32();
  if (n != kCounterFieldCount) {
    throw serial::SerialError("counter snapshot field-count mismatch: got " +
                              std::to_string(n));
  }
  CounterSnapshot s;
#define TURRET_LOAD_FIELD(name) s.name = r.u64();
  TURRET_COUNTER_FIELDS(TURRET_LOAD_FIELD)
#undef TURRET_LOAD_FIELD
  return s;
}

CounterSnapshot counter_delta(const CounterSnapshot& now,
                              const CounterSnapshot& prev) {
  CounterSnapshot d;
#define TURRET_DELTA_FIELD(name) \
  d.name = now.name >= prev.name ? now.name - prev.name : 0;
  TURRET_COUNTER_FIELDS(TURRET_DELTA_FIELD)
#undef TURRET_DELTA_FIELD
  return d;
}

void counter_accumulate(CounterSnapshot& into, const CounterSnapshot& d) {
#define TURRET_ACC_FIELD(name) into.name += d.name;
  TURRET_COUNTER_FIELDS(TURRET_ACC_FIELD)
#undef TURRET_ACC_FIELD
}

Tracer& Tracer::instance() {
  static Tracer* tracer = new Tracer();  // leaked: see FaultInjector
  return *tracer;
}

void Tracer::enable(Clock clock, std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  capacity_ = capacity > 0 ? capacity : kDefaultCapacity;
  buffer_.reserve(std::min<std::size_t>(capacity_, 4096));
  clock_.store(clock, std::memory_order_relaxed);
  enable_anchor_ns_ = steady_now_ns();
  counters_.reset();
  pool_busy_ns_.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

Clock Tracer::clock() const { return clock_.load(std::memory_order_relaxed); }

void Tracer::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (buffer_.size() >= capacity_) {
    // Drop-newest: under overflow which events survive depends on arrival
    // order, so a nonzero dropped_events voids the determinism guarantee;
    // telemetry surfaces it and tests size their buffers to never drop.
    counters_.dropped_events.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer_.push_back(std::move(ev));
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  Clock c;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = buffer_;
    c = clock_.load(std::memory_order_relaxed);
  }
  std::stable_sort(out.begin(), out.end(),
                   c == Clock::kVirtual ? content_less : wall_less);
  return out;
}

std::string Tracer::chrome_json() const {
  const std::vector<TraceEvent> evs = events();
  const CounterSnapshot c = counters_.snapshot();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : evs) {
    if (!first) out += ",\n";
    first = false;
    append_event_json(out, e);
  }
  // Final counter values as 'C' samples, in a fixed order so the tail of the
  // file is as deterministic as the span list above it. The distributed
  // transport's counters (heartbeats, frame bytes, unit flow) depend on
  // timing and fleet shape, so a virtual-clock trace leaves them out — the
  // same split that keeps them in the `fleet` block, out of `stats`.
  const bool virtual_clock = clock() == Clock::kVirtual;
  const struct {
    const char* name;
    std::uint64_t value;
    bool transport = false;
  } counters[] = {
      {"branch_attempts", c.branch_attempts},
      {"branch_retries", c.branch_retries},
      {"branch_quarantines", c.branch_quarantines},
      {"budget_aborts", c.budget_aborts},
      {"unroutable_sends", c.unroutable_sends},
      {"decode_hits", c.decode_hits},
      {"decode_misses", c.decode_misses},
      {"emu_events", c.emu_events},
      {"reassembly_evicted", c.reassembly_evicted},
      {"proxy_observed", c.proxy_observed},
      {"proxy_injected", c.proxy_injected},
      {"journal_replays", c.journal_replays},
      {"snapshot_saves", c.snapshot_saves},
      {"snapshot_loads", c.snapshot_loads},
      {"snapshot_bytes_written", c.snapshot_bytes_written},
      {"snapshot_bytes_deduped", c.snapshot_bytes_deduped},
      {"cow_page_faults", c.cow_page_faults},
      {"pagestore_pages", c.pagestore_pages},
      {"pagestore_bytes", c.pagestore_bytes},
      {"pagestore_evicted", c.pagestore_evicted},
      {"hash_collisions", c.hash_collisions},
      {"hash_chain_max", c.hash_chain_max},
      {"dist_units_sent", c.dist_units_sent, true},
      {"dist_units_merged", c.dist_units_merged, true},
      {"dist_reassignments", c.dist_reassignments, true},
      {"dist_worker_deaths", c.dist_worker_deaths, true},
      {"dist_heartbeats", c.dist_heartbeats, true},
      {"dist_local_fallbacks", c.dist_local_fallbacks, true},
      {"dist_bytes_sent", c.dist_bytes_sent, true},
      {"dist_bytes_recv", c.dist_bytes_recv, true},
      {"discover_ns", c.discover_ns},
      {"evaluate_ns", c.evaluate_ns},
      {"classify_ns", c.classify_ns},
      {"advance_ns", c.advance_ns},
      {"dropped_events", c.dropped_events},
  };
  for (const auto& entry : counters) {
    if (virtual_clock && entry.transport) continue;
    if (!first) out += ",\n";
    first = false;
    append_counter_json(out, entry.name, entry.value);
  }
  out += "\n],\"otherData\":{\"clock\":\"";
  out += clock_name(clock());
  out += "\"}}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("trace: cannot open " + path);
  const std::string json = chrome_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out) throw std::runtime_error("trace: short write to " + path);
}

std::int64_t Tracer::wall_now_us() const {
  return (steady_now_ns() - enable_anchor_ns_) / 1000;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

Span::Span(const char* category, const char* name)
    : active_(active()), category_(category), name_(name) {
  if (!active_) return;
  clock_ = Tracer::instance().clock();
  if (clock_ == Clock::kWall) wall_start_us_ = Tracer::instance().wall_now_us();
}

Span::~Span() {
  if (!active_) return;
  TraceEvent ev;
  ev.name = name_;
  ev.category = category_;
  ev.phase = 'X';
  ev.args = std::move(args_);
  if (clock_ == Clock::kVirtual) {
    ev.tid = 0;  // normalized: virtual traces are worker-placement-free
    ev.ts_us = vts_ / kMicrosecond;
    ev.dur_us = vdur_ / kMicrosecond;
  } else {
    ev.tid = current_worker_id();
    ev.ts_us = wall_start_us_;
    ev.dur_us = Tracer::instance().wall_now_us() - wall_start_us_;
  }
  Tracer::instance().record(std::move(ev));
}

BusyScope::BusyScope() {
  if (active()) start_ns_ = steady_now_ns();
}

BusyScope::~BusyScope() {
  if (start_ns_ >= 0)
    Tracer::instance().add_pool_busy_ns(steady_now_ns() - start_ns_);
}

Span& Span::at(Time virtual_ts) {
  vts_ = virtual_ts;
  return *this;
}

Span& Span::lasted(Duration virtual_dur) {
  vdur_ = virtual_dur;
  return *this;
}

Span& Span::arg(const char* key, std::string_view value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  args_ += '"';
  args_ += json_escape(value);
  args_ += '"';
  return *this;
}

Span& Span::arg(const char* key, std::int64_t value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_i64(args_, value);
  return *this;
}

Span& Span::arg(const char* key, std::uint64_t value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_u64(args_, value);
  return *this;
}

Span& Span::arg(const char* key, double value) {
  if (!active_) return *this;
  append_member_key(args_, key);
  append_double(args_, value);
  return *this;
}

void instant(const char* category, const char* name, Time virtual_ts,
             std::string args) {
  if (!active()) return;
  Tracer& tracer = Tracer::instance();
  TraceEvent ev;
  ev.name = name;
  ev.category = category;
  ev.phase = 'i';
  ev.args = std::move(args);
  if (tracer.clock() == Clock::kVirtual) {
    ev.tid = 0;
    ev.ts_us = virtual_ts / kMicrosecond;
  } else {
    ev.tid = current_worker_id();
    ev.ts_us = tracer.wall_now_us();
  }
  tracer.record(std::move(ev));
}

Args& Args::add(const char* key, std::string_view value) {
  append_member_key(s_, key);
  s_ += '"';
  s_ += json_escape(value);
  s_ += '"';
  return *this;
}

Args& Args::add(const char* key, std::int64_t value) {
  append_member_key(s_, key);
  append_i64(s_, value);
  return *this;
}

Args& Args::add(const char* key, std::uint64_t value) {
  append_member_key(s_, key);
  append_u64(s_, value);
  return *this;
}

Args& Args::add(const char* key, double value) {
  append_member_key(s_, key);
  append_double(s_, value);
  return *this;
}

}  // namespace turret::trace
