// Deterministic tracing + counters for the platform's own runtime.
//
// A search run is thousands of branch executions fanned across workers; when
// weighted greedy stops early or a branch is quarantined, the question is
// always "which snapshot loads, proxy actions and emulator events led here?".
// This layer answers it without giving up the platform's determinism:
//
//   * Span / instant(): Chrome trace_event records (one 'X' span per branch,
//     per algorithm scan, per snapshot decode; instants for weight bumps and
//     journal replays), collected in a thread-safe bounded buffer and emitted
//     as chrome://tracing JSON.
//   * Counters: a fixed set of relaxed atomics bumped at the same program
//     points that charge SearchCost, so telemetry totals provably agree with
//     the result they describe (tests assert equality under injected faults).
//
// Two clocks:
//   * kVirtual (deterministic, the default under tests): events are stamped
//     with emulator virtual Time supplied by the instrumentation site, the
//     worker id is normalized to 0, and the serializer sorts events by
//     content — so two runs with the same seed produce byte-identical traces
//     regardless of --jobs, making traces themselves assertable artifacts.
//   * kWall: events are stamped with wall-clock microseconds since enable()
//     and carry real thread_pool worker ids, for human profiling.
//
// Disarmed cost is one relaxed atomic load per site pass (the same discipline
// as common/fault); nothing else in the platform changes while tracing is
// off.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace turret::serial {
class Writer;
class Reader;
}  // namespace turret::serial

namespace turret::trace {

enum class Clock : std::uint8_t {
  kWall,     ///< wall-clock timeline, real worker ids (profiling)
  kVirtual,  ///< emulator virtual timeline, byte-identical across runs/jobs
};

std::string_view clock_name(Clock c);

/// Every counter field in declaration order — the single source of truth for
/// CounterSnapshot serialization (dist telemetry frames), field-wise
/// arithmetic, and the per-worker stats breakdown. A new counter must be
/// added to the struct, the atomic set, AND this list (the static_assert in
/// trace.cpp trips otherwise).
#define TURRET_COUNTER_FIELDS(X) \
  X(branch_attempts)             \
  X(branch_retries)              \
  X(branch_quarantines)          \
  X(budget_aborts)               \
  X(decode_hits)                 \
  X(decode_misses)               \
  X(emu_events)                  \
  X(reassembly_evicted)          \
  X(proxy_observed)              \
  X(proxy_injected)              \
  X(journal_replays)             \
  X(snapshot_saves)              \
  X(snapshot_loads)              \
  X(snapshot_bytes_written)      \
  X(snapshot_bytes_deduped)      \
  X(cow_page_faults)             \
  X(pagestore_pages)             \
  X(pagestore_bytes)             \
  X(pagestore_evicted)           \
  X(hash_collisions)             \
  X(hash_chain_max)              \
  X(dist_units_sent)             \
  X(dist_units_merged)           \
  X(dist_reassignments)          \
  X(dist_worker_deaths)          \
  X(dist_heartbeats)             \
  X(dist_local_fallbacks)        \
  X(dist_bytes_sent)             \
  X(dist_bytes_recv)             \
  X(discover_ns)                 \
  X(evaluate_ns)                 \
  X(classify_ns)                 \
  X(advance_ns)                  \
  X(dropped_events)

inline constexpr std::size_t kCounterFieldCount = 34;

/// Plain-value copy of the counter set at one moment.
struct CounterSnapshot {
  std::uint64_t branch_attempts = 0;  ///< mirrors SearchCost::branches
  std::uint64_t branch_retries = 0;   ///< mirrors SearchCost::retries
  std::uint64_t branch_quarantines = 0;  ///< mirrors SearchResult::failed size
  std::uint64_t budget_aborts = 0;    ///< branches ended by the event budget
  std::uint64_t decode_hits = 0;      ///< DecodedSnapshot cache hits
  std::uint64_t decode_misses = 0;    ///< DecodedSnapshot cache misses
  std::uint64_t emu_events = 0;       ///< emulator events dispatched
  std::uint64_t reassembly_evicted = 0;  ///< stranded reassemblies reaped
  std::uint64_t proxy_observed = 0;   ///< malicious-sender messages seen
  std::uint64_t proxy_injected = 0;   ///< messages an armed action transformed
  std::uint64_t journal_replays = 0;  ///< branches served from the journal
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_loads = 0;
  std::uint64_t snapshot_bytes_written = 0;  ///< blob + new page-store bytes
  std::uint64_t snapshot_bytes_deduped = 0;  ///< page bytes replaced by refs
  std::uint64_t cow_page_faults = 0;  ///< pages copied out of adopted bases
  std::uint64_t pagestore_pages = 0;  ///< occupancy gauge (latest, not a sum)
  std::uint64_t pagestore_bytes = 0;  ///< occupancy gauge (latest, not a sum)
  std::uint64_t pagestore_evicted = 0;  ///< pages reclaimed between scans
  std::uint64_t hash_collisions = 0;  ///< digest matches settled by bytes
  std::uint64_t hash_chain_max = 0;   ///< gauge: longest collision chain seen
  std::uint64_t dist_units_sent = 0;  ///< work units granted to workers
  std::uint64_t dist_units_merged = 0;  ///< worker results merged
  std::uint64_t dist_reassignments = 0;  ///< leases reissued after a death
  std::uint64_t dist_worker_deaths = 0;  ///< connections lost or timed out
  std::uint64_t dist_heartbeats = 0;  ///< heartbeat frames received
  std::uint64_t dist_local_fallbacks = 0;  ///< branches degraded to local
  std::uint64_t dist_bytes_sent = 0;  ///< frame bytes written to sockets
  std::uint64_t dist_bytes_recv = 0;  ///< frame bytes read from sockets
  std::uint64_t discover_ns = 0;      ///< virtual time per search phase...
  std::uint64_t evaluate_ns = 0;      ///< (one-window branches)
  std::uint64_t classify_ns = 0;      ///< (two-window branches / full runs)
  std::uint64_t advance_ns = 0;       ///< (continuation branches)
  std::uint64_t dropped_events = 0;   ///< spans lost to a full trace buffer

  std::uint64_t execution_ns() const {
    return discover_ns + evaluate_ns + classify_ns + advance_ns;
  }
};

/// The process-wide counter set. Relaxed atomics: every counter is a sum of
/// per-branch contributions, so totals are order-independent and identical
/// across worker counts (the property the determinism tests assert).
struct Counters {
  std::atomic<std::uint64_t> branch_attempts{0};
  std::atomic<std::uint64_t> branch_retries{0};
  std::atomic<std::uint64_t> branch_quarantines{0};
  std::atomic<std::uint64_t> budget_aborts{0};
  std::atomic<std::uint64_t> decode_hits{0};
  std::atomic<std::uint64_t> decode_misses{0};
  std::atomic<std::uint64_t> emu_events{0};
  std::atomic<std::uint64_t> reassembly_evicted{0};
  std::atomic<std::uint64_t> proxy_observed{0};
  std::atomic<std::uint64_t> proxy_injected{0};
  std::atomic<std::uint64_t> journal_replays{0};
  std::atomic<std::uint64_t> snapshot_saves{0};
  std::atomic<std::uint64_t> snapshot_loads{0};
  std::atomic<std::uint64_t> snapshot_bytes_written{0};
  std::atomic<std::uint64_t> snapshot_bytes_deduped{0};
  std::atomic<std::uint64_t> cow_page_faults{0};
  std::atomic<std::uint64_t> pagestore_pages{0};
  std::atomic<std::uint64_t> pagestore_bytes{0};
  std::atomic<std::uint64_t> pagestore_evicted{0};
  std::atomic<std::uint64_t> hash_collisions{0};
  std::atomic<std::uint64_t> hash_chain_max{0};
  std::atomic<std::uint64_t> dist_units_sent{0};
  std::atomic<std::uint64_t> dist_units_merged{0};
  std::atomic<std::uint64_t> dist_reassignments{0};
  std::atomic<std::uint64_t> dist_worker_deaths{0};
  std::atomic<std::uint64_t> dist_heartbeats{0};
  std::atomic<std::uint64_t> dist_local_fallbacks{0};
  std::atomic<std::uint64_t> dist_bytes_sent{0};
  std::atomic<std::uint64_t> dist_bytes_recv{0};
  std::atomic<std::uint64_t> discover_ns{0};
  std::atomic<std::uint64_t> evaluate_ns{0};
  std::atomic<std::uint64_t> classify_ns{0};
  std::atomic<std::uint64_t> advance_ns{0};
  std::atomic<std::uint64_t> dropped_events{0};

  CounterSnapshot snapshot() const;
  void reset();
};

/// Serialize a snapshot in declaration order (u32 field count + one u64 per
/// field) — the wire shape of the dist runtime's per-result telemetry delta.
void save_counters(const CounterSnapshot& s, serial::Writer& w);
CounterSnapshot load_counters(serial::Reader& r);

/// Field-wise `now - prev`, saturating at zero (gauges may shrink between
/// snapshots).
CounterSnapshot counter_delta(const CounterSnapshot& now,
                              const CounterSnapshot& prev);

/// Field-wise `into += d`.
void counter_accumulate(CounterSnapshot& into, const CounterSnapshot& d);

/// One collected event (Chrome trace_event shape).
struct TraceEvent {
  std::string name;
  std::string args;  ///< pre-rendered JSON members ("\"k\":1,..."), may be empty
  const char* category = "";
  char phase = 'X';  ///< 'X' complete, 'i' instant
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;   ///< microseconds (virtual or since enable())
  std::int64_t dur_us = 0;  ///< 'X' only

  bool operator==(const TraceEvent&) const = default;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// The singleton (leaked, like FaultInjector: no static-destruction races).
  static Tracer& instance();

  /// Arm tracing on `clock`, clearing the event buffer and every counter.
  void enable(Clock clock, std::size_t capacity = kDefaultCapacity);
  void disable();  ///< disarm; collected events/counters remain readable
  bool enabled() const;
  Clock clock() const;

  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Append one event (thread-safe). Dropped (and counted) when the buffer
  /// is full or tracing is disabled.
  void record(TraceEvent ev);

  /// Snapshot of the collected events, in serialization order: virtual-clock
  /// events sort by content so the order is a pure function of the event
  /// multiset; wall-clock events sort by (ts, tid).
  std::vector<TraceEvent> events() const;

  /// Render chrome://tracing JSON ("traceEvents" array plus final counter
  /// values as 'C' samples). Deterministic in virtual mode.
  std::string chrome_json() const;

  /// Write chrome_json() to `path`. Throws std::runtime_error on I/O error.
  void write_chrome_json(const std::string& path) const;

  /// Wall microseconds since enable() (wall-mode timestamps).
  std::int64_t wall_now_us() const;

 private:
  Tracer() = default;

  mutable std::mutex mu_;
  std::vector<TraceEvent> buffer_;
  std::size_t capacity_ = kDefaultCapacity;
  std::atomic<Clock> clock_{Clock::kVirtual};
  std::int64_t enable_anchor_ns_ = 0;  ///< steady_clock at enable()
  Counters counters_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The hook compiled into platform code: one relaxed load while disarmed.
inline bool active() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Counter access for instrumentation sites (bump only under active()).
inline Counters& counters() { return Tracer::instance().counters(); }

/// RAII span. No-op unless tracing is active at construction. In wall mode
/// the span covers construction→destruction; in virtual mode it covers the
/// interval given via at()/lasted() (so identical work stamps identically
/// whether it ran inline or on a worker).
class Span {
 public:
  Span(const char* category, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& at(Time virtual_ts);          ///< virtual-mode start (ns)
  Span& lasted(Duration virtual_dur); ///< virtual-mode duration (ns)
  Span& arg(const char* key, std::string_view value);
  Span& arg(const char* key, std::int64_t value);
  Span& arg(const char* key, std::uint64_t value);
  Span& arg(const char* key, double value);

 private:
  bool active_ = false;
  Clock clock_ = Clock::kVirtual;
  const char* category_ = "";
  const char* name_ = "";
  std::int64_t wall_start_us_ = 0;
  Time vts_ = 0;
  Duration vdur_ = 0;
  std::string args_;
};

/// One-shot instant event ('i'). `virtual_ts` stamps it in virtual mode; wall
/// mode uses the wall clock at the call. `args` is pre-rendered JSON members.
void instant(const char* category, const char* name, Time virtual_ts,
             std::string args = {});

/// Args helper: builds the pre-rendered JSON member list Span/instant expect.
class Args {
 public:
  Args& add(const char* key, std::string_view value);
  Args& add(const char* key, std::int64_t value);
  Args& add(const char* key, std::uint64_t value);
  Args& add(const char* key, double value);
  std::string take() { return std::move(s_); }

 private:
  std::string s_;
};

/// JSON string escaping shared by the serializer and args builders.
std::string json_escape(std::string_view s);

/// RAII arming for tests: enables on construction, disables on destruction.
class ScopedTrace {
 public:
  explicit ScopedTrace(Clock clock = Clock::kVirtual,
                       std::size_t capacity = Tracer::kDefaultCapacity) {
    Tracer::instance().enable(clock, capacity);
  }
  ~ScopedTrace() { Tracer::instance().disable(); }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

}  // namespace turret::trace
