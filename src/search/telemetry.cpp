#include "search/telemetry.h"

#include <cinttypes>
#include <cstdio>

#include "common/check.h"

namespace turret::search {
namespace {

std::string u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double TelemetrySnapshot::branches_per_sec() const {
  const std::uint64_t exec_ns = counters.execution_ns();
  if (exec_ns == 0) return 0;
  return static_cast<double>(counters.branch_attempts) *
         (1e9 / static_cast<double>(exec_ns));
}

double TelemetrySnapshot::decode_hit_rate() const {
  const std::uint64_t touches = counters.decode_hits + counters.decode_misses;
  if (touches == 0) return 0;
  return static_cast<double>(counters.decode_hits) /
         static_cast<double>(touches);
}

std::string TelemetrySnapshot::to_json() const {
  const trace::CounterSnapshot& c = counters;
  std::string out = "{";
  out += "\"clock\":\"" + std::string(trace::clock_name(clock)) + "\"";
  out += ",\"branches_per_sec\":" + num(branches_per_sec());
  out += ",\"decode_hit_rate\":" + num(decode_hit_rate());
  out += ",\"branch_attempts\":" + u64(c.branch_attempts);
  out += ",\"retries\":" + u64(c.branch_retries);
  out += ",\"quarantines\":" + u64(c.branch_quarantines);
  out += ",\"budget_aborts\":" + u64(c.budget_aborts);
  out += ",\"decode_hits\":" + u64(c.decode_hits);
  out += ",\"decode_misses\":" + u64(c.decode_misses);
  out += ",\"emu_events\":" + u64(c.emu_events);
  out += ",\"reassembly_evicted\":" + u64(c.reassembly_evicted);
  out += ",\"proxy_observed\":" + u64(c.proxy_observed);
  out += ",\"proxy_injected\":" + u64(c.proxy_injected);
  out += ",\"journal_replays\":" + u64(c.journal_replays);
  out += ",\"snapshot_saves\":" + u64(c.snapshot_saves);
  out += ",\"snapshot_loads\":" + u64(c.snapshot_loads);
  out += ",\"snapshot_bytes_written\":" + u64(c.snapshot_bytes_written);
  out += ",\"snapshot_bytes_deduped\":" + u64(c.snapshot_bytes_deduped);
  out += ",\"cow_page_faults\":" + u64(c.cow_page_faults);
  out += ",\"pagestore_pages\":" + u64(c.pagestore_pages);
  out += ",\"pagestore_bytes\":" + u64(c.pagestore_bytes);
  out += ",\"pagestore_evicted\":" + u64(c.pagestore_evicted);
  out += ",\"hash_collisions\":" + u64(c.hash_collisions);
  out += ",\"hash_chain_max\":" + u64(c.hash_chain_max);
  out += ",\"phase_ns\":{";
  out += "\"discover\":" + u64(c.discover_ns);
  out += ",\"evaluate\":" + u64(c.evaluate_ns);
  out += ",\"classify\":" + u64(c.classify_ns);
  out += ",\"advance\":" + u64(c.advance_ns);
  out += "}";
  out += ",\"dropped_trace_events\":" + u64(c.dropped_events);
  if (clock == trace::Clock::kWall) {
    // Wall duration is inherently run-dependent; keeping it out of virtual
    // mode preserves byte-identical stats blocks across runs and --jobs.
    out += ",\"wall_us\":" + u64(static_cast<std::uint64_t>(wall_us));
  }
  out += "}";
  return out;
}

std::string TelemetrySnapshot::fleet_json() const {
  const trace::CounterSnapshot& c = counters;
  std::string out = "{";
  out += "\"workers\":" + u64(workers);
  // The dist transport counters live here, not in the stats block: bytes and
  // unit flow depend on how many workers the fleet happens to have, so they
  // can never be byte-identical across 0..N workers the way the core is.
  out += ",\"dist_units_sent\":" + u64(c.dist_units_sent);
  out += ",\"dist_units_merged\":" + u64(c.dist_units_merged);
  out += ",\"dist_reassignments\":" + u64(c.dist_reassignments);
  out += ",\"dist_worker_deaths\":" + u64(c.dist_worker_deaths);
  out += ",\"dist_heartbeats\":" + u64(c.dist_heartbeats);
  out += ",\"dist_local_fallbacks\":" + u64(c.dist_local_fallbacks);
  out += ",\"dist_bytes_sent\":" + u64(c.dist_bytes_sent);
  out += ",\"dist_bytes_recv\":" + u64(c.dist_bytes_recv);
  out += ",\"per_worker\":[";
  for (std::size_t i = 0; i < per_worker.size(); ++i) {
    const WorkerTelemetry& w = per_worker[i];
    if (i) out += ",";
    out += "{\"worker\":" + u64(w.worker);
    out += ",\"units\":" + u64(w.units);
    out += ",\"emu_events\":" + u64(w.counters.emu_events);
    out += ",\"reassembly_evicted\":" + u64(w.counters.reassembly_evicted);
    out += ",\"proxy_observed\":" + u64(w.counters.proxy_observed);
    out += ",\"proxy_injected\":" + u64(w.counters.proxy_injected);
    out += ",\"budget_aborts\":" + u64(w.counters.budget_aborts);
    out += ",\"cow_page_faults\":" + u64(w.counters.cow_page_faults);
    out += ",\"dist_bytes_sent\":" + u64(w.counters.dist_bytes_sent);
    out += ",\"dist_bytes_recv\":" + u64(w.counters.dist_bytes_recv);
    out += "}";
  }
  out += "]}";
  return out;
}

TelemetrySnapshot capture_telemetry() {
  const trace::Tracer& tracer = trace::Tracer::instance();
  TelemetrySnapshot t;
  t.counters = tracer.counters().snapshot();
  t.clock = tracer.clock();
  t.wall_us = tracer.wall_now_us();
  return t;
}

std::string append_stats(const std::string& result_json,
                         const TelemetrySnapshot& t) {
  TURRET_CHECK_MSG(!result_json.empty() && result_json.back() == '}',
                   "append_stats: result_json is not a JSON object");
  std::string out = result_json;
  out.pop_back();
  out += ",\"stats\":";
  out += t.to_json();
  out += ",\"fleet\":";
  out += t.fleet_json();
  out += "}";
  return out;
}

}  // namespace turret::search
