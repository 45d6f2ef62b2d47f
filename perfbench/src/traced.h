// Forwarding decorators that put spans around the library's public call
// boundaries without modifying it:
//
//   * a GuestNode decorator, installed through Scenario::factory, times the
//     guest's handlers and its state save/load; it hands the guest a wrapped
//     GuestContext so time in send/set_timer/cancel_timer counts as platform
//     time, not guest time;
//   * a MessageSink on Emulator::set_sink times runtime delivery;
//   * an IngressInterceptor on Emulator::set_interceptor times the proxy.
//
// Decorators change no behaviour: they forward every call and every byte.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/trace.h"
#include "search/executor.h"
#include "search/report.h"
#include "search/scenario.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Sealed application messages seen by decorated guest contexts, and a
/// bounded sample of them for timing SignedAdapter::open afterwards.
struct WireTally {
  std::atomic<std::uint64_t> sealed{0};
  std::mutex mu;
  std::vector<turret::Bytes> sample;  ///< guarded by mu
  static constexpr std::size_t kSampleCap = 512;

  void reset();
};
WireTally& wire_tally();

/// `sc` with its guest factory wrapped in the GuestNode decorator.
turret::search::Scenario traced_scenario(const turret::search::Scenario& sc);

/// One search of a workload with the GuestNode decorator installed and the
/// library's trace counters armed.
struct TracedSearch {
  turret::search::SearchResult result;
  double wall_s = 0;
  SpanReport spans;  ///< decorator spans: guest handlers, save, load
  turret::trace::CounterSnapshot counters;

  /// Snapshot saves, loads and decodes the library's executor counted.
  std::uint64_t library_snapshot_calls() const;
  /// GuestNode::save/load calls the decorator saw (one per node per
  /// snapshot save or restore).
  std::uint64_t guest_save_load_calls() const;
};

/// Runs `w`'s search once through traced_scenario(); span recording and the
/// library tracer are on only for the search call.
TracedSearch run_traced_search(const Workload& w);

/// A ScenarioWorld whose emulator sink and interceptor are the span-recording
/// forwarders. Construction and teardown are timed as runtime world build.
class TracedWorld {
 public:
  explicit TracedWorld(const turret::search::Scenario& sc);
  ~TracedWorld();
  TracedWorld(const TracedWorld&) = delete;
  TracedWorld& operator=(const TracedWorld&) = delete;

  turret::runtime::Testbed& testbed() { return *world_.testbed; }
  turret::proxy::MaliciousProxy& proxy() { return *world_.proxy; }

 private:
  class Sink;
  class Interceptor;
  // Declared before world_ so they outlive the testbed that points at them.
  std::unique_ptr<Sink> sink_;
  std::unique_ptr<Interceptor> interceptor_;
  turret::search::ScenarioWorld world_;
};

}  // namespace perfbench
