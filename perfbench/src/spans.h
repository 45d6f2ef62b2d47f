// Outside-in span recorder for the traced benchmark run.
//
// Spans are opened by the benchmark around calls into each module's public
// functions (never inside the library). Each thread keeps a stack of open
// spans; when a span closes, its self time (duration minus the time its child
// spans cover) is added to its site's totals and its duration is added to the
// parent's child time. Only root branch spans keep their own durations (for
// percentiles), so a search of millions of events costs a few counters per
// site, not a span list. Everything stays in memory until take() merges it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The library modules (src/<layer>/) a span's self time is charged to.
enum class Layer : std::uint8_t {
  kSearch,
  kRuntime,
  kVm,
  kNetem,
  kSystems,
  kProxy,
};
inline constexpr std::size_t kLayerCount = 6;

/// One instrumented call boundary.
enum class Site : std::uint8_t {
  kBranch,        ///< root: one replayed branch (search)
  kSaveProbe,     ///< root: one snapshot save per injection point (search)
  kMeasure,       ///< search::measure_window
  kDecode,        ///< runtime::Testbed::decode_snapshot
  kWorldBuild,    ///< search::make_scenario_world
  kRestore,       ///< runtime::Testbed::load_snapshot
  kSave,          ///< runtime::Testbed::save_snapshot
  kStart,         ///< runtime::Testbed::start
  kDeliver,       ///< runtime MessageSink::on_message / on_event
  kRun,           ///< netem::Emulator::run_until (dispatch loop)
  kGuestCall,     ///< GuestContext::send / set_timer / cancel_timer
  kHandler,       ///< GuestNode::start / on_message / on_timer
  kGuestSave,     ///< GuestNode::save
  kGuestLoad,     ///< GuestNode::load
  kProxySend,     ///< proxy IngressInterceptor::on_send
  kProxyArm,      ///< proxy::MaliciousProxy::arm
};
inline constexpr std::size_t kSiteCount = 16;

struct SiteTotals {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t calls = 0;
};

/// Merged totals of every thread since the last take().
struct SpanReport {
  std::array<SiteTotals, kSiteCount> sites{};
  /// Summed duration of the spans that had no parent, per site.
  std::array<std::int64_t, kSiteCount> root_ns{};
  /// Every root kBranch span, in no particular order.
  std::vector<std::int64_t> branch_ns;

  const SiteTotals& at(Site s) const {
    return sites[static_cast<std::size_t>(s)];
  }
  /// Sum of self time over the sites of `l`, in seconds.
  double layer_self_s(Layer l) const;
  /// Sum of root durations in seconds: the wall time the spans account for,
  /// summed over threads.
  double root_s() const;
};

/// Arms or disarms recording process-wide. Disarmed, a Span costs one
/// relaxed load.
void set_recording(bool on);

/// Merges and clears every thread's totals. Call only while no span is open
/// (between phases, with worker pools idle).
SpanReport take();

std::int64_t now_ns();

class Span {
 public:
  explicit Span(Site site);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_ = false;
};

}  // namespace perfbench
