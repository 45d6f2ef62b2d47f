// Branch replay: the traced run's per-layer split of branch execution.
//
// For every discovered injection point the replay runs the baseline plus a
// fixed sample of the point's enumerated actions, one branch per pool task,
// through the same public calls the executor makes (decode_snapshot,
// make_scenario_world, load_snapshot, arm, run_until, measure_window), each
// inside a span. Brute-force workloads replay full executions from
// Testbed::start instead, with no snapshot calls. One save per injection
// point (a save probe) measures the save path the discovery run pays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "search/executor.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Enumerated actions replayed per injection point, besides the baseline.
inline constexpr std::size_t kReplayActionsPerPoint = 6;

struct ReplayResult {
  SpanReport spans;
  double elapsed_s = 0;           ///< wall time of the whole replay
  std::uint64_t branches = 0;     ///< replayed branches (baselines included)
  std::uint64_t failed = 0;       ///< replayed branches that threw
  std::uint64_t events = 0;       ///< emulator events dispatched
  std::uint64_t proxy_observed = 0;
  std::uint64_t proxy_injected = 0;
  std::uint64_t tampers = 0;      ///< tamper_detected inside measured windows
  std::uint64_t sealed_msgs = 0;  ///< sealed messages guests sent
  double open_ns_per_msg = 0;     ///< SignedAdapter::open cost (0: unsigned)
  // Save-probe accounting (runtime::SnapshotSaveStats, summed).
  std::uint64_t snapshot_bytes_written = 0;
  std::uint64_t snapshot_bytes_deduped = 0;
  std::uint64_t cow_faults = 0;
  std::uint64_t pagestore_pages = 0;  ///< occupancy after the last probe
  /// Replayed baselines that failed or whose window differs from
  /// BranchExecutor::baseline(ip).
  std::vector<std::string> mismatches;
};

/// Replays `w` on `jobs` threads. `ex` must be an executor over
/// w.scenario; its discover() and baseline() are the references (computed
/// before recording starts). Arms span recording for the replay itself.
ReplayResult replay(const Workload& w, turret::search::BranchExecutor& ex,
                    unsigned jobs,
                    std::size_t actions_per_point = kReplayActionsPerPoint);

}  // namespace perfbench
