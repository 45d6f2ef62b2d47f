// Layer-accounting checks for the traced run:
//   * the replay's per-layer self times sum to the replay's wall time (run on
//     one thread, so wall time and summed span time are the same clock
//     interval): nothing is double-counted or lost;
//   * every site's self time is non-negative (children never exceed their
//     parent);
//   * the brute-force search makes no snapshot save, load or decode, and the
//     branching search does: counted by the library's executor counters and
//     by the GuestNode decorator during a traced search, not by the replay
//     (whose brute-force path skips snapshots by design).
#include <cmath>
#include <cstdio>

#include "common/log.h"
#include "replay.h"
#include "spans.h"
#include "traced.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

ReplayResult replay_one_thread(const char* name) {
  const Workload w = make_workload(name, 0);
  turret::search::BranchExecutor ex(w.scenario);
  return replay(w, ex, 1, 2);
}

double layer_sum(const SpanReport& s) {
  double sum = 0;
  for (std::size_t l = 0; l < kLayerCount; ++l)
    sum += s.layer_self_s(static_cast<Layer>(l));
  return sum;
}

void check_accounting(const char* name, const ReplayResult& r) {
  std::printf("%s: layers %.6f s, roots %.6f s, wall %.6f s\n", name,
              layer_sum(r.spans), r.spans.root_s(), r.elapsed_s);
  // Self times partition the root spans exactly (integer nanoseconds).
  check(std::abs(layer_sum(r.spans) - r.spans.root_s()) < 1e-6,
        "layer self times sum to the root spans");
  // Root spans cover the replay's wall time up to loop bookkeeping.
  check(r.spans.root_s() <= r.elapsed_s,
        "root spans do not exceed the replay wall time");
  check(r.spans.root_s() >= 0.98 * r.elapsed_s,
        "root spans cover at least 98% of the replay wall time");
  bool nonnegative = true;
  for (const SiteTotals& t : r.spans.sites) nonnegative &= t.self_ns >= 0;
  check(nonnegative, "every site's self time is non-negative");
  check(r.branches > 0 && r.failed == 0, "every replayed branch ran");
  check(r.mismatches.empty(), "replayed baselines match the executor's");
}

}  // namespace

int main() {
  turret::set_log_level(turret::LogLevel::kError);

  const ReplayResult weighted = replay_one_thread("pbft-weighted");
  check_accounting("pbft-weighted", weighted);
  check(weighted.spans.at(Site::kRestore).calls > 0,
        "branching replay restores snapshots");

  const ReplayResult brute = replay_one_thread("pbft-brute");
  check_accounting("pbft-brute", brute);
  check(brute.spans.at(Site::kStart).calls == brute.branches,
        "brute: every replayed branch starts from t = 0");

  configure_jobs();
  const TracedSearch weighted_search =
      run_traced_search(make_workload("pbft-weighted", 0));
  std::printf("pbft-weighted search: %llu library, %llu guest snapshot calls\n",
              static_cast<unsigned long long>(
                  weighted_search.library_snapshot_calls()),
              static_cast<unsigned long long>(
                  weighted_search.guest_save_load_calls()));
  check(weighted_search.counters.snapshot_saves > 0 &&
            weighted_search.counters.snapshot_loads > 0,
        "weighted search: the library counts snapshot saves and loads");
  check(weighted_search.spans.at(Site::kGuestSave).calls > 0 &&
            weighted_search.spans.at(Site::kGuestLoad).calls > 0,
        "weighted search: guests are saved and loaded");

  const TracedSearch brute_search =
      run_traced_search(make_workload("pbft-brute", 0));
  std::printf("pbft-brute search: %llu library, %llu guest snapshot calls\n",
              static_cast<unsigned long long>(
                  brute_search.library_snapshot_calls()),
              static_cast<unsigned long long>(
                  brute_search.guest_save_load_calls()));
  check(brute_search.result.cost.branches > 0, "brute search: branches ran");
  check(brute_search.library_snapshot_calls() == 0,
        "brute search: the library counts no snapshot save, load or decode");
  check(brute_search.guest_save_load_calls() == 0,
        "brute search: no guest is saved or loaded");

  std::printf("%s\n", g_failures ? "FAILED" : "PASSED");
  return g_failures ? 1 : 0;
}
