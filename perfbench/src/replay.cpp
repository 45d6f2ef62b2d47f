#include "replay.h"

#include <future>
#include <optional>

#include "common/thread_pool.h"
#include "proxy/enumerate.h"
#include "traced.h"

namespace perfbench {

using namespace turret;

namespace {

struct BranchStats {
  bool ok = false;
  search::WindowPerf perf;
  std::uint64_t events = 0;
  std::uint64_t observed = 0;
  std::uint64_t injected = 0;
};

/// Evenly spaced sample of `k` of the point's enumerated actions.
std::vector<proxy::MaliciousAction> sample_actions(
    const search::Scenario& sc, wire::TypeTag tag, std::size_t k) {
  std::vector<proxy::MaliciousAction> out;
  const wire::MessageSpec* spec = sc.schema->by_tag(tag);
  if (spec == nullptr) return out;
  const std::vector<proxy::MaliciousAction> all =
      proxy::enumerate_actions(*spec, sc.actions);
  const std::size_t n = std::min(k, all.size());
  for (std::size_t i = 0; i < n; ++i) out.push_back(all[i * all.size() / n]);
  return out;
}

/// Runs one branch in a traced world: `enter` brings the world to the
/// injection point (restore, or start from t = 0), then the action is armed
/// and the world runs to `until`; the first window from `t0` is measured.
template <typename Enter>
BranchStats run_branch(const search::Scenario& traced_sc,
                       const proxy::MaliciousAction* action, Time t0,
                       Time until, const Enter& enter) {
  BranchStats s;
  Span root(Site::kBranch);
  try {
    TracedWorld w(traced_sc);
    w.testbed().emulator().set_event_budget(traced_sc.fault.max_branch_events);
    enter(w);
    if (action != nullptr) {
      Span arm(Site::kProxyArm);
      w.proxy().arm(*action);
    }
    const std::uint64_t events0 = w.testbed().emulator().stats().events_processed;
    const proxy::ProxyStats proxy0 = w.proxy().stats();
    {
      Span run(Site::kRun);
      w.testbed().run_until(until);
    }
    {
      Span measure(Site::kMeasure);
      s.perf = search::measure_window(traced_sc.metric, w.testbed(), t0,
                                      t0 + traced_sc.window);
    }
    s.events = w.testbed().emulator().stats().events_processed - events0;
    s.observed = w.proxy().stats().observed - proxy0.observed;
    s.injected = w.proxy().stats().injected - proxy0.injected;
    s.ok = true;
  } catch (...) {
    // A failing branch (the executor would retry and quarantine it) still
    // spent its time; it is counted as failed and its window is not used.
  }
  return s;
}

bool same_window(const search::WindowPerf& a, const search::WindowPerf& b) {
  return a.value == b.value && a.samples == b.samples && a.tampers == b.tampers;
}

double open_ns_per_msg(const search::Scenario& sc) {
  WireTally& tally = wire_tally();
  std::lock_guard<std::mutex> lock(tally.mu);
  if (sc.signed_adapter == nullptr || tally.sample.empty()) return 0;
  constexpr int kPasses = 50;
  std::uint64_t opened = 0;
  const std::int64_t t0 = now_ns();
  for (int p = 0; p < kPasses; ++p)
    for (const Bytes& m : tally.sample)
      opened += sc.signed_adapter->open(BytesView{m}).has_value() ? 1 : 0;
  const std::int64_t dur = now_ns() - t0;
  if (opened == 0) return 0;
  return static_cast<double>(dur) /
         static_cast<double>(kPasses * tally.sample.size());
}

}  // namespace

ReplayResult replay(const Workload& w, search::BranchExecutor& ex,
                    unsigned jobs, std::size_t actions_per_point) {
  const search::Scenario& sc = w.scenario;
  const search::Scenario traced_sc = traced_scenario(sc);
  const bool brute = w.algorithm == Algorithm::kBrute;

  // References first, with recording off: the executor's own baselines.
  const std::vector<search::BranchExecutor::InjectionPoint>& points =
      ex.discover();
  std::vector<std::optional<search::WindowPerf>> reference;
  for (const auto& ip : points) reference.push_back(ex.try_baseline(ip));

  ReplayResult out;
  wire_tally().reset();
  take();
  set_recording(true);
  const std::int64_t start = now_ns();
  {
    ThreadPool pool(jobs);
    for (std::size_t p = 0; p < points.size(); ++p) {
      const auto& ip = points[p];
      const std::vector<proxy::MaliciousAction> actions =
          sample_actions(sc, ip.tag, actions_per_point);

      std::optional<runtime::DecodedSnapshot> decoded;
      if (!brute) {
        {
          Span span(Site::kDecode);
          decoded.emplace(runtime::Testbed::decode_snapshot(
              *ip.snapshot, sc.testbed.snapshot.store.get()));
        }
        Span probe(Site::kSaveProbe);
        TracedWorld world(traced_sc);
        {
          Span restore(Site::kRestore);
          world.testbed().load_snapshot(*decoded);
        }
        {
          Span save(Site::kSave);
          world.testbed().save_snapshot();
        }
        const runtime::SnapshotSaveStats& st = world.testbed().last_save_stats();
        out.snapshot_bytes_written += st.bytes_written;
        out.snapshot_bytes_deduped += st.bytes_deduped;
        out.cow_faults += st.cow_faults;
        out.pagestore_pages = st.store_pages;
      }

      // Baseline first (nullptr), then the sampled actions. Branching
      // replays one window from the snapshot; brute force replays the
      // full execution it would pay: t0 + w for the baseline, t0 + 2w for
      // an attack run.
      std::vector<std::future<BranchStats>> futures;
      for (std::size_t i = 0; i <= actions.size(); ++i) {
        const proxy::MaliciousAction* action =
            i == 0 ? nullptr : &actions[i - 1];
        futures.push_back(pool.submit([&, action] {
          if (brute) {
            const Time until = ip.time + (action ? 2 : 1) * sc.window;
            return run_branch(traced_sc, action, ip.time, until,
                              [](TracedWorld& tw) {
                                Span span(Site::kStart);
                                tw.testbed().start();
                              });
          }
          return run_branch(traced_sc, action, ip.time, ip.time + sc.window,
                            [&decoded](TracedWorld& tw) {
                              Span span(Site::kRestore);
                              tw.testbed().load_snapshot(*decoded);
                            });
        }));
      }
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const BranchStats s = futures[i].get();
        ++out.branches;
        if (!s.ok) {
          ++out.failed;
          if (i == 0 && reference[p])
            out.mismatches.push_back(ip.message_name + " baseline failed");
          continue;
        }
        out.events += s.events;
        out.proxy_observed += s.observed;
        out.proxy_injected += s.injected;
        out.tampers += s.perf.tampers;
        if (i == 0 && reference[p] && !same_window(s.perf, *reference[p])) {
          out.mismatches.push_back(ip.message_name + " baseline window");
        }
      }
    }
  }
  out.elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
  set_recording(false);
  out.spans = take();
  out.sealed_msgs = wire_tally().sealed.load(std::memory_order_relaxed);
  out.open_ns_per_msg = open_ns_per_msg(sc);
  return out;
}

}  // namespace perfbench
