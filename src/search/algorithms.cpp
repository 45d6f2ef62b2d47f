#include "search/algorithms.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "netem/emulator.h"
#include "search/journal.h"
#include "search/provenance.h"

namespace turret::search {
namespace {

using BranchResult = BranchExecutor::BranchResult;

/// One-window evaluation of an action at an injection point.
struct Evaluation {
  WindowPerf perf;
  double damage = 0;
  std::uint32_t crashes = 0;

  /// Ranking that places crashes above everything, then detected tampering,
  /// then plain metric damage. A branch the honest fleet visibly fights off
  /// (TamperDetected observations: each one is a verification the attacker
  /// forced and a message the protocol lost) is a stronger lead than one
  /// that only dents throughput — detection storms are an attack signal,
  /// not a dead end. The tamper term saturates at rank 2.0 so it can never
  /// outrank a crash.
  double rank() const {
    if (crashes > 0) return 2.0 + crashes;
    if (perf.tampers == 0) return damage;
    const double storm =
        1.0 + std::min(1.0, static_cast<double>(perf.tampers) / 64.0);
    return std::max(damage, storm);
  }
};

Evaluation to_evaluation(const Scenario& sc,
                         const BranchExecutor::BranchOutcome& out,
                         const WindowPerf& base) {
  Evaluation ev;
  ev.perf = out.windows[0];
  ev.damage = compute_damage(sc.metric, base, ev.perf);
  ev.crashes = out.new_crashes;
  return ev;
}

/// Batch evaluation of every action at one injection point. A quarantined
/// branch yields a nullopt evaluation (its FailedBranch record lives in the
/// executor); the raw results keep per-branch attempt counts for the
/// weighted-greedy cost replay.
struct EvalSet {
  std::vector<BranchResult> results;
  std::vector<std::optional<Evaluation>> evals;
};

EvalSet evaluate_all(BranchExecutor& exec,
                     const BranchExecutor::InjectionPoint& ip,
                     const std::vector<proxy::MaliciousAction>& actions,
                     const WindowPerf& base) {
  std::vector<const proxy::MaliciousAction*> ptrs;
  ptrs.reserve(actions.size());
  for (const proxy::MaliciousAction& a : actions) ptrs.push_back(&a);
  EvalSet es;
  es.results = exec.run_branches(ip, ptrs, 1);
  es.evals.reserve(es.results.size());
  for (const BranchResult& r : es.results) {
    if (r.ok()) {
      es.evals.push_back(to_evaluation(exec.scenario(), *r.outcome, base));
    } else {
      es.evals.push_back(std::nullopt);
    }
  }
  return es;
}

/// Brute force's containment loop: the same retry/quarantine semantics as
/// BranchExecutor::attempt_branch, but around a full scenario execution
/// (brute force never branches, so it has no executor to lean on).
template <typename Fn>
BranchResult attempt_full_run(const Scenario& sc, Fn&& fn) {
  BranchResult r;
  const int max_attempts = 1 + std::max(0, sc.fault.max_retries);
  for (int attempt = 1;; ++attempt) {
    r.attempts = static_cast<std::uint32_t>(attempt);
    try {
      fault::inject(fault::kBranchExec);
      r.outcome = fn();
      r.error.clear();
      return r;
    } catch (const netem::BudgetExceededError& e) {
      r.error = e.what();
      if (trace::active())
        trace::counters().budget_aborts.fetch_add(1, std::memory_order_relaxed);
      return r;  // deterministic runaway: quarantine immediately
    } catch (const std::exception& e) {
      r.error = e.what();
    } catch (...) {
      r.error = "unknown error";
    }
    if (attempt >= max_attempts) return r;
  }
}

/// Effect classification shared by every algorithm: crash and halt dominate;
/// qualifying damage that honest receivers *detected* (TamperDetected
/// observations in the attack window) is a detection storm — the signed
/// adapter caught the mutations but the system bled anyway; the remainder
/// splits into sustained degradation vs. transient on the recovery window.
AttackEffect classify_effect(const Scenario& sc, const WindowPerf& base,
                             const WindowPerf& w0, const WindowPerf& w1,
                             std::uint32_t crashes) {
  if (crashes > 0) return AttackEffect::kCrash;
  if (w0.samples == 0 && w1.samples == 0 && base.samples > 0)
    return AttackEffect::kHalt;
  if (w0.tampers + w1.tampers > 0) return AttackEffect::kDetectionStorm;
  if (compute_damage(sc.metric, base, w1) > sc.delta)
    return AttackEffect::kDegradation;
  return AttackEffect::kTransient;
}

/// Baseline-vs-attack percentile table: present whenever the windows carry
/// value-series distributions (mean and quantile metrics). The attack side
/// keeps has_percentiles even when one window starved (a halt is a tail
/// pathology worth tabulating, not a reason to hide the row).
void fill_percentiles(AttackReport& rep, const WindowPerf& base,
                      const WindowPerf& w0) {
  if (!base.has_percentiles && !w0.has_percentiles) return;
  rep.has_percentiles = true;
  rep.baseline_p50 = base.p50;
  rep.baseline_p95 = base.p95;
  rep.baseline_p99 = base.p99;
  rep.baseline_p999 = base.p999;
  rep.attacked_p50 = w0.p50;
  rep.attacked_p95 = w0.p95;
  rep.attacked_p99 = w0.p99;
  rep.attacked_p999 = w0.p999;
}

/// Build the report for a candidate attack from its two-window classification
/// branch: distinguishes crash / halt / detection storm / sustained
/// degradation / transient.
AttackReport make_report(const Scenario& sc,
                         const BranchExecutor::InjectionPoint& ip,
                         const proxy::MaliciousAction& action,
                         const WindowPerf& base,
                         const BranchExecutor::BranchOutcome& out) {
  const WindowPerf& w0 = out.windows[0];
  const WindowPerf& w1 = out.windows[1];

  AttackReport rep;
  rep.action = action;
  rep.baseline_performance = base.value;
  rep.attacked_performance = w0.value;
  rep.recovery_performance = w1.value;
  rep.damage = compute_damage(sc.metric, base, w0);
  rep.crashed_nodes = out.new_crashes;
  rep.tamper_detected = w0.tampers + w1.tampers;
  rep.injection_time = ip.time;
  rep.effect = classify_effect(sc, base, w0, w1, out.new_crashes);
  fill_percentiles(rep, base, w0);
  return rep;
}

std::string action_key(wire::TypeTag tag, const proxy::MaliciousAction& a) {
  return std::to_string(tag) + "|" + a.describe();
}

}  // namespace

// ---------------------------------------------------------------------------
// Brute force (Fig. 2a)
// ---------------------------------------------------------------------------

SearchResult brute_force_search(const Scenario& sc, Journal* journal,
                                ProvenanceStore* provenance) {
  SearchResult res;
  res.algorithm = "brute-force";
  SearchCost& cost = res.cost;

  // Benign execution: first-send time per message type and per-type baseline
  // windows. Obtained once (the algorithm's only shared state).
  std::map<wire::TypeTag, Time> first_send;
  std::vector<wire::TypeTag> order;
  WindowPerf benign;
  {
    ScenarioWorld w = make_scenario_world(sc);
    w.proxy->set_observer([&](NodeId, NodeId, wire::TypeTag tag) -> bool {
      if (w.testbed->now() < sc.warmup) return false;
      if (first_send.emplace(tag, w.testbed->now()).second)
        order.push_back(tag);
      return false;  // brute force never branches, so no holds
    });
    w.testbed->start();
    w.testbed->run_until(sc.duration);
    cost.execution += sc.duration;
    benign = measure_window(sc.metric, *w.testbed, sc.warmup,
                            sc.warmup + sc.window);
    if (provenance != nullptr) {
      provenance->add(std::make_shared<const BranchProvenance>(
          harvest_provenance(w, sc, "discover", 0, sc.duration, 0)));
    }
    if (trace::active()) {
      trace::counters().discover_ns.fetch_add(
          static_cast<std::uint64_t>(sc.duration), std::memory_order_relaxed);
      trace::Span("search", "discover")
          .at(0)
          .lasted(sc.duration)
          .arg("points", static_cast<std::uint64_t>(order.size()));
    }
  }

  // Brute force cannot branch, so every measurement below is an independent
  // full execution from t = 0 — exactly the shape a worker pool wants. All
  // executions (per-type baselines and per-action attack runs) are fanned out
  // across the pool; the merge then replays the serial per-tag, per-action
  // order so cost accounting and found_after are byte-identical to a
  // single-worker run.
  auto window_perf = [&sc](const runtime::Testbed& tb, Time t0,
                           Time t1) -> WindowPerf {
    return measure_window(sc.metric, tb, t0, t1);
  };

  // Every execution is a contained BranchResult: baseline runs carry one
  // window, attack runs two windows + a crash count. `cached` slots hold
  // journal replays; only misses get a future.
  struct TagWork {
    wire::TypeTag tag = 0;
    std::string name;
    Time t0 = 0;
    std::vector<proxy::MaliciousAction> actions;
    std::optional<BranchResult> base_cached;
    std::future<BranchResult> base;
    std::vector<std::optional<BranchResult>> run_cached;
    std::vector<std::future<BranchResult>> runs;
  };
  const auto base_key = [](const TagWork& tw) {
    return "bf|" + std::to_string(tw.tag) + "|base";
  };
  const auto run_key = [](const TagWork& tw, std::size_t i) {
    return "bf|" + std::to_string(tw.tag) + "|" + tw.actions[i].describe();
  };

  // Enumerate every execution first (futures reference the stored actions).
  std::vector<TagWork> work;
  for (wire::TypeTag tag : order) {
    const wire::MessageSpec* spec = sc.schema->by_tag(tag);
    if (spec == nullptr) continue;
    TagWork tw;
    tw.tag = tag;
    tw.name = spec->name;
    tw.t0 = first_send.at(tag);
    tw.actions = proxy::enumerate_actions(*spec, sc.actions);
    work.push_back(std::move(tw));
  }

  ThreadPool pool;

  for (TagWork& tw : work) {
    // Cooperative cancellation between message types: everything submitted so
    // far still drains (the pool destructor runs queued tasks), and nothing
    // past this type was journaled, so --resume picks up exactly here.
    if (cancel_requested()) throw CancelledError();
    const Time t0 = tw.t0;
    const Time t_end = t0 + 2 * sc.window;
    // Per-type baseline window from a dedicated benign run (brute force can
    // not branch, so it pays a full execution even for the baseline). A
    // journaled result replays from disk instead of executing.
    if (journal != nullptr) {
      if (std::optional<Bytes> rec = journal->replay(base_key(tw))) {
        tw.base_cached = decode_branch_result(*rec);
        if (trace::active())
          trace::counters().journal_replays.fetch_add(
              1, std::memory_order_relaxed);
      }
    }
    if (!tw.base_cached) {
      // Harvest keys are captured by value: the lambda may outlive this loop
      // iteration, and each task needs its own branch identity.
      tw.base = pool.submit([&sc, &window_perf, t0,
                             harvest = provenance != nullptr,
                             key = base_key(tw)] {
        return attempt_full_run(sc, [&] {
          ScenarioWorld w = make_scenario_world(sc);
          w.testbed->emulator().set_event_budget(sc.fault.max_branch_events);
          w.testbed->start();
          w.testbed->run_until(t0 + sc.window);
          BranchExecutor::BranchOutcome out;
          out.windows = {window_perf(*w.testbed, t0, t0 + sc.window)};
          if (harvest) {
            out.provenance = std::make_shared<const BranchProvenance>(
                harvest_provenance(w, sc, key, t0, t0 + sc.window, 1));
          }
          return out;
        });
      });
    }
    tw.run_cached.resize(tw.actions.size());
    tw.runs.resize(tw.actions.size());
    for (std::size_t i = 0; i < tw.actions.size(); ++i) {
      if (journal != nullptr) {
        if (std::optional<Bytes> rec = journal->replay(run_key(tw, i))) {
          tw.run_cached[i] = decode_branch_result(*rec);
          if (trace::active())
            trace::counters().journal_replays.fetch_add(
                1, std::memory_order_relaxed);
        }
      }
    }

    for (std::size_t i = 0; i < tw.actions.size(); ++i) {
      if (tw.run_cached[i]) continue;
      // A full execution per scenario, attack armed from the start; the
      // injection point is still the first send of the type, which the armed
      // action is what transforms.
      const proxy::MaliciousAction& action = tw.actions[i];
      tw.runs[i] = pool.submit([&sc, &window_perf, &action, t0, t_end,
                                harvest = provenance != nullptr,
                                key = run_key(tw, i)] {
        return attempt_full_run(sc, [&] {
          ScenarioWorld w = make_scenario_world(sc);
          w.testbed->emulator().set_event_budget(sc.fault.max_branch_events);
          w.proxy->arm(action);
          w.testbed->start();
          w.testbed->run_until(t_end);
          BranchExecutor::BranchOutcome out;
          out.windows = {window_perf(*w.testbed, t0, t0 + sc.window),
                         window_perf(*w.testbed, t0 + sc.window, t_end)};
          out.new_crashes =
              static_cast<std::uint32_t>(w.testbed->crashed_nodes().size());
          if (harvest) {
            out.provenance = std::make_shared<const BranchProvenance>(
                harvest_provenance(w, sc, key, t0, t_end, 2));
          }
          return out;
        });
      });
    }
  }

  // Deterministic merge in original (tag, action) order. Every future is
  // drained before any error escapes — tasks reference this frame — and
  // harness-level errors (containment catches everything a run can throw)
  // are aggregated rather than dropped after the first.
  std::vector<std::string> harness_errors;
  const auto settle = [&harness_errors](std::optional<BranchResult>& cached,
                                        std::future<BranchResult>& fut) {
    if (cached) return *std::move(cached);
    try {
      return fut.get();
    } catch (const std::exception& e) {
      harness_errors.push_back(e.what());
    } catch (...) {
      harness_errors.push_back("unknown error");
    }
    BranchResult r;
    r.error = "harness error";
    return r;
  };

  for (TagWork& tw : work) {
    const Time t0 = tw.t0;
    const Time t_end = t0 + 2 * sc.window;
    trace::Span tag_span("search", "brute-tag");
    if (trace::active()) {
      tag_span.at(t0)
          .lasted(2 * sc.window)
          .arg("message", tw.name)
          .arg("actions", static_cast<std::uint64_t>(tw.actions.size()));
    }
    BranchResult base_r = settle(tw.base_cached, tw.base);
    if (journal != nullptr && !tw.base_cached) {
      journal->append(base_key(tw), encode_branch_result(base_r));
    }
    if (provenance != nullptr && base_r.ok() &&
        base_r.outcome->provenance != nullptr) {
      provenance->add(base_r.outcome->provenance);
    }
    // Each attempt re-runs the full execution up to the measured window.
    cost.execution += static_cast<Duration>(base_r.attempts) * (t0 + sc.window);
    cost.branches += base_r.attempts;
    cost.retries += base_r.attempts - 1;
    if (trace::active()) {
      trace::Counters& c = trace::counters();
      c.branch_attempts.fetch_add(base_r.attempts, std::memory_order_relaxed);
      c.branch_retries.fetch_add(base_r.attempts - 1,
                                 std::memory_order_relaxed);
      c.evaluate_ns.fetch_add(
          static_cast<std::uint64_t>(base_r.attempts) * (t0 + sc.window),
          std::memory_order_relaxed);
    }
    if (!base_r.ok()) {
      // Without the per-type baseline nothing at this tag can be evaluated:
      // quarantine the baseline, then drain (and charge) its attack runs.
      FailedBranch f;
      f.had_action = false;
      f.tag = tw.tag;
      f.message_name = tw.name;
      f.injection_time = t0;
      f.attempts = base_r.attempts;
      f.error = base_r.error;
      if (trace::active()) {
        trace::counters().branch_quarantines.fetch_add(
            1, std::memory_order_relaxed);
        trace::instant("search", "quarantine", t0,
                       trace::Args()
                           .add("message", tw.name)
                           .add("branch", tw.name + " baseline")
                           .add("attempts",
                                static_cast<std::uint64_t>(f.attempts))
                           .take());
      }
      res.failed.push_back(std::move(f));
    }

    for (std::size_t i = 0; i < tw.runs.size(); ++i) {
      BranchResult run_r = settle(tw.run_cached[i], tw.runs[i]);
      if (journal != nullptr && !tw.run_cached[i]) {
        journal->append(run_key(tw, i), encode_branch_result(run_r));
      }
      if (provenance != nullptr && run_r.ok() &&
          run_r.outcome->provenance != nullptr) {
        provenance->add(run_r.outcome->provenance);
      }
      // Charged whether or not the run produced an outcome: a throwing
      // branch still executed (satellite fix — the old path skipped both
      // charges, so faulted searches under-reported found_after).
      cost.execution += static_cast<Duration>(run_r.attempts) * t_end;
      cost.branches += run_r.attempts;
      cost.retries += run_r.attempts - 1;
      if (trace::active()) {
        trace::Counters& c = trace::counters();
        c.branch_attempts.fetch_add(run_r.attempts, std::memory_order_relaxed);
        c.branch_retries.fetch_add(run_r.attempts - 1,
                                   std::memory_order_relaxed);
        c.classify_ns.fetch_add(
            static_cast<std::uint64_t>(run_r.attempts) * t_end,
            std::memory_order_relaxed);
      }
      if (!run_r.ok()) {
        FailedBranch f;
        f.action = tw.actions[i];
        f.had_action = true;
        f.tag = tw.tag;
        f.message_name = tw.name;
        f.injection_time = t0;
        f.attempts = run_r.attempts;
        f.error = run_r.error;
        if (trace::active()) {
          trace::counters().branch_quarantines.fetch_add(
              1, std::memory_order_relaxed);
          trace::instant("search", "quarantine", t0,
                         trace::Args()
                             .add("message", tw.name)
                             .add("branch", f.action.describe())
                             .add("attempts",
                                  static_cast<std::uint64_t>(f.attempts))
                             .take());
        }
        res.failed.push_back(std::move(f));
        continue;
      }
      if (!base_r.ok()) continue;  // outcome fine, but nothing to compare to

      const WindowPerf& base = base_r.outcome->windows[0];
      const WindowPerf& w0 = run_r.outcome->windows[0];
      const WindowPerf& w1 = run_r.outcome->windows[1];
      const std::uint32_t crashes = run_r.outcome->new_crashes;
      const double damage = compute_damage(sc.metric, base, w0);
      const std::uint64_t tampers = w0.tampers + w1.tampers;
      if (crashes == 0 && damage <= sc.delta && tampers == 0) continue;

      AttackReport rep;
      rep.action = tw.actions[i];
      rep.baseline_performance = base.value;
      rep.attacked_performance = w0.value;
      rep.recovery_performance = w1.value;
      rep.damage = damage;
      rep.crashed_nodes = crashes;
      rep.tamper_detected = w0.tampers + w1.tampers;
      rep.injection_time = t0;
      rep.provenance_key = run_key(tw, i);
      rep.baseline_key = base_key(tw);
      rep.effect = classify_effect(sc, base, w0, w1, crashes);
      fill_percentiles(rep, base, w0);
      rep.found_after = cost.total();
      res.attacks.push_back(std::move(rep));
    }
  }
  if (!harness_errors.empty()) throw AggregateBranchError(harness_errors);
  res.baseline_performance = benign.value;
  return res;
}

// ---------------------------------------------------------------------------
// Greedy (Fig. 2b)
// ---------------------------------------------------------------------------

SearchResult greedy_search(const Scenario& sc, const GreedyOptions& opt,
                           Journal* journal, ProvenanceStore* provenance,
                           RemoteBackend* remote) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);
  exec.set_remote(remote);
  const auto& points = exec.discover();

  SearchResult res;
  res.algorithm = "greedy";
  res.baseline_performance = exec.benign_performance().value;

  std::set<std::string> reported;
  bool found_new = true;
  int repetitions = 0;
  while (found_new &&
         (opt.max_repetitions == 0 || repetitions < opt.max_repetitions)) {
    ++repetitions;
    found_new = false;
    for (const auto& ip0 : points) {
      const wire::MessageSpec* spec = sc.schema->by_tag(ip0.tag);
      if (spec == nullptr) continue;
      std::vector<proxy::MaliciousAction> actions;
      for (auto& a : proxy::enumerate_actions(*spec, sc.actions)) {
        if (!reported.count(action_key(ip0.tag, a))) actions.push_back(std::move(a));
      }
      if (actions.empty()) continue;

      trace::Span point_span("search", "greedy-point");
      if (trace::active()) {
        point_span.at(ip0.time)
            .lasted(static_cast<Duration>(opt.confirmations) * sc.window)
            .arg("message", ip0.message_name)
            .arg("actions", static_cast<std::uint64_t>(actions.size()));
      }

      // Evaluate every action at `confirmations` consecutive injection
      // points; an attack must win (strongest damage, above Δ) every time.
      BranchExecutor::InjectionPoint ip = ip0;
      std::optional<std::size_t> winner;
      int streak = 0;
      WindowPerf winner_base;
      BranchExecutor::InjectionPoint winner_ip = ip0;
      for (int round = 0; round < opt.confirmations; ++round) {
        const std::optional<WindowPerf> base = exec.try_baseline(ip);
        if (!base) {
          streak = 0;
          break;  // baseline quarantined: this injection point is unusable
        }
        // One batch per round: greedy needs *every* action's damage at this
        // injection point before it can select, so the whole action set fans
        // out in parallel and the winner is picked from the merged results
        // (first index wins ties, matching the serial scan). Quarantined
        // branches sit the round out.
        const EvalSet es = evaluate_all(exec, ip, actions, *base);
        std::optional<std::size_t> best;
        double best_rank = 0;
        for (std::size_t i = 0; i < es.evals.size(); ++i) {
          if (!es.evals[i]) continue;
          if (!best || es.evals[i]->rank() > best_rank) {
            best = i;
            best_rank = es.evals[i]->rank();
          }
        }
        if (!best || best_rank <= sc.delta) {
          streak = 0;
          break;  // nothing effective at this injection point
        }
        if (winner && *winner == *best) {
          ++streak;
        } else {
          winner = best;
          streak = 1;
        }
        winner_base = *base;
        winner_ip = ip;
        if (round + 1 < opt.confirmations) {
          const std::optional<BranchExecutor::InjectionPoint> next =
              exec.try_continue_branch(ip, nullptr, sc.window);
          if (!next) {
            streak = 0;
            break;  // could not advance the benign branch: give up the point
          }
          ip = *next;
        }
      }

      if (winner && streak >= opt.confirmations) {
        // Two-window classification branch for the confirmed winner. If the
        // classification itself quarantines, the failure is already recorded;
        // marking the action reported keeps the scan from retrying it on
        // every later repetition.
        const BranchResult cls =
            exec.try_run_branch(winner_ip, &actions[*winner], 2);
        reported.insert(action_key(ip0.tag, actions[*winner]));
        if (cls.ok()) {
          AttackReport rep = make_report(sc, winner_ip, actions[*winner],
                                         winner_base, *cls.outcome);
          rep.found_after = exec.cost().total();
          rep.provenance_key =
              BranchExecutor::branch_key(winner_ip, &actions[*winner], 2);
          rep.baseline_key = exec.last_baseline_key(ip0.tag);
          TLOG_INFO("greedy: %s", rep.describe().c_str());
          if (trace::active()) {
            trace::instant(
                "search", "greedy-report", winner_ip.time,
                trace::Args()
                    .add("action", rep.action.describe())
                    .add("found_after",
                         static_cast<std::int64_t>(rep.found_after))
                    .take());
          }
          res.attacks.push_back(std::move(rep));
          found_new = true;
        }
      }

      // This point's branches are done; drop store pages only its transient
      // continuation snapshots referenced (live points stay pinned).
      exec.evict_unreferenced_pages();
    }
  }
  res.cost = exec.cost();
  res.failed = exec.failed();
  return res;
}

// ---------------------------------------------------------------------------
// Weighted greedy (Fig. 2c) — the paper's algorithm
// ---------------------------------------------------------------------------

SearchResult weighted_greedy_search(const Scenario& sc,
                                    const WeightedOptions& opt,
                                    ClusterWeights* learned, Journal* journal,
                                    ProvenanceStore* provenance,
                                    RemoteBackend* remote) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);
  exec.set_remote(remote);
  const auto& points = exec.discover();

  SearchResult res;
  res.algorithm = "weighted-greedy";
  res.baseline_performance = exec.benign_performance().value;

  ClusterWeights weights = opt.initial;

  for (const auto& ip : points) {
    const wire::MessageSpec* spec = sc.schema->by_tag(ip.tag);
    if (spec == nullptr) continue;
    const std::vector<proxy::MaliciousAction> actions =
        proxy::enumerate_actions(*spec, sc.actions);
    const std::optional<WindowPerf> base_opt = exec.try_baseline(ip);
    if (!base_opt) continue;  // baseline quarantined: skip the whole type
    const WindowPerf base = *base_opt;

    // The serial scan tries actions one at a time in descending cluster-
    // weight order. The *set* of branches it executes is order-independent:
    // every action is evaluated once, and every action whose damage exceeds
    // Δ is additionally classified. So both rounds fan out as batches, and
    // the weight-ordered scan below is a replay over precomputed outcomes —
    // report order, weight bumps and found_after are byte-identical to the
    // serial algorithm.
    const Duration cost_before = exec.cost().total();
    trace::Span scan_span("search", "weighted-scan");
    if (trace::active()) {
      scan_span.at(ip.time)
          .arg("message", spec->name)
          .arg("actions", static_cast<std::uint64_t>(actions.size()));
    }
    const EvalSet es = evaluate_all(exec, ip, actions, base);

    std::vector<const proxy::MaliciousAction*> qualifying;
    std::vector<std::size_t> qualifying_index(actions.size(), SIZE_MAX);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      if (es.evals[i] && es.evals[i]->rank() > sc.delta) {
        qualifying_index[i] = qualifying.size();
        qualifying.push_back(&actions[i]);
      }
    }
    const std::vector<BranchResult> classified =
        exec.run_branches(ip, qualifying, 2);
    scan_span.lasted(exec.cost().total() - cost_before)
        .arg("qualifying", static_cast<std::uint64_t>(qualifying.size()));

    // Replay: pick the not-yet-tried action from the highest-weight cluster
    // (stable: enumeration order breaks ties), so learned weights steer both
    // this message type's scan and every later one. `running` reconstructs
    // the serial cost clock — each pick pays every attempt of its evaluation
    // branch and, if it qualifies, of its classification branch, so
    // found_after is identical whether branches ran live or replayed from a
    // journal.
    const Duration eval_cost = sc.window + sc.branch_cost.load_cost;
    const Duration classify_cost = 2 * sc.window + sc.branch_cost.load_cost;
    Duration running = cost_before;
    std::vector<std::size_t> alive(actions.size());
    for (std::size_t i = 0; i < alive.size(); ++i) alive[i] = i;
    while (!alive.empty()) {
      std::size_t pick = 0;
      for (std::size_t i = 1; i < alive.size(); ++i) {
        if (weights[actions[alive[i]].cluster()] >
            weights[actions[alive[pick]].cluster()])
          pick = i;
      }
      const std::size_t idx = alive[pick];
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));

      running += static_cast<Duration>(es.results[idx].attempts) * eval_cost;
      if (!es.evals[idx]) continue;  // evaluation quarantined
      if (es.evals[idx]->rank() <= sc.delta) continue;

      // The moment an action qualifies as an attack, report it and raise its
      // cluster's weight. (The paper stops the scan here and lets the user
      // repeat the search; in a deterministic platform re-running with the
      // found attacks excluded is identical to continuing the scan, so we
      // continue — found_after still records when each attack surfaced.)
      const std::size_t qi = qualifying_index[idx];
      running +=
          static_cast<Duration>(classified[qi].attempts) * classify_cost;
      if (!classified[qi].ok()) continue;  // classification quarantined
      AttackReport rep =
          make_report(sc, ip, actions[idx], base, *classified[qi].outcome);
      rep.found_after = running;
      rep.provenance_key = BranchExecutor::branch_key(ip, &actions[idx], 2);
      rep.baseline_key = exec.last_baseline_key(ip.tag);
      weights[actions[idx].cluster()] += opt.bump;
      if (trace::active()) {
        trace::instant(
            "search", "weight-bump", ip.time,
            trace::Args()
                .add("cluster", proxy::cluster_name(actions[idx].cluster()))
                .add("weight", weights[actions[idx].cluster()])
                .add("found_after", static_cast<std::int64_t>(running))
                .take());
      }
      TLOG_INFO("weighted-greedy: %s", rep.describe().c_str());
      res.attacks.push_back(std::move(rep));
    }

    // Between injection points: evict store pages nothing references any
    // more, so occupancy tracks the live working set over a long search.
    exec.evict_unreferenced_pages();
  }

  res.cost = exec.cost();
  res.failed = exec.failed();
  if (learned != nullptr) *learned = weights;
  return res;
}

}  // namespace turret::search
