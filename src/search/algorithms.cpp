#include "search/algorithms.h"

#include <algorithm>
#include <deque>
#include <set>

#include "common/check.h"
#include "common/log.h"
#include "common/trace.h"

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

std::vector<std::optional<Evaluation>> evaluations(
    const Scenario& sc, const std::vector<BranchResult>& results,
    const WindowPerf& base) {
  std::vector<std::optional<Evaluation>> evals;
  evals.reserve(results.size());
  for (const BranchResult& r : results) {
    if (r.ok()) {
      evals.push_back(to_evaluation(sc, *r.outcome, base));
    } else {
      evals.push_back(std::nullopt);
    }
  }
  return evals;
}

std::vector<const proxy::MaliciousAction*> pointers(
    const std::vector<proxy::MaliciousAction>& actions) {
  std::vector<const proxy::MaliciousAction*> ptrs;
  ptrs.reserve(actions.size());
  for (const proxy::MaliciousAction& a : actions) ptrs.push_back(&a);
  return ptrs;
}

EvalSet evaluate_all(BranchExecutor& exec,
                     const BranchExecutor::InjectionPoint& ip,
                     const std::vector<proxy::MaliciousAction>& actions,
                     const WindowPerf& base) {
  EvalSet es;
  es.results = exec.run_branches(ip, pointers(actions), 1);
  es.evals = evaluations(exec.scenario(), es.results, base);
  return es;
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

/// One message type's brute-force runs: a baseline batch (one window) and
/// one two-window run per action, every one a full execution from t = 0.
struct TagRuns {
  const BranchExecutor::InjectionPoint* ip = nullptr;
  std::vector<proxy::MaliciousAction> actions;
  /// Last, so they drain before the actions they point at are destroyed.
  BranchExecutor::PendingBatch baseline;
  BranchExecutor::PendingBatch runs;
};

}  // namespace

// ---------------------------------------------------------------------------
// Brute force (Fig. 2a)
// ---------------------------------------------------------------------------

SearchResult brute_force_search(const Scenario& sc, Journal* journal,
                                ProvenanceStore* provenance,
                                RemoteBackend* remote) {
  BranchExecutor exec(sc);
  exec.set_journal(journal);
  exec.set_provenance(provenance);
  exec.set_remote(remote);
  // Brute force cannot branch: its injection points carry no snapshot, so
  // every branch below is a full execution from t = 0, charged as one.
  const auto& points = exec.discover(/*snapshots=*/false);

  SearchResult res;
  res.algorithm = "brute-force";
  res.baseline_performance = exec.benign_performance().value;

  // Merges replay the serial per-tag, per-action order, so cost,
  // quarantines, journal and found_after match a single-worker run.
  const auto merge = [&](TagRuns& t) {
    const BranchExecutor::InjectionPoint& ip = *t.ip;
    const BranchResult base = exec.merge_branches(t.baseline)[0];
    // `running` is the serial cost clock: each run pays all its attempts.
    Duration running = exec.cost().total();
    const Duration run_cost = exec.attempt_cost(ip, 2);
    const std::vector<BranchResult> runs = exec.merge_branches(t.runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      running += static_cast<Duration>(runs[i].attempts) * run_cost;
      // A quarantined baseline leaves nothing to compare against.
      if (!runs[i].ok() || !base.ok()) continue;
      const BranchExecutor::BranchOutcome& out = *runs[i].outcome;
      const WindowPerf& w0 = out.windows[0];
      const WindowPerf& w1 = out.windows[1];
      const WindowPerf& b = base.outcome->windows[0];
      // Unlike Evaluation::rank(), tampering in either window qualifies.
      if (out.new_crashes == 0 &&
          compute_damage(sc.metric, b, w0) <= sc.delta &&
          w0.tampers + w1.tampers == 0)
        continue;
      AttackReport rep = make_report(sc, ip, t.actions[i], b, out);
      rep.found_after = running;
      rep.provenance_key = BranchExecutor::branch_key(ip, &t.actions[i], 2);
      rep.baseline_key = BranchExecutor::branch_key(ip, nullptr, 1);
      res.attacks.push_back(std::move(rep));
    }
  };

  // Every execution is independent, so each message type is submitted
  // without waiting for the last; after each submit the leading types that
  // already finished are merged, so journal appends keep pace with
  // execution whether a submit queues its branches (the pool) or runs them
  // (inline at one job). A cancel (thrown by a submit) first merges, and so
  // journals, every type already submitted.
  std::deque<TagRuns> queued;
  const auto finished = [&] {
    return !queued.empty() && queued.front().baseline.ready() &&
           queued.front().runs.ready();
  };
  for (const auto& ip : points) {
    TagRuns t;
    t.ip = &ip;
    t.actions =
        proxy::enumerate_actions(*sc.schema->by_tag(ip.tag), sc.actions);
    try {
      t.baseline = exec.submit_branches(ip, {nullptr}, 1);
      t.runs = exec.submit_branches(ip, pointers(t.actions), 2);
    } catch (const CancelledError&) {
      for (TagRuns& done : queued) merge(done);
      throw;
    }
    queued.push_back(std::move(t));
    for (; finished(); queued.pop_front()) merge(queued.front());
  }
  for (; !queued.empty(); queued.pop_front()) merge(queued.front());
  res.cost = exec.cost();
  res.failed = exec.failed();
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

namespace {

/// One injection point's progress through the weighted-greedy pipeline:
/// three batches (baseline, one-window evaluations, two-window
/// classifications of the qualifying actions), each submitted once its
/// predecessor's results are in and merged strictly in search order.
struct PointWork {
  const BranchExecutor::InjectionPoint* ip = nullptr;
  std::vector<proxy::MaliciousAction> actions;
  std::vector<const proxy::MaliciousAction*> qualifying;
  std::vector<std::size_t> qualifying_index;
  std::optional<WindowPerf> base;  ///< set once the baseline succeeded
  std::vector<std::optional<Evaluation>> evals;
  std::vector<BranchResult> eval_results;  ///< merged evaluation batch
  std::vector<BranchResult> classified;    ///< merged classification batch
  Duration cost_before = 0;  ///< cost clock just after the baseline merge
  bool baseline_failed = false;
  int submitted = 0;  ///< batches submitted (1..3)
  int merged = 0;     ///< batches merged, in order
  std::unique_ptr<trace::Span> scan_span;
  /// Last, so they are destroyed — and drain their queued branches — first,
  /// while the actions those branches point at are still alive.
  BranchExecutor::PendingBatch batches[3];

  bool done() const { return merged == (baseline_failed ? 1 : 3); }
};

}  // namespace

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

  // The serial scan tries actions one at a time in descending cluster-weight
  // order. The *set* of branches it executes is order-independent: every
  // action is evaluated once, and every action whose damage exceeds Δ is
  // additionally classified. So each point's branches run as three batches,
  // pipelined across points on one pool queue: every baseline is submitted
  // up front, a point's evaluations once its baseline succeeded, its
  // qualifying classifications once its evaluations are in. Merges — cost,
  // quarantines, provenance, journal — happen in the serial order (point by
  // point: baseline, evaluations, classifications), and the weight-ordered
  // scan below each point's merges is a replay over precomputed outcomes, so
  // report order, weight bumps and found_after are byte-identical to the
  // serial algorithm.
  std::vector<PointWork> work;
  work.reserve(points.size());
  for (const auto& ip : points) {
    const wire::MessageSpec* spec = sc.schema->by_tag(ip.tag);
    if (spec == nullptr) continue;
    PointWork& w = work.emplace_back();
    w.ip = &ip;
    w.actions = proxy::enumerate_actions(*spec, sc.actions);
    w.batches[0] = exec.submit_branches(ip, {nullptr}, 1);
    w.submitted = 1;
  }

  // Submits `w`'s next batch once its latest one has finished; false when
  // there is nothing to do for `w` yet.
  const auto advance = [&](PointWork& w) {
    if (w.baseline_failed || w.submitted == 3 ||
        !w.batches[w.submitted - 1].ready())
      return false;
    const BranchExecutor::InjectionPoint& ip = *w.ip;
    if (w.submitted == 1) {
      const BranchResult& b = w.batches[0].results()[0];
      if (!b.ok()) {
        w.baseline_failed = true;  // baseline quarantined: skip the type
        return true;
      }
      w.base = b.outcome->windows[0];
      w.scan_span = std::make_unique<trace::Span>("search", "weighted-scan");
      if (trace::active()) {
        w.scan_span->at(ip.time)
            .arg("message", ip.message_name)
            .arg("actions", static_cast<std::uint64_t>(w.actions.size()));
      }
      w.batches[1] = exec.submit_branches(ip, pointers(w.actions), 1);
    } else {
      w.evals = evaluations(sc, w.batches[1].results(), *w.base);
      w.qualifying_index.assign(w.actions.size(), SIZE_MAX);
      for (std::size_t i = 0; i < w.actions.size(); ++i) {
        if (w.evals[i] && w.evals[i]->rank() > sc.delta) {
          w.qualifying_index[i] = w.qualifying.size();
          w.qualifying.push_back(&w.actions[i]);
        }
      }
      w.batches[2] = exec.submit_branches(ip, w.qualifying, 2);
    }
    ++w.submitted;
    return true;
  };

  // Replay: pick the not-yet-tried action from the highest-weight cluster
  // (stable: enumeration order breaks ties), so learned weights steer both
  // this message type's scan and every later one. `running` reconstructs the
  // serial cost clock — each pick pays every attempt of its evaluation branch
  // and, if it qualifies, of its classification branch, so found_after is
  // identical whether branches ran live or replayed from a journal.
  const auto scan = [&](PointWork& w) {
    const BranchExecutor::InjectionPoint& ip = *w.ip;
    const Duration eval_cost = exec.attempt_cost(ip, 1);
    const Duration classify_cost = exec.attempt_cost(ip, 2);
    const std::vector<proxy::MaliciousAction>& actions = w.actions;
    Duration running = w.cost_before;
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

      running +=
          static_cast<Duration>(w.eval_results[idx].attempts) * eval_cost;
      if (!w.evals[idx]) continue;  // evaluation quarantined
      if (w.evals[idx]->rank() <= sc.delta) continue;

      // The moment an action qualifies as an attack, report it and raise its
      // cluster's weight. (The paper stops the scan here and lets the user
      // repeat the search; in a deterministic platform re-running with the
      // found attacks excluded is identical to continuing the scan, so we
      // continue — found_after still records when each attack surfaced.)
      const BranchResult& cls = w.classified[w.qualifying_index[idx]];
      running += static_cast<Duration>(cls.attempts) * classify_cost;
      if (!cls.ok()) continue;  // classification quarantined
      AttackReport rep =
          make_report(sc, ip, actions[idx], *w.base, *cls.outcome);
      rep.found_after = running;
      rep.provenance_key = BranchExecutor::branch_key(ip, &actions[idx], 2);
      rep.baseline_key = BranchExecutor::branch_key(ip, nullptr, 1);
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
  };

  // Merges `w`'s next batch once it has finished and advance() has read it
  // (its successor is submitted or ruled out); false when it has to wait.
  const auto merge_next = [&](PointWork& w) {
    const int m = w.merged;
    const bool read = m + 1 < w.submitted || w.baseline_failed || m == 2;
    if (m >= w.submitted || !read || !w.batches[m].ready()) return false;
    if (w.merged == 0) {
      // Between points: a cancelled search stops on a whole-point boundary.
      if (cancel_requested()) throw CancelledError();
      exec.merge_branches(w.batches[0]);
      w.cost_before = exec.cost().total();
    } else if (w.merged == 1) {
      w.eval_results = exec.merge_branches(w.batches[1]);
    } else {
      w.classified = exec.merge_branches(w.batches[2]);
      if (trace::active()) {
        w.scan_span->lasted(exec.cost().total() - w.cost_before)
            .arg("qualifying", static_cast<std::uint64_t>(w.qualifying.size()));
      }
      w.scan_span.reset();
      scan(w);
    }
    ++w.merged;
    return true;
  };

  bool evict = false;
  std::size_t next = 0;  // first point not yet fully merged
  while (next < work.size()) {
    const std::uint64_t seen = exec.finished_branches();
    bool progress = false;
    for (std::size_t k = next; k < work.size(); ++k)
      progress = advance(work[k]) || progress;
    while (next < work.size() && merge_next(work[next])) {
      progress = true;
      if (work[next].done()) {
        evict = evict || !work[next].baseline_failed;
        ++next;
      }
    }
    if (!progress) exec.wait_for_branches(seen);
  }

  // Every branch is merged, none is in flight: evict store pages nothing
  // references any more, so occupancy tracks the live working set.
  if (evict) exec.evict_unreferenced_pages();

  res.cost = exec.cost();
  res.failed = exec.failed();
  if (learned != nullptr) *learned = weights;
  return res;
}

}  // namespace turret::search
