#include "search/executor.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/backoff.h"
#include "common/check.h"
#include "common/fault.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "search/journal.h"
#include "search/provenance.h"

namespace turret::search {

namespace {
// Cooperative cancellation flag: set from signal handlers, consumed at batch
// boundaries. Process-wide because signal handlers have no better scope.
std::atomic<bool> g_cancel{false};

/// Virtual run time of one attempt: the windows, plus — for a run from
/// t = 0 — everything before the injection point.
Duration run_length(const Scenario& sc,
                    const BranchExecutor::InjectionPoint& ip, int windows) {
  const Duration w = static_cast<Duration>(windows) * sc.window;
  return ip.from_start() ? ip.time + w : w;
}

/// Snapshot-load charge of one attempt: a run from t = 0 loads nothing.
Duration load_cost(const Scenario& sc,
                   const BranchExecutor::InjectionPoint& ip) {
  return ip.from_start() ? 0 : sc.branch_cost.load_cost;
}
}  // namespace

void request_cancel() noexcept {
  g_cancel.store(true, std::memory_order_relaxed);
}

bool cancel_requested() noexcept {
  return g_cancel.load(std::memory_order_relaxed);
}

void clear_cancel() noexcept { g_cancel.store(false, std::memory_order_relaxed); }

AggregateBranchError::AggregateBranchError(
    const std::vector<std::string>& errors)
    : std::runtime_error([&errors] {
        std::string what =
            std::to_string(errors.size()) + " branch error(s):";
        constexpr std::size_t kMaxListed = 8;
        for (std::size_t i = 0; i < errors.size() && i < kMaxListed; ++i) {
          what += "\n  ";
          what += errors[i];
        }
        if (errors.size() > kMaxListed) what += "\n  ...";
        return what;
      }()),
      count_(errors.size()) {}

Bytes encode_branch_result(const BranchExecutor::BranchResult& r) {
  serial::Writer w;
  w.boolean(r.ok());
  w.u32(r.attempts);
  w.str(r.error);
  if (r.ok()) {
    w.vec(r.outcome->windows, [](serial::Writer& ww, const WindowPerf& p) {
      ww.f64(p.value);
      ww.u64(p.samples);
      ww.u64(p.tampers);
      ww.boolean(p.has_percentiles);
      ww.f64(p.p50);
      ww.f64(p.p95);
      ww.f64(p.p99);
      ww.f64(p.p999);
    });
    w.u32(r.outcome->new_crashes);
  }
  return w.take();
}

BranchExecutor::BranchResult decode_branch_result(BytesView payload) {
  serial::Reader r(payload);
  BranchExecutor::BranchResult out;
  const bool ok = r.boolean();
  out.attempts = r.u32();
  out.error = r.str();
  if (ok) {
    BranchExecutor::BranchOutcome o;
    o.windows = r.vec<WindowPerf>([](serial::Reader& rr) {
      WindowPerf p;
      p.value = rr.f64();
      p.samples = rr.u64();
      p.tampers = rr.u64();
      p.has_percentiles = rr.boolean();
      p.p50 = rr.f64();
      p.p95 = rr.f64();
      p.p99 = rr.f64();
      p.p999 = rr.f64();
      return p;
    });
    o.new_crashes = r.u32();
    out.outcome = std::move(o);
  }
  TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in journal record");
  return out;
}

double compute_damage(const MetricSpec& metric, const WindowPerf& base,
                      const WindowPerf& perf) {
  if (metric.higher_is_better) {
    if (base.value <= 0) return 0;
    return (base.value - perf.value) / base.value;
  }
  // Lower is better (latency): a window that completed nothing is the worst
  // possible outcome, not a zero-latency miracle.
  if (perf.samples == 0 && base.samples > 0) return 1.0;
  if (base.value <= 0) return 0;
  return (perf.value - base.value) / base.value;
}

BranchExecutor::BranchExecutor(const Scenario& sc) : sc_(sc) {
  TURRET_CHECK_MSG(sc.schema != nullptr, "scenario needs a wire schema");
  TURRET_CHECK_MSG(sc.factory != nullptr, "scenario needs a guest factory");
  TURRET_CHECK_MSG(!sc.malicious.empty(), "scenario needs malicious nodes");
  // Every world of a search interns into this ONE store, or refs decoded in
  // one world would dangle in another.
  TURRET_CHECK_MSG(sc.testbed.snapshot.store != nullptr,
                   "scenario needs a PageStore in testbed.snapshot.store");
  // Copies of a Scenario share its store, so pages an earlier search left
  // behind would turn this search's first saves into dedup hits. Start from
  // the pages something still pins, so the snapshot_bytes_* and pagestore_*
  // counters do not depend on what ran before.
  sc.testbed.snapshot.store->evict_unreferenced();
}

ScenarioWorld make_scenario_world(const Scenario& sc) {
  ScenarioWorld w;
  w.testbed = std::make_unique<runtime::Testbed>(sc.testbed, sc.factory);
  w.proxy = std::make_unique<proxy::MaliciousProxy>(*sc.schema, sc.malicious,
                                                    sc.testbed.net.nodes);
  w.testbed->emulator().set_interceptor(w.proxy.get());
  if (sc.signed_adapter) w.proxy->set_signed_adapter(sc.signed_adapter.get());
  if (sc.testbed.net.capture.enabled)
    w.proxy->enable_audit(sc.testbed.net.capture.audit_capacity);
  return w;
}

WindowPerf measure_window(const MetricSpec& metric, const runtime::Testbed& tb,
                          Time t0, Time t1) {
  WindowPerf out;
  if (metric.kind == MetricSpec::Kind::kRate) {
    out.value = tb.metrics().rate(metric.name, t0, t1);
    out.samples =
        static_cast<std::uint64_t>(tb.metrics().total(metric.name, t0, t1));
  } else {
    const runtime::SeriesSummary s = tb.metrics().summary(metric.name, t0, t1);
    out.samples = s.count;
    const metrics::Histogram h =
        tb.metrics().window_histogram(metric.name, t0, t1);
    if (h.total() > 0) {
      out.has_percentiles = true;
      out.p50 = metrics::quantile_value(h, 0.50);
      out.p95 = metrics::quantile_value(h, 0.95);
      out.p99 = metrics::quantile_value(h, 0.99);
      out.p999 = metrics::quantile_value(h, 0.999);
    }
    out.value = metric.kind == MetricSpec::Kind::kQuantile
                    ? metrics::quantile_value(h, metric.quantile)
                    : s.mean();
  }
  out.tampers =
      static_cast<std::uint64_t>(tb.metrics().total(kTamperMetric, t0, t1));
  return out;
}

const std::vector<BranchExecutor::InjectionPoint>& BranchExecutor::discover(
    bool snapshots) {
  if (points_) return *points_;
  points_.emplace();

  ScenarioWorld w = make_scenario_world(sc_);
  // Observe first sends; snapshot at the end of the emulator step in which
  // the first send of a new type occurred. Every send of a fresh type within
  // that step is held across the snapshot — a broadcast is many sends, and a
  // branch's armed action must apply to all of them (a rare message like
  // View-Change may never be sent again inside the observation window).
  // Without snapshots nothing is held: a point is just its first-send time.
  std::set<wire::TypeTag> seen;
  std::vector<wire::TypeTag> fresh;
  w.proxy->set_observer([&](NodeId, NodeId, wire::TypeTag tag) -> bool {
    if (w.testbed->now() < sc_.warmup) return false;
    if (seen.insert(tag).second) {
      if (snapshots) {
        fresh.push_back(tag);
        return true;  // hold the triggering message across the snapshot
      }
      if (const wire::MessageSpec* spec = sc_.schema->by_tag(tag)) {
        InjectionPoint ip;
        ip.tag = tag;
        ip.message_name = spec->name;
        ip.time = w.testbed->now();
        points_->push_back(std::move(ip));
      }
      return false;
    }
    // Further sends of a just-captured type in this same step (the rest of
    // the broadcast): hold them too.
    return std::find(fresh.begin(), fresh.end(), tag) != fresh.end();
  });

  w.testbed->start();
  const Time horizon = sc_.duration;
  // Nothing is saved between steps: run straight to the horizon, events due
  // exactly at it included.
  if (!snapshots) w.testbed->run_until(horizon);
  while (w.testbed->now() < horizon) {
    const Time next = w.testbed->emulator().next_event_time();
    if (next < 0 || next > horizon) break;
    w.testbed->emulator().step();
    if (!fresh.empty()) {
      const Bytes snap = w.testbed->save_snapshot();
      auto shared = std::make_shared<const Bytes>(snap);
      for (wire::TypeTag tag : fresh) {
        const wire::MessageSpec* spec = sc_.schema->by_tag(tag);
        if (spec == nullptr) continue;  // traffic the schema doesn't describe
        InjectionPoint ip;
        ip.tag = tag;
        ip.message_name = spec->name;
        ip.time = w.testbed->now();
        ip.snapshot = shared;
        ip.pages = w.testbed->last_save_pages();
        points_->push_back(std::move(ip));
        TLOG_INFO("injection point: %s at %s", spec->name.c_str(),
                  format_time(w.testbed->now()).c_str());
      }
      fresh.clear();
      ++cost_.saves;
      cost_.snapshots += sc_.branch_cost.save_cost;
      if (trace::active())
        trace::counters().snapshot_saves.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  cost_.execution += sc_.duration;
  if (trace::active()) {
    trace::counters().discover_ns.fetch_add(
        static_cast<std::uint64_t>(sc_.duration), std::memory_order_relaxed);
    trace::Span("search", "discover")
        .at(0)
        .lasted(sc_.duration)
        .arg("points", static_cast<std::uint64_t>(points_->size()));
  }

  // Whole-run benign performance, reused by reports.
  benign_perf_ = measure_window(sc_.metric, *w.testbed, sc_.warmup,
                                sc_.warmup + sc_.window);
  if (provenance_ != nullptr) {
    provenance_->add(std::make_shared<const BranchProvenance>(
        harvest_provenance(w, sc_, "discover", 0, sc_.duration, 0)));
  }
  return *points_;
}

WindowPerf BranchExecutor::benign_performance() {
  discover();
  return *benign_perf_;
}

std::shared_ptr<const runtime::DecodedSnapshot> BranchExecutor::decoded(
    const InjectionPoint& ip) {
  TURRET_CHECK_MSG(!ip.from_start(), "injection point has no snapshot");
  const Bytes& blob = *ip.snapshot;
  Hasher128 hasher;
  hasher.update(BytesView{blob});
  const Digest128 key = hasher.digest();
  std::vector<DecodedEntry>& chain = decoded_cache_[key];
  const DecodedEntry* hit = nullptr;
  for (const DecodedEntry& e : chain) {
    if (*e.blob == blob) {
      hit = &e;
      break;
    }
  }
  if (trace::active()) {
    (hit != nullptr ? trace::counters().decode_hits
                    : trace::counters().decode_misses)
        .fetch_add(1, std::memory_order_relaxed);
  }
  if (hit == nullptr) {
    // Continuation chains produce a fresh blob per step; keep the cache from
    // growing without bound by dropping everything once it gets large (the
    // working set is the handful of points branched from right now). Queued
    // branches keep their own references, so nothing in use is freed.
    if (decoded_cache_entries_ >= 32) {
      decoded_cache_.clear();
      decoded_cache_entries_ = 0;
    }
    DecodedEntry e;
    e.blob = ip.snapshot;
    e.snapshot = std::make_shared<const runtime::DecodedSnapshot>(
        runtime::Testbed::decode_snapshot(*ip.snapshot,
                                          sc_.testbed.snapshot.store.get()));
    std::vector<DecodedEntry>& c = decoded_cache_[key];  // clear() invalidated
    c.push_back(std::move(e));
    ++decoded_cache_entries_;
    hit = &c.back();
    if (c.size() > 1 && trace::active()) {
      // Two distinct blobs under one 128-bit digest: the byte-compare chain
      // backstop caught a hash collision. Surface it so silent weakening of
      // the digest would show up in --json stats.
      trace::Counters& tc = trace::counters();
      tc.hash_collisions.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t prev =
          tc.hash_chain_max.load(std::memory_order_relaxed);
      while (prev < c.size() && !tc.hash_chain_max.compare_exchange_weak(
                                    prev, c.size(), std::memory_order_relaxed))
        ;
    }
  }
  return hit->snapshot;
}

ThreadPool& BranchExecutor::pool() {
  const unsigned jobs = default_jobs();
  if (pool_ == nullptr || pool_->size() != jobs)
    pool_ = std::make_unique<ThreadPool>(jobs);
  return *pool_;
}

std::shared_ptr<const runtime::DecodedSnapshot> BranchExecutor::try_decoded(
    const InjectionPoint& ip, BranchResult* failure) {
  const int max_attempts = 1 + std::max(0, sc_.fault.max_retries);
  for (int attempt = 1;; ++attempt) {
    try {
      return decoded(ip);
    } catch (const std::exception& e) {
      failure->attempts = static_cast<std::uint32_t>(attempt);
      failure->error = e.what();
    } catch (...) {
      failure->attempts = static_cast<std::uint32_t>(attempt);
      failure->error = "unknown error";
    }
    if (attempt >= max_attempts) return nullptr;
  }
}

BranchExecutor::BranchOutcome BranchExecutor::execute_branch(
    const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
    const proxy::MaliciousAction* action, int windows) const {
  ScenarioWorld w = make_scenario_world(sc_);
  w.testbed->emulator().set_event_budget(sc_.fault.max_branch_events);
  if (!ip.from_start()) w.testbed->load_snapshot(*snap);
  if (action != nullptr) w.proxy->arm(*action);

  const std::uint32_t crashed_before =
      static_cast<std::uint32_t>(w.testbed->crashed_nodes().size());
  if (ip.from_start()) w.testbed->start();
  w.testbed->run_until(ip.time + windows * sc_.window);

  BranchOutcome out;
  for (int i = 0; i < windows; ++i) {
    out.windows.push_back(measure_window(sc_.metric, *w.testbed,
                                         ip.time + i * sc_.window,
                                         ip.time + (i + 1) * sc_.window));
  }
  out.new_crashes =
      static_cast<std::uint32_t>(w.testbed->crashed_nodes().size()) -
      crashed_before;
  if (provenance_ != nullptr) {
    out.provenance = std::make_shared<const BranchProvenance>(
        harvest_provenance(w, sc_, branch_key(ip, action, windows), ip.time,
                           ip.time + windows * sc_.window, windows));
  }
  return out;
}

BranchExecutor::BranchResult BranchExecutor::attempt_branch(
    const runtime::DecodedSnapshot* snap, const InjectionPoint& ip,
    const proxy::MaliciousAction* action, int windows) const {
  BranchResult r;
  // The per-branch span: stamped with the branch's virtual extent (from the
  // injection time, or t = 0 without a snapshot, to the last window's end),
  // so its content — and therefore the sorted trace — is identical whether
  // the branch ran inline or on a pool worker.
  trace::Span span("search", "branch");
  if (trace::active()) {
    const Duration length = run_length(sc_, ip, windows);
    span.at(ip.time + static_cast<Duration>(windows) * sc_.window - length)
        .lasted(length)
        .arg("message", ip.message_name)
        .arg("action",
             action != nullptr ? action->describe() : std::string("baseline"))
        .arg("windows", static_cast<std::int64_t>(windows));
  }
  const int max_attempts = 1 + std::max(0, sc_.fault.max_retries);
  std::optional<Backoff> backoff;
  for (int attempt = 1;; ++attempt) {
    r.attempts = static_cast<std::uint32_t>(attempt);
    try {
      fault::inject(fault::kBranchExec);
      r.outcome = execute_branch(snap, ip, action, windows);
      r.error.clear();
      span.arg("attempts", static_cast<std::uint64_t>(r.attempts))
          .arg("outcome", "ok");
      return r;
    } catch (const netem::BudgetExceededError& e) {
      // A runaway branch is deterministic: retrying replays the runaway.
      // Quarantine on the first hit and give the worker back to the pool.
      r.error = e.what();
      if (trace::active())
        trace::counters().budget_aborts.fetch_add(1, std::memory_order_relaxed);
      span.arg("attempts", static_cast<std::uint64_t>(r.attempts))
          .arg("outcome", "budget");
      return r;
    } catch (const std::exception& e) {
      r.error = e.what();
    } catch (...) {
      r.error = "unknown error";
    }
    if (attempt >= max_attempts) {
      span.arg("attempts", static_cast<std::uint64_t>(r.attempts))
          .arg("outcome", "quarantined");
      return r;
    }
    // Wall-clock pause before the next attempt (never charged to SearchCost:
    // the virtual clock does not advance while we sleep). Constructed lazily
    // — the success path never touches it — and seeded per (scenario,
    // injection time) so concurrent branches desynchronize deterministically.
    if (!backoff) {
      backoff.emplace(sc_.fault.retry_backoff,
                      Rng(sc_.testbed.seed ^
                          static_cast<std::uint64_t>(ip.time)));
    }
    backoff->sleep();
  }
}

Duration BranchExecutor::attempt_cost(const InjectionPoint& ip,
                                      int windows) const {
  return load_cost(sc_, ip) + run_length(sc_, ip, windows);
}

void BranchExecutor::charge_attempts(const InjectionPoint& ip,
                                     std::uint32_t attempts, int windows) {
  // A run from t = 0 loads nothing: brute force's cost model is a full
  // execution per branch attempt.
  const std::uint32_t loads = ip.from_start() ? 0 : attempts;
  const std::uint64_t exec =
      static_cast<std::uint64_t>(attempts) * run_length(sc_, ip, windows);
  cost_.branches += attempts;
  cost_.loads += loads;
  cost_.retries += attempts - 1;
  cost_.snapshots += static_cast<Duration>(attempts) * load_cost(sc_, ip);
  cost_.execution += static_cast<Duration>(exec);
  if (trace::active()) {
    // Mirrored at the exact cost-charging site so telemetry totals provably
    // equal SearchCost (asserted under faults by test_fault_tolerance).
    trace::Counters& c = trace::counters();
    c.branch_attempts.fetch_add(attempts, std::memory_order_relaxed);
    c.branch_retries.fetch_add(attempts - 1, std::memory_order_relaxed);
    c.snapshot_loads.fetch_add(loads, std::memory_order_relaxed);
    (windows == 1 ? c.evaluate_ns : c.classify_ns)
        .fetch_add(exec, std::memory_order_relaxed);
  }
}

void BranchExecutor::record_failure(const InjectionPoint& ip,
                                    const proxy::MaliciousAction* action,
                                    const BranchResult& r) {
  FailedBranch f;
  f.had_action = action != nullptr;
  if (action != nullptr) f.action = *action;
  f.tag = ip.tag;
  f.message_name = ip.message_name;
  f.injection_time = ip.time;
  f.attempts = r.attempts;
  f.error = r.error;
  TLOG_INFO("quarantined: %s", f.describe().c_str());
  if (trace::active()) {
    trace::counters().branch_quarantines.fetch_add(1,
                                                   std::memory_order_relaxed);
    trace::instant("search", "quarantine", ip.time,
                   trace::Args()
                       .add("message", ip.message_name)
                       .add("branch", f.had_action
                                          ? f.action.describe()
                                          : f.message_name + " baseline")
                       .add("attempts", static_cast<std::uint64_t>(f.attempts))
                       .take());
  }
  failed_.push_back(std::move(f));
}

std::string BranchExecutor::branch_key(const InjectionPoint& ip,
                                       const proxy::MaliciousAction* action,
                                       int windows) {
  return (ip.from_start() ? "f|" : "b|") + std::to_string(ip.tag) +
         "|" + std::to_string(ip.time) + "|" + std::to_string(windows) + "|" +
         (action != nullptr ? action->describe() : "-");
}

BranchExecutor::BranchResult BranchExecutor::execute_unit(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  TURRET_CHECK(windows >= 1);
  // No cost charging, journaling, or failure recording here: the coordinator
  // merges this result through run_branches' bookkeeping loop, so the charge
  // site is the same one a local branch uses. A decode failure produces the
  // same quarantine record the local path would share across the batch.
  if (ip.from_start()) return attempt_branch(nullptr, ip, action, windows);
  BranchResult decode_failure;
  const std::shared_ptr<const runtime::DecodedSnapshot> snap =
      try_decoded(ip, &decode_failure);
  if (snap == nullptr) return decode_failure;
  return attempt_branch(snap.get(), ip, action, windows);
}

namespace {
/// Who runs an entry of a batch with a remote backend: whoever moves it off
/// kFree first executes it.
enum : std::uint8_t { kFree, kLocal, kRemote };
}  // namespace

/// What a PendingBatch shares with the tasks it queued: each task writes
/// only its own `out` / `errors` slot, then counts itself finished under the
/// executor's done_mu_, which also guards `in_flight`.
struct BranchExecutor::PendingBatch::State {
  InjectionPoint ip;
  std::vector<const proxy::MaliciousAction*> actions;
  int windows = 1;
  std::vector<BranchResult> out;
  std::vector<bool> replayed;
  std::vector<std::string> errors;  ///< per entry: harness-level task failure
  std::size_t in_flight = 0;
  /// With a remote backend: who runs each entry (kLocal or kRemote).
  std::unique_ptr<std::atomic<std::uint8_t>[]> claims;
  std::string remote_error;  ///< the shipment's harness-level failure

  bool claim(std::size_t i, std::uint8_t by) {
    std::uint8_t free = kFree;
    return claims[i].compare_exchange_strong(free, by);
  }
};

BranchExecutor::PendingBatch& BranchExecutor::PendingBatch::operator=(
    PendingBatch&& o) noexcept {
  if (this != &o) {
    drain();
    exec_ = o.exec_;
    state_ = std::move(o.state_);
  }
  return *this;
}

BranchExecutor::PendingBatch::~PendingBatch() { drain(); }

void BranchExecutor::PendingBatch::drain() noexcept {
  if (state_ == nullptr) return;
  std::unique_lock<std::mutex> lock(exec_->done_mu_);
  exec_->done_cv_.wait(lock, [this] { return state_->in_flight == 0; });
}

bool BranchExecutor::PendingBatch::ready() const {
  if (state_ == nullptr) return true;
  std::lock_guard<std::mutex> lock(exec_->done_mu_);
  return state_->in_flight == 0;
}

const std::vector<BranchExecutor::BranchResult>&
BranchExecutor::PendingBatch::results() {
  TURRET_CHECK_MSG(state_ != nullptr, "results() of an empty or merged batch");
  drain();
  // attempt_branch contains everything a branch can throw, so a task only
  // fails on harness-level errors (allocation failure in the error path).
  // Every one is reported, not just the first.
  std::vector<std::string> errors;
  for (const std::string& e : state_->errors) {
    if (!e.empty()) errors.push_back(e);
  }
  if (!state_->remote_error.empty()) errors.push_back(state_->remote_error);
  if (!errors.empty()) throw AggregateBranchError(errors);
  return state_->out;
}

std::uint64_t BranchExecutor::finished_branches() const {
  std::lock_guard<std::mutex> lock(done_mu_);
  return finished_;
}

void BranchExecutor::wait_for_branches(std::uint64_t seen) const {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this, seen] { return finished_ != seen; });
}

std::vector<BranchExecutor::BranchResult> BranchExecutor::run_branches(
    const InjectionPoint& ip,
    const std::vector<const proxy::MaliciousAction*>& actions, int windows) {
  PendingBatch batch = submit_branches(ip, actions, windows);
  return merge_branches(batch);
}

BranchExecutor::PendingBatch BranchExecutor::submit_branches(
    const InjectionPoint& ip,
    std::vector<const proxy::MaliciousAction*> actions, int windows) {
  TURRET_CHECK(windows >= 1);
  // Cancellation is consumed only at submits and merges: a batch that was
  // submitted runs to completion, and merges journal whole batches in
  // order, so any interrupted journal is a clean prefix and --resume
  // reproduces the uninterrupted result.
  if (cancel_requested()) throw CancelledError();
  PendingBatch batch;
  batch.exec_ = this;
  batch.state_ = std::make_shared<PendingBatch::State>();
  PendingBatch::State& st = *batch.state_;
  st.ip = ip;
  st.actions = std::move(actions);
  st.windows = windows;
  const std::size_t n = st.actions.size();
  st.out.resize(n);
  st.replayed.assign(n, false);
  st.errors.resize(n);

  // Resume: consume journaled results first (in input order, which matches
  // the order the interrupted run appended them). Only the misses execute.
  std::vector<std::size_t> live;
  live.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (journal_ != nullptr) {
      const std::string key = branch_key(ip, st.actions[i], windows);
      if (auto rec = journal_->replay(key)) {
        st.out[i] = decode_branch_result(*rec);
        st.replayed[i] = true;
        if (trace::active()) {
          trace::counters().journal_replays.fetch_add(
              1, std::memory_order_relaxed);
          trace::instant("search", "journal-replay", ip.time,
                         trace::Args().add("key", key).take());
        }
        continue;
      }
    }
    live.push_back(i);
  }
  if (live.empty()) return batch;

  // A point without a snapshot runs from t = 0: nothing to decode.
  std::shared_ptr<const runtime::DecodedSnapshot> snap;
  if (!ip.from_start()) {
    BranchResult decode_failure;
    snap = try_decoded(ip, &decode_failure);
    if (snap == nullptr) {
      // The injection point's snapshot is unusable: every pending branch
      // inherits the decode failure as its quarantine record.
      for (const std::size_t i : live) st.out[i] = decode_failure;
      return batch;
    }
  }

  // Remote dispatch: a remote backend, when attached, is handed every live
  // branch while the local pool works the same batch; each branch runs
  // wherever it is claimed first, and what the backend could not place (no
  // workers, every worker died mid-batch) degrades to local. Results are
  // byte-identical either way, because workers run the same attempt_branch
  // against the same decoded snapshot and the merge is input-order
  // regardless. Provenance harvesting is in-process-only, so it forces
  // local.
  const bool shared = remote_ != nullptr && provenance_ == nullptr;
  if (remote_ != nullptr && !shared && trace::active()) {
    trace::counters().dist_local_fallbacks.fetch_add(
        live.size(), std::memory_order_relaxed);
  }
  if (shared) st.claims = std::make_unique<std::atomic<std::uint8_t>[]>(n);
  // The backend's share of the batch; returns the entries it did not run.
  const auto ship = [this, state = batch.state_, snap, live] {
    std::vector<std::size_t> local = live;
    if (remote_->available()) {
      const auto remote_out = remote_->run_remote(
          state->ip, state->actions, live, state->windows, snap.get(),
          [&](std::size_t k) { return state->claim(live[k], kRemote); });
      TURRET_CHECK_MSG(remote_out.size() == live.size(),
                       "remote backend returned a mismatched batch");
      local.clear();
      for (std::size_t k = 0; k < live.size(); ++k) {
        if (remote_out[k].has_value()) {
          state->out[live[k]] = *remote_out[k];
        } else {
          local.push_back(live[k]);
        }
      }
    }
    if (!local.empty() && trace::active()) {
      trace::counters().dist_local_fallbacks.fetch_add(
          local.size(), std::memory_order_relaxed);
    }
    return local;
  };

  if (default_jobs() <= 1) {
    // One worker: the calling thread is it, and its branch time is that
    // worker's busy time.
    const std::vector<std::size_t> local = shared ? ship() : live;
    const trace::BusyScope busy;
    for (const std::size_t i : local)
      st.out[i] = attempt_branch(snap.get(), st.ip, st.actions[i], windows);
    return batch;
  }
  // Even a one-branch batch is queued: the caller may be pipelining
  // several batches, and an inline run would idle every other worker. A
  // task that must `claim` its entry stands down if the backend took it.
  // Each task holds its own references to the batch state and the decoded
  // snapshot: the decode cache may drop its entry before the task runs.
  const auto queue = [this, workers = &pool(), state = batch.state_,
                      snap](std::size_t i, bool claim) {
    queue_task(*workers, state, &state->errors[i], [=, this] {
      const trace::BusyScope busy;
      if (!claim || state->claim(i, kLocal))
        state->out[i] = attempt_branch(snap.get(), state->ip,
                                       state->actions[i], state->windows);
    });
  };
  for (const std::size_t i : live) queue(i, shared);
  if (shared) {
    // One dispatcher thread ships batches in submit order while the caller
    // goes on, so the pool always has the next batches queued.
    if (dispatcher_ == nullptr) dispatcher_ = std::make_unique<ThreadPool>(1);
    queue_task(*dispatcher_, batch.state_, &st.remote_error,
               [state = batch.state_, ship, queue] {
                 // Claimed but never placed: its own task stood down.
                 for (const std::size_t i : ship())
                   if (state->claims[i].load() == kRemote) queue(i, false);
               });
  }
  return batch;
}

void BranchExecutor::queue_task(
    ThreadPool& on, const std::shared_ptr<PendingBatch::State>& state,
    std::string* error, std::function<void()> body) {
  // Counted before it is queued, so no drain can miss it.
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ++state->in_flight;
  }
  const auto task = [this, state, error, body = std::move(body)] {
    try {
      body();
    } catch (const std::exception& e) {
      *error = e.what();
    } catch (...) {
      *error = "unknown error";
    }
    {
      std::lock_guard<std::mutex> lock(done_mu_);
      --state->in_flight;
      ++finished_;
    }
    done_cv_.notify_all();
  };
  try {
    on.submit(task);
  } catch (...) {
    // Never queued: uncount it, or the batch's drain would wait forever.
    std::lock_guard<std::mutex> lock(done_mu_);
    --state->in_flight;
    throw;
  }
}

std::vector<BranchExecutor::BranchResult> BranchExecutor::merge_branches(
    PendingBatch& batch) {
  TURRET_CHECK_MSG(batch.exec_ == this && batch.state_ != nullptr,
                   "merge of an empty, merged or foreign batch");
  batch.results();
  const std::shared_ptr<PendingBatch::State> state = std::move(batch.state_);
  PendingBatch::State& st = *state;

  // Deterministic bookkeeping in input order: per-branch charges are
  // run_branch's multiplied over attempts (replayed entries charge the
  // attempts they recorded), quarantines are recorded, and fresh results are
  // journaled. Integer sums are order-independent, so serial and parallel
  // runs account the same cost.
  for (std::size_t i = 0; i < st.actions.size(); ++i) {
    const BranchResult& r = st.out[i];
    charge_attempts(st.ip, r.attempts, st.windows);
    if (!r.ok()) record_failure(st.ip, st.actions[i], r);
    if (provenance_ != nullptr && r.ok() && r.outcome->provenance != nullptr) {
      provenance_->add(r.outcome->provenance);
    }
    if (journal_ != nullptr && !st.replayed[i]) {
      journal_->append(branch_key(st.ip, st.actions[i], st.windows),
                       encode_branch_result(r));
    }
  }
  return std::move(st.out);
}

void BranchExecutor::evict_unreferenced_pages() {
  const std::shared_ptr<vm::PageStore>& store = sc_.testbed.snapshot.store;
  const std::size_t evicted = store->evict_unreferenced();
  if (trace::active()) {
    trace::Counters& c = trace::counters();
    const vm::PageStoreStats s = store->stats();
    c.pagestore_evicted.fetch_add(evicted, std::memory_order_relaxed);
    c.pagestore_pages.store(s.stored_pages, std::memory_order_relaxed);
    c.pagestore_bytes.store(s.stored_bytes(), std::memory_order_relaxed);
  }
}

BranchExecutor::BranchResult BranchExecutor::try_run_branch(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  return run_branches(ip, {action}, windows)[0];
}

BranchExecutor::BranchOutcome BranchExecutor::run_branch(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    int windows) {
  BranchResult r = try_run_branch(ip, action, windows);
  if (!r.ok()) {
    throw std::runtime_error("branch quarantined after " +
                             std::to_string(r.attempts) +
                             " attempt(s): " + r.error);
  }
  return *std::move(r.outcome);
}

WindowPerf BranchExecutor::baseline(const InjectionPoint& ip) {
  auto it = baseline_cache_.find(ip.tag);
  if (it != baseline_cache_.end()) return it->second.perf;
  const BranchOutcome out = run_branch(ip, nullptr, 1);
  baseline_cache_[ip.tag] = {out.windows[0], branch_key(ip, nullptr, 1)};
  return out.windows[0];
}

std::optional<WindowPerf> BranchExecutor::try_baseline(
    const InjectionPoint& ip) {
  auto it = baseline_cache_.find(ip.tag);
  if (it != baseline_cache_.end()) return it->second.perf;
  BranchResult r = try_run_branch(ip, nullptr, 1);
  if (!r.ok()) return std::nullopt;  // quarantine recorded by run_branches
  baseline_cache_[ip.tag] = {r.outcome->windows[0], branch_key(ip, nullptr, 1)};
  return r.outcome->windows[0];
}

std::string BranchExecutor::last_baseline_key(wire::TypeTag tag) const {
  auto it = baseline_cache_.find(tag);
  return it != baseline_cache_.end() ? it->second.key : std::string();
}

std::optional<BranchExecutor::InjectionPoint>
BranchExecutor::try_continue_branch(const InjectionPoint& ip,
                                    const proxy::MaliciousAction* action,
                                    Duration dur) {
  BranchResult failure;
  const std::shared_ptr<const runtime::DecodedSnapshot> snap =
      try_decoded(ip, &failure);
  const int max_attempts = 1 + std::max(0, sc_.fault.max_retries);
  std::optional<InjectionPoint> next;
  std::uint32_t attempts = failure.attempts;

  if (snap != nullptr) {
    for (int attempt = 1;; ++attempt) {
      attempts = static_cast<std::uint32_t>(attempt);
      try {
        ScenarioWorld w = make_scenario_world(sc_);
        w.testbed->emulator().set_event_budget(sc_.fault.max_branch_events);
        w.testbed->load_snapshot(*snap);
        if (action != nullptr) w.proxy->arm(*action);
        w.testbed->run_until(ip.time + dur);
        w.proxy->disarm();

        InjectionPoint n;
        n.tag = ip.tag;
        n.message_name = ip.message_name;
        n.time = w.testbed->now();
        n.snapshot = std::make_shared<const Bytes>(w.testbed->save_snapshot());
        n.pages = w.testbed->last_save_pages();
        next = std::move(n);
        break;
      } catch (const netem::BudgetExceededError& e) {
        failure.error = e.what();
        if (trace::active())
          trace::counters().budget_aborts.fetch_add(1,
                                                    std::memory_order_relaxed);
        break;  // deterministic runaway: no point retrying
      } catch (const std::exception& e) {
        failure.error = e.what();
      } catch (...) {
        failure.error = "unknown error";
      }
      if (attempt >= max_attempts) break;
    }
  }

  // Charged per attempt, mirroring the serial charges of a successful
  // continuation so resume replays (which re-execute continuations live)
  // account identically.
  cost_.loads += attempts;
  cost_.saves += attempts;
  cost_.retries += attempts - 1;
  cost_.snapshots += static_cast<Duration>(attempts) *
                     (sc_.branch_cost.load_cost + sc_.branch_cost.save_cost);
  cost_.execution += static_cast<Duration>(attempts) * dur;
  if (trace::active()) {
    trace::Counters& c = trace::counters();
    c.snapshot_loads.fetch_add(attempts, std::memory_order_relaxed);
    c.snapshot_saves.fetch_add(attempts, std::memory_order_relaxed);
    c.branch_retries.fetch_add(attempts - 1, std::memory_order_relaxed);
    c.advance_ns.fetch_add(static_cast<std::uint64_t>(attempts) * dur,
                           std::memory_order_relaxed);
    trace::Span("search", "advance")
        .at(ip.time)
        .lasted(dur)
        .arg("message", ip.message_name)
        .arg("action",
             action != nullptr ? action->describe() : std::string("baseline"))
        .arg("attempts", static_cast<std::uint64_t>(attempts))
        .arg("outcome", next ? "ok" : "quarantined");
  }

  if (!next) {
    failure.attempts = attempts;
    record_failure(ip, action, failure);
    return std::nullopt;
  }
  // A continuation invalidates the cached baseline only for branches from the
  // *new* point; the cache is keyed by tag, so refresh lazily.
  baseline_cache_.erase(ip.tag);
  return next;
}

BranchExecutor::InjectionPoint BranchExecutor::continue_branch(
    const InjectionPoint& ip, const proxy::MaliciousAction* action,
    Duration dur) {
  std::optional<InjectionPoint> next = try_continue_branch(ip, action, dur);
  if (!next) {
    throw std::runtime_error("continuation quarantined: " +
                             failed_.back().error);
  }
  return *std::move(next);
}

}  // namespace turret::search
