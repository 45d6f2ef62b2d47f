// BranchExecutor: the mechanics shared by all attack-finding algorithms —
// injection-point discovery, execution branching from snapshots, window
// measurement, and search-cost accounting.
//
// Determinism is load-bearing here: restoring a snapshot and running with no
// action armed reproduces the original execution exactly, so the baseline and
// every malicious branch diverge only by the armed action (paper §III-B/C).
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "proxy/proxy.h"
#include "search/report.h"
#include "search/scenario.h"

namespace turret::search {

class Journal;
struct BranchProvenance;
class ProvenanceStore;
class RemoteBackend;

/// Thrown by submit_branches (and the algorithms above it) when a cooperative
/// cancellation was requested — turret-run's SIGINT/SIGTERM handlers call
/// request_cancel(), the search unwinds at the next submit (weighted greedy
/// also checks between injection points' merges), and the journal is left
/// whole-batch consistent (a resumed search reproduces the uninterrupted
/// result byte-for-byte from any such prefix).
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("search cancelled") {}
};

/// Request cooperative cancellation of any in-progress search in this
/// process. Async-signal-safe (one relaxed atomic store).
void request_cancel() noexcept;
bool cancel_requested() noexcept;
/// Clears a pending cancellation request (tests run several searches in one
/// process).
void clear_cancel() noexcept;

/// Raised when branch futures fail outside the containment layer (which
/// catches everything a branch attempt can throw, so in practice: broken
/// promises, allocation failure in the error path). Aggregates every error
/// in the batch instead of dropping all but the first.
class AggregateBranchError : public std::runtime_error {
 public:
  explicit AggregateBranchError(const std::vector<std::string>& errors);
  std::size_t count() const { return count_; }

 private:
  std::size_t count_;
};

/// State of one metric window in a branch.
struct WindowPerf {
  double value = 0;
  std::uint64_t samples = 0;
  /// Authenticator verification failures honest guests counted inside the
  /// window (kTamperMetric). Zero in scenarios without a signed adapter.
  std::uint64_t tampers = 0;
  /// Bucket-quantile lower bounds of the metric's value series inside the
  /// window (common/metrics log2 histograms; metric units). Filled whenever
  /// the metric names a value series — mean and quantile metrics — so
  /// reports can show the baseline-vs-attack percentile table even when the
  /// damage metric is the mean. false for count metrics (rates have no
  /// per-sample distribution).
  bool has_percentiles = false;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
};

/// Measure one observation window [t0, t1) of `tb` under `metric`: the damage
/// value (rate / mean / quantile lower bound), the sample count, tamper
/// totals, and — for value metrics — the percentile fields.
WindowPerf measure_window(const MetricSpec& metric, const runtime::Testbed& tb,
                          Time t0, Time t1);

/// Relative damage of `perf` vs `base` under the metric's direction;
/// positive = worse. Windows with no samples under a lower-is-better metric
/// count as total damage (nothing completed at all).
double compute_damage(const MetricSpec& metric, const WindowPerf& base,
                      const WindowPerf& perf);

/// A freshly constructed testbed + proxy pair for one scenario, wired
/// together (proxy installed on the emulator ingress path).
struct ScenarioWorld {
  std::unique_ptr<runtime::Testbed> testbed;
  std::unique_ptr<proxy::MaliciousProxy> proxy;
};

ScenarioWorld make_scenario_world(const Scenario& sc);

class BranchExecutor {
 public:
  struct InjectionPoint {
    wire::TypeTag tag = 0;
    std::string message_name;
    Time time = 0;  ///< virtual time of the snapshot (just after first send)
    /// Null for a point reached by a full run from t = 0 (brute force): each
    /// branch then builds a fresh world, arms its action before the testbed
    /// starts and runs to time + windows * window.
    std::shared_ptr<const Bytes> snapshot;
    /// Pins the store pages `snapshot` references, so that
    /// evict_unreferenced_pages() between injection points never evicts a
    /// page a live (not yet decoded) blob still needs.
    std::shared_ptr<const std::vector<vm::PageHandle>> pages;

    bool from_start() const { return snapshot == nullptr; }
  };

  struct BranchOutcome {
    std::vector<WindowPerf> windows;
    std::uint32_t new_crashes = 0;  ///< benign guests crashed inside the branch
    /// Observability state harvested before the branch world was torn down;
    /// null unless a ProvenanceStore is attached and the branch ran live
    /// (journal replays execute nothing, so they carry no provenance).
    std::shared_ptr<const BranchProvenance> provenance;
  };

  /// One contained branch execution: the outcome when any attempt succeeded,
  /// otherwise a quarantine record (attempts made, last error).
  struct BranchResult {
    std::optional<BranchOutcome> outcome;
    std::uint32_t attempts = 1;
    std::string error;  ///< last failure; empty on success

    bool ok() const { return outcome.has_value(); }
  };

  explicit BranchExecutor(const Scenario& sc);

  /// Attach a write-ahead journal (nullptr detaches). Completed branch
  /// results are appended after each merge; results already recorded replay
  /// from the journal instead of executing, with identical cost charges, so
  /// a resumed search reproduces the uninterrupted SearchResult exactly.
  void set_journal(Journal* journal) { journal_ = journal; }

  /// Attach a provenance store (nullptr detaches). While attached, every live
  /// branch execution harvests its audit log, packet capture, and raw metric
  /// series; harvested branches are added to the store on the single-threaded
  /// merge path under their branch_key.
  void set_provenance(ProvenanceStore* store) { provenance_ = store; }

  /// Attach a remote execution backend (nullptr detaches). While attached and
  /// available(), run_branches dispatches live branches to it while the
  /// local pool works the same batch (each branch runs where it is claimed
  /// first); entries the backend could not place (no workers reachable,
  /// every worker died) degrade to local execution. Remote dispatch is
  /// skipped while a provenance store is attached (provenance is harvested
  /// in-process); the batch then runs on the local pool with identical
  /// results.
  void set_remote(RemoteBackend* remote) { remote_ = remote; }

  /// One contained branch execution from ip's snapshot (decoded through the
  /// cache) or, without one, from t = 0, *without* cost charging,
  /// journaling, or failure recording — the worker side of the distributed
  /// runtime. The coordinator merges the returned BranchResult through
  /// run_branches' normal bookkeeping, so a branch executed remotely charges
  /// and records exactly like a local one.
  BranchResult execute_unit(const InjectionPoint& ip,
                            const proxy::MaliciousAction* action, int windows);

  /// Identity of one (injection point, action, windows) branch — the key the
  /// journal and the provenance store share. A run from t = 0 keys apart
  /// from a snapshot branch with the same (tag, time, windows, action): it
  /// arms before the testbed starts, so it also mutates pre-warmup sends.
  static std::string branch_key(const InjectionPoint& ip,
                                const proxy::MaliciousAction* action,
                                int windows);

  /// branch_key of the baseline branch most recently cached for `tag`
  /// (empty if none) — reports pair an attack with the baseline actually
  /// compared against.
  std::string last_baseline_key(wire::TypeTag tag) const;

  /// Benign pass: runs the system for sc.duration and snapshots at the first
  /// send (>= warmup) of each message type by a malicious node. Points come
  /// back in first-send order. Idempotent (cached). With snapshots == false
  /// nothing is held, saved or charged for saves: each point only records
  /// the first-send time, and its branches run from t = 0.
  const std::vector<InjectionPoint>& discover(bool snapshots = true);

  /// Branch from `ip`, arm `action` (nullptr = baseline branch) and run
  /// `windows` observation windows of sc.window each. Charges
  /// attempt_cost(ip, windows) per attempt.
  /// Throws after retry exhaustion (use try_run_branch to contain instead).
  BranchOutcome run_branch(const InjectionPoint& ip,
                           const proxy::MaliciousAction* action, int windows);

  /// Contained form of run_branch: a failing branch is retried (fresh
  /// ScenarioWorld each attempt, every attempt charged) up to
  /// sc.fault.max_retries times; after exhaustion the result is quarantined —
  /// recorded in failed() — and returned instead of thrown.
  BranchResult try_run_branch(const InjectionPoint& ip,
                              const proxy::MaliciousAction* action,
                              int windows);

  /// A batch queued by submit_branches and not yet merged. Move-only. Its
  /// destructor waits for every branch it queued, so unwinding past an
  /// unmerged batch (CancelledError, a failed merge) never leaves a task
  /// running against the caller's actions.
  class PendingBatch {
   public:
    PendingBatch() = default;
    PendingBatch(PendingBatch&&) noexcept = default;
    PendingBatch& operator=(PendingBatch&& o) noexcept;
    ~PendingBatch();

    /// Has every branch of the batch finished? Never blocks.
    bool ready() const;

    /// Waits for the batch, then its results in input order, before any
    /// bookkeeping (nothing is charged, recorded or journaled yet). Throws
    /// AggregateBranchError when a task failed outside containment.
    const std::vector<BranchResult>& results();

   private:
    friend class BranchExecutor;
    struct State;
    void drain() noexcept;

    BranchExecutor* exec_ = nullptr;
    std::shared_ptr<State> state_;
  };

  /// Batch form of try_run_branch: one branch per entry of `actions`
  /// (nullptr = baseline branch), fanned out across a worker pool of
  /// default_jobs() threads. Results come back in input order and are
  /// byte-identical to running the same branches serially, regardless of
  /// worker count: each branch is an isolated ScenarioWorld restored from one
  /// shared immutable decoded snapshot, retries happen inside the owning
  /// worker, and cost accounting sums the same per-branch charges.
  /// Equivalent to merge_branches(submit_branches(...)).
  std::vector<BranchResult> run_branches(
      const InjectionPoint& ip,
      const std::vector<const proxy::MaliciousAction*>& actions, int windows);

  /// The first half of run_branches, on the calling thread: checks for
  /// cancellation, replays journaled entries, decodes the snapshot (cached;
  /// a point without one skips this) and queues the live branches on the
  /// pool. A remote backend is handed the batch too: a dispatcher thread
  /// ships it, in submit order, while the pool takes the branches not yet
  /// shipped. At default_jobs() == 1 the backend's share and then the rest
  /// run here, inline. `actions` must outlive the returned batch.
  PendingBatch submit_branches(
      const InjectionPoint& ip,
      std::vector<const proxy::MaliciousAction*> actions, int windows);

  /// The second half: waits for `batch`, then charges, records quarantines,
  /// adds provenance and journals fresh results in input order, and empties
  /// the handle. Batches merged in the order a serial search would have run
  /// them produce its cost clock, failed() order and journal exactly.
  std::vector<BranchResult> merge_branches(PendingBatch& batch);

  /// Virtual cost one attempt of a (ip, windows) branch charges: a snapshot
  /// load plus the windows, or — for a point without a snapshot — the full
  /// run from t = 0 to the end of the last window.
  Duration attempt_cost(const InjectionPoint& ip, int windows) const;

  /// Branches of submitted batches that have finished so far. A scheduler
  /// juggling several batches reads this, polls ready(), and — when nothing
  /// it waits for is ready — sleeps in wait_for_branches(seen) until another
  /// branch finishes.
  std::uint64_t finished_branches() const;
  void wait_for_branches(std::uint64_t seen) const;

  /// Benign branch performance over the first window from `ip` (cached).
  /// Throws after retry exhaustion.
  WindowPerf baseline(const InjectionPoint& ip);

  /// Contained baseline: nullopt when the baseline branch was quarantined
  /// (recorded in failed(); the injection point is unusable this search).
  std::optional<WindowPerf> try_baseline(const InjectionPoint& ip);

  /// Advance from `ip` by `dur` (benign or under `action`) and snapshot,
  /// yielding the next injection point for the same message type. Throws
  /// after retry exhaustion.
  InjectionPoint continue_branch(const InjectionPoint& ip,
                                 const proxy::MaliciousAction* action,
                                 Duration dur);

  /// Contained form of continue_branch: nullopt after retry exhaustion (the
  /// failure is recorded in failed()).
  std::optional<InjectionPoint> try_continue_branch(
      const InjectionPoint& ip, const proxy::MaliciousAction* action,
      Duration dur);

  SearchCost& cost() { return cost_; }
  const Scenario& scenario() const { return sc_; }

  /// Quarantined branches in execution order (retry exhaustion or runaway
  /// abort). Algorithms copy this into SearchResult::failed.
  const std::vector<FailedBranch>& failed() const { return failed_; }

  /// Whole-run benign performance over [warmup, warmup + window).
  WindowPerf benign_performance();

  /// Drop every page the shared PageStore holds that no snapshot pins —
  /// algorithms call this between injection points once a point's branches
  /// are done, so a long search's store occupancy tracks the live working
  /// set instead of growing monotonically. Updates the pagestore_pages /
  /// pagestore_bytes / pagestore_evicted counters.
  void evict_unreferenced_pages();

 private:
  /// One branch execution without cost accounting (the accounting is done by
  /// the caller so batch and serial paths charge identically). `snap` is the
  /// decoded ip.snapshot, or null to run from t = 0.
  BranchOutcome execute_branch(const runtime::DecodedSnapshot* snap,
                               const InjectionPoint& ip,
                               const proxy::MaliciousAction* action,
                               int windows) const;

  /// Containment loop around execute_branch: retries per sc.fault, converts
  /// every failure into a BranchResult. BudgetExceededError quarantines on
  /// the first hit (a deterministic runaway only reproduces under retry).
  BranchResult attempt_branch(const runtime::DecodedSnapshot* snap,
                              const InjectionPoint& ip,
                              const proxy::MaliciousAction* action,
                              int windows) const;

  /// Per-branch cost charges, multiplied out over retry attempts so replayed
  /// (journaled) and live branches account identically.
  void charge_attempts(const InjectionPoint& ip, std::uint32_t attempts,
                       int windows);

  void record_failure(const InjectionPoint& ip,
                      const proxy::MaliciousAction* action,
                      const BranchResult& r);

  /// Decoded form of ip.snapshot, parsed once per distinct blob and shared by
  /// every branch from that injection point. Queued branches hold their own
  /// reference, so clearing the cache never frees a snapshot in use.
  std::shared_ptr<const runtime::DecodedSnapshot> decoded(
      const InjectionPoint& ip);

  /// Contained decode: retries per sc.fault; nullptr after exhaustion, with
  /// `failure` describing the quarantine every pending branch inherits.
  std::shared_ptr<const runtime::DecodedSnapshot> try_decoded(
      const InjectionPoint& ip, BranchResult* failure);

  /// Worker pool sized to default_jobs(), rebuilt when the knob changes.
  ThreadPool& pool();

  /// Queue `body` on `on` as one more task of a batch, which does not
  /// finish before it; whatever it throws lands in `*error`.
  void queue_task(ThreadPool& on,
                  const std::shared_ptr<PendingBatch::State>& state,
                  std::string* error, std::function<void()> body);

  const Scenario& sc_;
  std::optional<std::vector<InjectionPoint>> points_;
  struct BaselineEntry {
    WindowPerf perf;
    std::string key;  ///< branch_key of the cached baseline branch
  };
  std::map<wire::TypeTag, BaselineEntry> baseline_cache_;
  std::optional<WindowPerf> benign_perf_;
  SearchCost cost_;

  struct DecodedEntry {
    std::shared_ptr<const Bytes> blob;  ///< byte-compare settles hash ties
    std::shared_ptr<const runtime::DecodedSnapshot> snapshot;
  };
  /// Keyed by blob content (Digest128 of the bytes), not blob address:
  /// continuation chains and journal replays that re-materialize an identical
  /// blob at a new address still hit. Each key holds a collision chain
  /// settled by byte comparison as the backstop; chain growth is surfaced in
  /// the hash_collisions / hash_chain_max counters.
  std::map<Digest128, std::vector<DecodedEntry>> decoded_cache_;
  std::size_t decoded_cache_entries_ = 0;

  /// Completion signal of queued branches: each finishing task decrements
  /// its batch's in-flight count and bumps finished_ under done_mu_. Declared
  /// before pool_, whose destructor still runs queued tasks.
  mutable std::mutex done_mu_;
  mutable std::condition_variable done_cv_;
  std::uint64_t finished_ = 0;

  std::unique_ptr<ThreadPool> pool_;
  /// One thread that ships batches to the remote backend, in submit order,
  /// while the caller goes on. Declared after pool_: its destructor still
  /// runs queued shipments, which may queue branches on the pool.
  std::unique_ptr<ThreadPool> dispatcher_;
  std::vector<FailedBranch> failed_;
  Journal* journal_ = nullptr;
  ProvenanceStore* provenance_ = nullptr;
  RemoteBackend* remote_ = nullptr;
};

/// A backend that executes branch batches outside this process (the
/// coordinator side lives in src/dist). The executor stays in charge of
/// journal replay, merge order, cost accounting, and quarantine; the backend
/// only turns (snapshot, action, windows) into BranchResults somewhere else.
class RemoteBackend {
 public:
  virtual ~RemoteBackend() = default;

  /// Is any worker reachable right now? Checked once per batch; false
  /// degrades the whole batch to the local pool. This and run_remote are
  /// called from one thread at a time, not always the searching thread.
  virtual bool available() = 0;

  /// Execute the `live` subset of a batch remotely. Returns one entry per
  /// element of `live`, in the same order: a BranchResult when the branch ran
  /// (or was quarantined) remotely, nullopt when the unit could not be placed
  /// or the local pool took it — the executor runs those locally. `claim(k)`
  /// must be called before live[k] is first shipped: false means the local
  /// pool, which works the same batch meanwhile, already took the unit, and
  /// the backend must skip it. `snap` is the decoded form of ip.snapshot
  /// (already cached by the executor), from which cow page deltas are
  /// extracted for shipping; null when ip has no snapshot (a run from t = 0
  /// ships neither blob nor pages).
  virtual std::vector<std::optional<BranchExecutor::BranchResult>> run_remote(
      const BranchExecutor::InjectionPoint& ip,
      const std::vector<const proxy::MaliciousAction*>& actions,
      const std::vector<std::size_t>& live, int windows,
      const runtime::DecodedSnapshot* snap,
      const std::function<bool(std::size_t)>& claim) = 0;
};

/// Journal payload encoding for one BranchResult.
Bytes encode_branch_result(const BranchExecutor::BranchResult& r);
BranchExecutor::BranchResult decode_branch_result(BytesView payload);

}  // namespace turret::search
