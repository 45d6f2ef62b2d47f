// Attack-finding layer tests: injection-point discovery, branch determinism,
// damage computation, and the three algorithms on a fast synthetic system.
#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/executor.h"

namespace turret::search {
namespace {

// A deliberately tiny, fast system for search tests: a "ticker" client sends
// Work to a server every 5 ms; the server acks; each ack counts one update.
// Dropping or delaying Work obviously hurts throughput; the Work message has
// an i32 count field the server trusts (crash surface).
const wire::Schema& toy_schema() {
  static const wire::Schema s = wire::parse_schema(R"(
protocol toy;
message Work = 1 {
  u64 seq;
  i32 count;
}
message Ack = 2 {
  u64 seq;
}
)");
  return s;
}

struct ToyServer final : vm::GuestNode {
  void start(vm::GuestContext&) override {}
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() != 1) return;
    const std::uint64_t seq = r.u64();
    const std::int32_t count = r.i32();
    if (count < 0) throw vm::GuestFault("negative count trusted");
    ctx.send(src, wire::MessageWriter(2).u64(seq).take());
  }
  void on_timer(vm::GuestContext&, std::uint64_t) override {}
  void save(serial::Writer&) const override {}
  void load(serial::Reader&) override {}
  std::string_view kind() const override { return "toy-server"; }
};

struct ToyClient final : vm::GuestNode {
  std::uint64_t seq = 0;
  void start(vm::GuestContext& ctx) override { ctx.set_timer(1, 5 * kMillisecond); }
  void on_message(vm::GuestContext& ctx, NodeId, BytesView m) override {
    wire::MessageReader r(m);
    if (r.tag() == 2) ctx.count("updates");
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t) override {
    ctx.send(1, wire::MessageWriter(1).u64(++seq).i32(1).take());
    ctx.set_timer(1, 5 * kMillisecond);
  }
  void save(serial::Writer& w) const override { w.u64(seq); }
  void load(serial::Reader& r) override { seq = r.u64(); }
  std::string_view kind() const override { return "toy-client"; }
};

Scenario toy_scenario() {
  Scenario sc;
  sc.system_name = "toy";
  sc.schema = &toy_schema();
  sc.testbed.net.nodes = 2;
  sc.testbed.net.default_link.delay = kMillisecond;
  sc.factory = [](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    if (id == 0) return std::make_unique<ToyClient>();
    return std::make_unique<ToyServer>();
  };
  sc.malicious = {0};  // the client is the compromised sender
  sc.metric.name = "updates";
  sc.metric.kind = MetricSpec::Kind::kRate;
  sc.warmup = 500 * kMillisecond;
  sc.duration = 3 * kSecond;
  sc.window = kSecond;
  sc.delta = 0.1;
  // Shrink the action space so tests stay fast.
  sc.actions.delays = {500 * kMillisecond};
  sc.actions.drop_probabilities = {1.0};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  return sc;
}

TEST(DamageModel, HigherIsBetter) {
  MetricSpec m;
  m.higher_is_better = true;
  EXPECT_DOUBLE_EQ(compute_damage(m, {100, 100}, {50, 50}), 0.5);
  EXPECT_DOUBLE_EQ(compute_damage(m, {100, 100}, {100, 100}), 0.0);
  EXPECT_DOUBLE_EQ(compute_damage(m, {100, 100}, {0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(compute_damage(m, {0, 0}, {50, 50}), 0.0);  // no baseline
  EXPECT_LT(compute_damage(m, {100, 100}, {120, 120}), 0.0);   // improved
}

TEST(DamageModel, LowerIsBetterTreatsSilenceAsTotalDamage) {
  MetricSpec m;
  m.higher_is_better = false;
  EXPECT_DOUBLE_EQ(compute_damage(m, {4.0, 100}, {6.0, 100}), 0.5);
  EXPECT_DOUBLE_EQ(compute_damage(m, {4.0, 100}, {0.0, 0}), 1.0);
}

TEST(Executor, DiscoversInjectionPointsInFirstSendOrder) {
  const Scenario sc = toy_scenario();
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  ASSERT_EQ(points.size(), 1u);  // the malicious client only sends Work
  EXPECT_EQ(points[0].message_name, "Work");
  EXPECT_GE(points[0].time, sc.warmup);
  EXPECT_LT(points[0].time, sc.warmup + 50 * kMillisecond);
}

TEST(Executor, BaselineBranchMatchesUnperturbedRun) {
  const Scenario sc = toy_scenario();
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  const WindowPerf base = exec.baseline(points[0]);
  // Ticker: one update per 5 ms = 200/s.
  EXPECT_NEAR(base.value, 200.0, 5.0);
  // Deterministic: asking twice gives the identical number (cached or not).
  EXPECT_DOUBLE_EQ(exec.baseline(points[0]).value, base.value);
}

TEST(Executor, BranchesAreIndependent) {
  const Scenario sc = toy_scenario();
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  proxy::MaliciousAction drop;
  drop.target_tag = 1;
  drop.kind = proxy::ActionKind::kDrop;
  drop.drop_probability = 1.0;
  const auto attacked = exec.run_branch(points[0], &drop, 1);
  const auto benign = exec.run_branch(points[0], nullptr, 1);
  // At most the one Work already in flight at the snapshot completes.
  EXPECT_LT(attacked.windows[0].value, 3.0);
  EXPECT_NEAR(benign.windows[0].value, 200.0, 5.0)
      << "an attack branch must not contaminate later branches";
}

TEST(Executor, CostAccountingAddsUp) {
  const Scenario sc = toy_scenario();
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  const SearchCost after_discovery = exec.cost();
  EXPECT_EQ(after_discovery.execution, sc.duration);
  EXPECT_EQ(after_discovery.saves, 1u);
  exec.run_branch(points[0], nullptr, 2);
  EXPECT_EQ(exec.cost().execution, sc.duration + 2 * sc.window);
  EXPECT_EQ(exec.cost().loads, 1u);
  EXPECT_EQ(exec.cost().branches, 1u);
  EXPECT_GT(exec.cost().total(), exec.cost().execution);
}

// Batches queued from more distinct snapshots than the decode cache keeps
// (it drops every entry once it holds 32) and merged only afterwards: each
// queued branch holds its own reference to its decoded snapshot, so nothing
// it reads is freed (ASan), and the results equal serial run_branches.
TEST(Executor, QueuedBatchesOutliveTheDecodeCacheEntriesTheyUse) {
  const Scenario sc = toy_scenario();
  BranchExecutor exec(sc);
  const auto& points = exec.discover();
  ASSERT_FALSE(points.empty());
  std::vector<BranchExecutor::InjectionPoint> chain{points[0]};
  while (chain.size() < 40) {  // a continuation chain: a fresh blob per step
    chain.push_back(
        exec.continue_branch(chain.back(), nullptr, 10 * kMillisecond));
  }
  proxy::MaliciousAction drop;
  drop.target_tag = 1;
  drop.message_name = "Work";
  drop.kind = proxy::ActionKind::kDrop;

  set_default_jobs(4);
  std::vector<BranchExecutor::PendingBatch> batches;
  for (const auto& ip : chain)
    batches.push_back(exec.submit_branches(ip, {nullptr, &drop}, 1));
  const Duration cost_before = exec.cost().total();
  {
    // An unmerged batch waits for its branches when dropped and charges
    // nothing.
    BranchExecutor::PendingBatch dropped =
        exec.submit_branches(chain[0], {&drop}, 2);
  }
  EXPECT_EQ(exec.cost().total(), cost_before);
  std::vector<std::vector<BranchExecutor::BranchResult>> pipelined;
  for (auto& b : batches) pipelined.push_back(exec.merge_branches(b));
  set_default_jobs(1);

  BranchExecutor serial(sc);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto ref = serial.run_branches(chain[i], {nullptr, &drop}, 1);
    ASSERT_EQ(pipelined[i].size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      ASSERT_TRUE(pipelined[i][k].ok()) << pipelined[i][k].error;
      EXPECT_EQ(pipelined[i][k].outcome->windows[0].value,
                ref[k].outcome->windows[0].value)
          << "step " << i << " branch " << k;
      EXPECT_EQ(pipelined[i][k].outcome->windows[0].samples,
                ref[k].outcome->windows[0].samples);
    }
  }
  set_default_jobs(0);
  EXPECT_TRUE(exec.failed().empty());
}

TEST(WeightedGreedy, FindsDeliveryAndCrashAttacks) {
  const Scenario sc = toy_scenario();
  const SearchResult res = weighted_greedy_search(sc);
  EXPECT_NEAR(res.baseline_performance, 200.0, 5.0);

  bool found_drop = false, found_delay = false, found_crash = false;
  for (const AttackReport& a : res.attacks) {
    if (a.action.kind == proxy::ActionKind::kDrop) {
      found_drop = true;
      EXPECT_GT(a.damage, 0.9);
    }
    if (a.action.kind == proxy::ActionKind::kDelay) {
      found_delay = true;
      // An open-loop ticker absorbs a constant delay after one window: the
      // classifier must label it transient, not sustained degradation.
      EXPECT_EQ(a.effect, AttackEffect::kTransient) << a.describe();
    }
    if (a.effect == AttackEffect::kCrash) {
      found_crash = true;
      EXPECT_EQ(a.crashed_nodes, 1u);
      EXPECT_EQ(a.action.field_name, "count");
    }
    EXPECT_GT(a.found_after, 0);
  }
  EXPECT_TRUE(found_drop);
  EXPECT_TRUE(found_delay);
  EXPECT_TRUE(found_crash) << "negative-count lie must crash the server";
}

TEST(WeightedGreedy, LearnsClusterWeights) {
  const Scenario sc = toy_scenario();
  ClusterWeights learned;
  weighted_greedy_search(sc, {}, &learned);
  EXPECT_GT(learned[proxy::ActionCluster::kDrop], 1.0);
  EXPECT_GT(learned[proxy::ActionCluster::kLieBoundary], 1.0);
}

TEST(WeightedGreedy, PreloadedWeightsReorderTheScan) {
  Scenario sc = toy_scenario();
  // Preload lie-boundary very high: the crash attack must surface first.
  WeightedOptions opt;
  opt.initial[proxy::ActionCluster::kLieBoundary] = 100.0;
  const SearchResult res = weighted_greedy_search(sc, opt);
  ASSERT_FALSE(res.attacks.empty());
  EXPECT_EQ(res.attacks.front().effect, AttackEffect::kCrash);
}

TEST(Greedy, FindsTheStrongestAttackWithConfirmation) {
  const Scenario sc = toy_scenario();
  const SearchResult res = greedy_search(sc, {/*confirmations=*/2});
  ASSERT_FALSE(res.attacks.empty());
  // The strongest action on Work is a crash or total drop.
  const AttackReport& first = res.attacks.front();
  EXPECT_TRUE(first.effect == AttackEffect::kCrash || first.damage > 0.9)
      << first.describe();
}

TEST(Greedy, CostsMoreThanWeighted) {
  const Scenario sc = toy_scenario();
  const SearchResult weighted = weighted_greedy_search(sc);
  const SearchResult greedy = greedy_search(sc, {2});
  ASSERT_FALSE(weighted.attacks.empty());
  ASSERT_FALSE(greedy.attacks.empty());
  // Table III's headline: weighted reports its first attack much earlier.
  EXPECT_LT(weighted.attacks.front().found_after,
            greedy.attacks.front().found_after);
}

TEST(BruteForce, FindsAttacksWithoutBranching) {
  const Scenario sc = toy_scenario();
  SearchResult res;
  {
    trace::ScopedTrace t(trace::Clock::kVirtual);
    res = brute_force_search(sc);
    // Every branch is a full run from t = 0: nothing is saved, decoded or
    // loaded, not even through the executor's snapshot path.
    const trace::Counters& c = trace::counters();
    EXPECT_EQ(c.snapshot_saves.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(c.snapshot_loads.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(c.decode_hits.load(std::memory_order_relaxed), 0u);
    EXPECT_EQ(c.decode_misses.load(std::memory_order_relaxed), 0u);
    EXPECT_GT(c.branch_attempts.load(std::memory_order_relaxed), 0u);
  }
  EXPECT_EQ(res.cost.saves, 0u);
  EXPECT_EQ(res.cost.loads, 0u);
  bool found_drop = false;
  for (const auto& a : res.attacks) {
    if (a.action.kind == proxy::ActionKind::kDrop) found_drop = true;
  }
  EXPECT_TRUE(found_drop);
  // Brute force pays a full execution per scenario.
  const SearchResult weighted = weighted_greedy_search(sc);
  EXPECT_GT(res.cost.execution, weighted.cost.execution);
}

TEST(Reports, DescribeIsHumanReadable) {
  AttackReport rep;
  rep.action.kind = proxy::ActionKind::kDelay;
  rep.action.message_name = "Work";
  rep.action.delay = kSecond;
  rep.effect = AttackEffect::kDegradation;
  rep.baseline_performance = 200;
  rep.attacked_performance = 3;
  rep.damage = 0.985;
  const std::string s = rep.describe();
  EXPECT_NE(s.find("Delay Work 1s"), std::string::npos) << s;
  EXPECT_NE(s.find("98.5%"), std::string::npos) << s;
}

}  // namespace
}  // namespace turret::search
