// Parallel search determinism: for all three algorithms, a 1-worker run and
// an N-worker run must produce byte-identical SearchResults — same attacks,
// same order, same damage numbers, same cost accounting. This is the merge-
// order guarantee of BranchExecutor::run_branches (and brute force's fan-out)
// on a real system scenario (PBFT), not the toy ticker.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/algorithms.h"
#include "search/journal.h"
#include "search/telemetry.h"
#include "systems/pbft/pbft_scenario.h"

namespace turret::search {
namespace {

// A PBFT schema subset (tags match systems/pbft) keeping the action space —
// and with it the test's runtime — small, the same way Table III hands Turret
// a format description for the message types under study.
constexpr char kFocusSchema[] = R"(
protocol pbft;
message Prepare = 3 {
  u32   view;
  u64   seq;
  u32   replica;
  bytes digest;
}
message Status = 7 {
  u32   view;
  u32   replica;
  u64   last_exec;
  u64   stable_seq;
  i32   n_pending;
}
)";

const wire::Schema& focus_schema() {
  static const wire::Schema s = wire::parse_schema(kFocusSchema);
  return s;
}

Scenario pbft_scenario() {
  Scenario sc = systems::pbft::make_pbft_scenario();
  sc.schema = &focus_schema();
  sc.warmup = 2 * kSecond;
  sc.duration = 8 * kSecond;
  sc.window = 2 * kSecond;
  // Shrink the action space so six runs of three algorithms stay fast.
  sc.actions.drop_probabilities = {1.0};
  sc.actions.delays = {kSecond};
  sc.actions.duplicate_counts = {2};
  sc.actions.divert = false;
  sc.actions.lie_random = false;
  sc.actions.relative_operands = {1000};
  return sc;
}

void expect_identical(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_DOUBLE_EQ(a.baseline_performance, b.baseline_performance);
  EXPECT_EQ(a.cost.execution, b.cost.execution);
  EXPECT_EQ(a.cost.snapshots, b.cost.snapshots);
  EXPECT_EQ(a.cost.branches, b.cost.branches);
  EXPECT_EQ(a.cost.saves, b.cost.saves);
  EXPECT_EQ(a.cost.loads, b.cost.loads);
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    const AttackReport& x = a.attacks[i];
    const AttackReport& y = b.attacks[i];
    EXPECT_EQ(x.action.describe(), y.action.describe()) << "attack " << i;
    EXPECT_EQ(x.effect, y.effect) << "attack " << i;
    EXPECT_DOUBLE_EQ(x.baseline_performance, y.baseline_performance);
    EXPECT_DOUBLE_EQ(x.attacked_performance, y.attacked_performance);
    EXPECT_DOUBLE_EQ(x.recovery_performance, y.recovery_performance);
    EXPECT_DOUBLE_EQ(x.damage, y.damage) << "attack " << i;
    EXPECT_EQ(x.crashed_nodes, y.crashed_nodes) << "attack " << i;
    EXPECT_EQ(x.injection_time, y.injection_time) << "attack " << i;
    EXPECT_EQ(x.found_after, y.found_after) << "attack " << i;
  }
}

/// Runs `search` with 1 worker and with 4, restoring the knob either way.
template <typename Fn>
void check_worker_count_invariance(Fn&& search) {
  set_default_jobs(1);
  const SearchResult serial = search();
  set_default_jobs(4);
  const SearchResult parallel = search();
  set_default_jobs(0);
  EXPECT_FALSE(serial.attacks.empty())
      << "scenario found no attacks; the determinism check would be vacuous";
  expect_identical(serial, parallel);
}

TEST(ParallelSearchDeterminism, BruteForce) {
  const Scenario sc = pbft_scenario();
  check_worker_count_invariance([&] { return brute_force_search(sc); });
}

TEST(ParallelSearchDeterminism, Greedy) {
  const Scenario sc = pbft_scenario();
  GreedyOptions opt;
  opt.confirmations = 2;
  opt.max_repetitions = 2;
  check_worker_count_invariance([&] { return greedy_search(sc, opt); });
}

TEST(ParallelSearchDeterminism, WeightedGreedy) {
  const Scenario sc = pbft_scenario();
  check_worker_count_invariance([&] { return weighted_greedy_search(sc); });
}

// Deterministic-mode traces are themselves assertable artifacts: a weighted
// greedy run with the same seed must produce a byte-identical Chrome trace
// and telemetry stats block whether it runs twice in a row or with 1 vs 4
// workers — virtual timestamps, tid normalization, and the content sort at
// flush erase every scheduling difference.
TEST(ParallelSearchDeterminism, TraceAndStatsAreByteIdentical) {
  const Scenario sc = pbft_scenario();
  const auto traced_run = [&sc](unsigned jobs) {
    set_default_jobs(jobs);
    trace::ScopedTrace t(trace::Clock::kVirtual);
    weighted_greedy_search(sc);
    const std::string trace_json = trace::Tracer::instance().chrome_json();
    const std::string stats_json = capture_telemetry().to_json();
    set_default_jobs(0);
    return std::make_pair(trace_json, stats_json);
  };

  const auto serial_a = traced_run(1);
  const auto serial_b = traced_run(1);
  const auto parallel = traced_run(4);

  // Same seed, run twice: byte-identical trace and stats.
  EXPECT_EQ(serial_a.first, serial_b.first);
  EXPECT_EQ(serial_a.second, serial_b.second);
  // 1 worker vs 4 workers: still byte-identical.
  EXPECT_EQ(serial_a.first, parallel.first);
  EXPECT_EQ(serial_a.second, parallel.second);

  // The guarantee is only meaningful if the trace actually recorded the run.
  EXPECT_NE(serial_a.first.find("\"name\":\"branch\""), std::string::npos);
  EXPECT_NE(serial_a.first.find("\"name\":\"weighted-scan\""),
            std::string::npos);
  EXPECT_NE(serial_a.first.find("\"name\":\"discover\""), std::string::npos);
  EXPECT_NE(serial_a.second.find("\"clock\":\"virtual\""), std::string::npos);
  EXPECT_EQ(serial_a.second.find("wall_us"), std::string::npos);
}

// The stats block's counters must agree with the SearchResult they describe
// on a clean (fault-free) run, serial or parallel.
TEST(ParallelSearchDeterminism, StatsCountersMatchSearchCost) {
  const Scenario sc = pbft_scenario();
  for (const unsigned jobs : {1u, 4u}) {
    set_default_jobs(jobs);
    trace::ScopedTrace t(trace::Clock::kVirtual);
    const SearchResult res = weighted_greedy_search(sc);
    const TelemetrySnapshot stats = capture_telemetry();
    set_default_jobs(0);
    EXPECT_EQ(stats.counters.branch_attempts, res.cost.branches);
    EXPECT_EQ(stats.counters.branch_retries, res.cost.retries);
    EXPECT_EQ(stats.counters.branch_quarantines, res.failed.size());
    EXPECT_EQ(stats.counters.snapshot_saves, res.cost.saves);
    EXPECT_EQ(stats.counters.snapshot_loads, res.cost.loads);
    EXPECT_EQ(static_cast<Duration>(stats.counters.execution_ns()),
              res.cost.execution);
    EXPECT_EQ(stats.counters.dropped_events, 0u);
    EXPECT_GT(stats.counters.emu_events, 0u);
    EXPECT_GT(stats.counters.proxy_observed, 0u);
    EXPECT_GT(stats.branches_per_sec(), 0.0);
  }
}

// Weighted greedy pipelines its batches across injection points, so at 4
// workers branches finish in an order unrelated to the search's; merges still
// follow the serial order, which fixes the journal byte for byte.
TEST(ParallelSearchDeterminism, WeightedGreedyJournalIsByteIdentical) {
  const Scenario sc = pbft_scenario();
  const auto journal_bytes = [&sc](unsigned jobs) {
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) /
         ("weighted_jobs" + std::to_string(jobs) + "_" +
          std::to_string(::getpid()) + ".journal"))
            .string();
    set_default_jobs(jobs);
    {
      auto journal = Journal::open(path, false);
      weighted_greedy_search(sc, {}, nullptr, journal.get());
    }
    set_default_jobs(0);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::filesystem::remove(path);
    return bytes;
  };
  const std::string serial = journal_bytes(1);
  ASSERT_GT(serial.size(), 64u) << "the search journaled nothing";
  EXPECT_TRUE(journal_bytes(4) == serial)
      << "--jobs 1 and --jobs 4 journals differ";
}

// Pool busy time is wall-clock: it belongs to the fleet block, never to the
// byte-identical stats block.
TEST(PoolTelemetry, BusyShareIsAFleetFactNotAStat) {
  const Scenario sc = pbft_scenario();
  set_default_jobs(2);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  weighted_greedy_search(sc);
  const TelemetrySnapshot stats = capture_telemetry();
  set_default_jobs(0);
  EXPECT_EQ(stats.jobs, 2u);
  EXPECT_GT(stats.pool_busy_ns, 0);
  EXPECT_GT(stats.pool_busy_share(), 0.0);
  EXPECT_LE(stats.pool_busy_share(), 1.0);
  EXPECT_EQ(stats.to_json().find("pool_busy"), std::string::npos);
  const std::string fleet = stats.fleet_json();
  EXPECT_NE(fleet.find("\"jobs\":2,\"pool_busy_s\":"), std::string::npos)
      << fleet;
  EXPECT_NE(fleet.find("\"pool_busy_share\":"), std::string::npos) << fleet;
}

TEST(ParallelSearchDeterminism, WeightedGreedyLearnsTheSameWeights) {
  const Scenario sc = pbft_scenario();
  set_default_jobs(1);
  ClusterWeights serial;
  weighted_greedy_search(sc, {}, &serial);
  set_default_jobs(4);
  ClusterWeights parallel;
  weighted_greedy_search(sc, {}, &parallel);
  set_default_jobs(0);
  for (std::size_t c = 0; c < proxy::kNumClusters; ++c) {
    EXPECT_DOUBLE_EQ(serial.w[c], parallel.w[c]) << "cluster " << c;
  }
}

}  // namespace
}  // namespace turret::search
