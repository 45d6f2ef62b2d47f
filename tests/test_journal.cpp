// Write-ahead search journal: record framing, truncated-tail recovery,
// per-key FIFO replay, and the headline guarantee — a search killed mid-run
// and resumed from its journal produces a SearchResult byte-identical to the
// uninterrupted run, including cost accounting and quarantine records.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "search/algorithms.h"
#include "search/executor.h"
#include "search/journal.h"

namespace turret::search {
namespace {

// Journals live in a directory of this process's own, so test binaries run
// at the same time never open each other's files; it is removed at exit.
std::string tmp_path(const std::string& name) {
  static const struct Dir {
    std::filesystem::path path =
        std::filesystem::path(::testing::TempDir()) /
        ("turret_journal_" + std::to_string(::getpid()));
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } dir;
  return (dir.path / name).string();
}

Bytes bytes_of(std::string_view s) { return Bytes(s.begin(), s.end()); }

TEST(Journal, AppendsAndReplaysPerKeyFifo) {
  const std::string path = tmp_path("fifo");
  {
    auto j = Journal::open(path, /*resume=*/false);
    j->append("k1", bytes_of("first"));
    j->append("k2", bytes_of("other"));
    j->append("k1", bytes_of("second"));
    EXPECT_EQ(j->appended(), 3u);
    EXPECT_EQ(j->recorded(), 0u);
  }
  const auto entries = Journal::read_all(path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, "k1");
  EXPECT_EQ(entries[1].key, "k2");
  EXPECT_EQ(entries[2].payload, bytes_of("second"));

  auto j = Journal::open(path, /*resume=*/true);
  EXPECT_EQ(j->recorded(), 3u);
  // Duplicate keys replay oldest-first — greedy legitimately revisits the
  // same (point, action) key across repetitions.
  EXPECT_EQ(j->replay("k1"), bytes_of("first"));
  EXPECT_EQ(j->replay("k1"), bytes_of("second"));
  EXPECT_EQ(j->replay("k1"), std::nullopt);
  EXPECT_EQ(j->replay("k2"), bytes_of("other"));
  EXPECT_EQ(j->replay("missing"), std::nullopt);
  EXPECT_EQ(j->replayed(), 3u);
}

TEST(Journal, FreshOpenTruncatesAndResumeRejectsForeignFiles) {
  const std::string path = tmp_path("truncate");
  {
    auto j = Journal::open(path, false);
    j->append("k", bytes_of("v"));
  }
  { auto j = Journal::open(path, false); }
  EXPECT_TRUE(Journal::read_all(path).empty());

  const std::string garbage = tmp_path("garbage");
  {
    std::FILE* f = std::fopen(garbage.c_str(), "wb");
    std::fputs("not a journal at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(Journal::open(garbage, true), std::runtime_error);
  EXPECT_THROW(Journal::open(tmp_path("does-not-exist"), true),
               std::runtime_error);
}

TEST(Journal, ResumeRefusesAPreviousFormatJournal) {
  // A TURRETJ1 journal's records use the old branch-result layout; resuming
  // from one must fail at the header instead of mis-decoding records.
  const std::string path = tmp_path("j1");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("TURRETJ1", f);
    std::fclose(f);
  }
  EXPECT_THROW(Journal::open(path, true), std::runtime_error);
  EXPECT_THROW(Journal::read_all(path), std::runtime_error);
}

TEST(Journal, ToleratesATruncatedTailRecord) {
  const std::string path = tmp_path("tail");
  {
    auto j = Journal::open(path, false);
    j->append("a", bytes_of("payload-a"));
    j->append("b", bytes_of("payload-b"));
  }
  // A kill mid-append leaves a partial record at the tail.
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full - 3);

  {
    auto j = Journal::open(path, true);
    EXPECT_EQ(j->recorded(), 1u) << "the torn record must be dropped";
    EXPECT_EQ(j->replay("a"), bytes_of("payload-a"));
    EXPECT_EQ(j->replay("b"), std::nullopt);
    // Resume truncated the tear, so this append lands where the next
    // resume's loader will read it.
    j->append("c", bytes_of("payload-c"));
  }
  auto j = Journal::open(path, true);
  EXPECT_EQ(j->recorded(), 2u);
  EXPECT_EQ(j->replay("c"), bytes_of("payload-c"));
}

TEST(Journal, BranchResultCodecRoundTrips) {
  BranchExecutor::BranchResult ok;
  ok.attempts = 3;
  BranchExecutor::BranchOutcome out;
  out.windows = {{123.5, 777}, {0.25, 2}};
  out.windows[0].tampers = 5;
  out.windows[1].has_percentiles = true;
  out.windows[1].p50 = 1.5;
  out.windows[1].p95 = 8;
  out.windows[1].p99 = 16.25;
  out.windows[1].p999 = 1024;
  out.new_crashes = 2;
  ok.outcome = out;
  const auto ok2 = decode_branch_result(encode_branch_result(ok));
  ASSERT_TRUE(ok2.ok());
  EXPECT_EQ(ok2.attempts, 3u);
  ASSERT_EQ(ok2.outcome->windows.size(), 2u);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[0].value, 123.5);
  EXPECT_EQ(ok2.outcome->windows[0].samples, 777u);
  EXPECT_EQ(ok2.outcome->windows[0].tampers, 5u);
  EXPECT_FALSE(ok2.outcome->windows[0].has_percentiles);
  EXPECT_EQ(ok2.outcome->windows[1].tampers, 0u);
  EXPECT_TRUE(ok2.outcome->windows[1].has_percentiles);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[1].p50, 1.5);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[1].p95, 8);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[1].p99, 16.25);
  EXPECT_DOUBLE_EQ(ok2.outcome->windows[1].p999, 1024);
  EXPECT_EQ(ok2.outcome->new_crashes, 2u);

  BranchExecutor::BranchResult failed;
  failed.attempts = 4;
  failed.error = "injected fault at site 'snapshot-load' (hit 9)";
  const auto failed2 = decode_branch_result(encode_branch_result(failed));
  EXPECT_FALSE(failed2.ok());
  EXPECT_EQ(failed2.attempts, 4u);
  EXPECT_EQ(failed2.error, failed.error);
}

// ---------------------------------------------------------------------------
// Resume identity on real searches (toy ticker, serial for fixed hit order)
// ---------------------------------------------------------------------------

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
  void start(vm::GuestContext& ctx) override {
    ctx.set_timer(1, 5 * kMillisecond);
  }
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
  sc.malicious = {0};
  sc.metric.name = "updates";
  sc.metric.kind = MetricSpec::Kind::kRate;
  sc.warmup = 500 * kMillisecond;
  sc.duration = 3 * kSecond;
  sc.window = kSecond;
  sc.delta = 0.1;
  sc.actions.delays = {500 * kMillisecond};
  sc.actions.drop_probabilities = {1.0};
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
  EXPECT_EQ(a.cost.retries, b.cost.retries);
  ASSERT_EQ(a.attacks.size(), b.attacks.size());
  for (std::size_t i = 0; i < a.attacks.size(); ++i) {
    const AttackReport& x = a.attacks[i];
    const AttackReport& y = b.attacks[i];
    EXPECT_EQ(x.action.describe(), y.action.describe()) << "attack " << i;
    EXPECT_EQ(x.effect, y.effect) << "attack " << i;
    EXPECT_DOUBLE_EQ(x.attacked_performance, y.attacked_performance);
    EXPECT_DOUBLE_EQ(x.damage, y.damage) << "attack " << i;
    EXPECT_EQ(x.found_after, y.found_after) << "attack " << i;
  }
  ASSERT_EQ(a.failed.size(), b.failed.size());
  for (std::size_t i = 0; i < a.failed.size(); ++i) {
    EXPECT_EQ(a.failed[i].describe(), b.failed[i].describe()) << "failed " << i;
    EXPECT_EQ(a.failed[i].attempts, b.failed[i].attempts) << "failed " << i;
    EXPECT_EQ(a.failed[i].error, b.failed[i].error) << "failed " << i;
  }
}

TEST(JournalResume, WeightedGreedyReplaysToTheIdenticalResult) {
  const Scenario sc = toy_scenario();
  const std::string path = tmp_path("weighted_full");
  set_default_jobs(1);

  SearchResult live;
  std::size_t appended = 0;
  {
    auto j = Journal::open(path, false);
    live = weighted_greedy_search(sc, {}, nullptr, j.get());
    appended = j->appended();
    EXPECT_GT(appended, 0u);
  }
  SearchResult resumed;
  {
    auto j = Journal::open(path, true);
    resumed = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->replayed(), appended)
        << "a complete journal replays every branch";
    EXPECT_EQ(j->appended(), 0u) << "nothing executed, nothing re-journaled";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

TEST(JournalResume, WeightedGreedyResumesFromAKilledRunsPrefix) {
  const Scenario sc = toy_scenario();
  const std::string full_path = tmp_path("weighted_killed_full");
  set_default_jobs(1);

  SearchResult live;
  {
    auto j = Journal::open(full_path, false);
    live = weighted_greedy_search(sc, {}, nullptr, j.get());
  }

  // Keep only the first half of the journal, then resume from the prefix.
  // Continuations are not journaled; the resumed run re-executes them live.
  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path = tmp_path("weighted_killed_prefix");
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    auto j = Journal::open(prefix_path, true);
    resumed = weighted_greedy_search(sc, {}, nullptr, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2)
        << "only the missing branches execute";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

TEST(JournalResume, BruteForceResumesFromAKilledRunsPrefix) {
  const Scenario sc = toy_scenario();
  const std::string full_path = tmp_path("brute_full");
  set_default_jobs(1);

  SearchResult live;
  {
    auto j = Journal::open(full_path, false);
    live = brute_force_search(sc, j.get());
  }

  // Simulate the controller being killed mid-search: keep only the first
  // half of the journal, then resume from the prefix.
  const auto entries = Journal::read_all(full_path);
  ASSERT_GT(entries.size(), 2u);
  const std::string prefix_path = tmp_path("brute_prefix");
  {
    auto j = Journal::open(prefix_path, false);
    for (std::size_t i = 0; i < entries.size() / 2; ++i)
      j->append(entries[i].key, entries[i].payload);
  }

  SearchResult resumed;
  {
    auto j = Journal::open(prefix_path, true);
    resumed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->replayed(), entries.size() / 2);
    EXPECT_EQ(j->appended(), entries.size() - entries.size() / 2)
        << "only the missing branches execute";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);

  // The resumed journal is now complete: a third run replays everything.
  SearchResult replayed;
  {
    set_default_jobs(1);
    auto j = Journal::open(prefix_path, true);
    replayed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->appended(), 0u);
    set_default_jobs(0);
  }
  expect_identical(live, replayed);
}

TEST(JournalResume, FaultedRunReplaysIdenticallyWithFaultsDisarmed) {
  Scenario sc = toy_scenario();
  sc.fault.max_retries = 2;
  const std::string path = tmp_path("faulted");
  set_default_jobs(1);

  SearchResult live;
  {
    // One branch start faults (retry) and one exhausts its whole budget
    // (quarantine), all journaled.
    fault::ScopedFaults plan("branch-exec:hit:2,branch-exec:hit:5x3");
    auto j = Journal::open(path, false);
    live = brute_force_search(sc, j.get());
  }
  EXPECT_GT(live.cost.retries, 0u);
  EXPECT_FALSE(live.failed.empty());

  // Resume with no faults armed: replay must reproduce the faulted run —
  // retries, quarantine records and all — without re-executing anything.
  SearchResult resumed;
  {
    auto j = Journal::open(path, true);
    resumed = brute_force_search(sc, j.get());
    EXPECT_EQ(j->appended(), 0u);
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
}

}  // namespace
}  // namespace turret::search
