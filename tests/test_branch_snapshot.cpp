// Branch snapshots end to end: testbed save/load round trips through the
// content-addressed page store, with and without modelled memory images;
// delta-save and dedup accounting; decode hardening; and the load-bearing
// determinism guarantee — a search produces byte-identical results at any
// worker count and across a journal resume.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>

#include "runtime/testbed.h"
#include "search/algorithms.h"
#include "search/journal.h"
#include "search/provenance.h"
#include "systems/pbft/pbft_scenario.h"

namespace turret::search {
namespace {

using runtime::Testbed;
using runtime::TestbedConfig;

// --- Testbed round trips ----------------------------------------------------

// A guest that accumulates visible state from traffic and timers, so a bad
// restore shows up as diverging counters.
struct PingPong : vm::GuestNode {
  int msgs = 0;
  int fires = 0;
  Bytes log;

  void start(vm::GuestContext& ctx) override {
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    ++msgs;
    log.insert(log.end(), m.begin(), m.end());
    ctx.count("received");
    if (!m.empty() && m[0] == 'p') ctx.send(src, to_bytes("q"));
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t) override {
    ++fires;
    // Keep traffic flowing so state keeps changing between snapshots.
    ctx.send((ctx.self() + 1) % ctx.cluster_size(), to_bytes("p"));
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void save(serial::Writer& w) const override {
    w.i32(msgs);
    w.i32(fires);
    w.bytes(log);
  }
  void load(serial::Reader& r) override {
    msgs = r.i32();
    fires = r.i32();
    log = r.bytes();
  }
  std::string_view kind() const override { return "pingpong"; }
};

TestbedConfig fleet_config(bool model_memory) {
  TestbedConfig cfg;
  cfg.net.nodes = 3;
  cfg.net.default_link.delay = kMillisecond;
  cfg.snapshot.model_memory = model_memory;
  cfg.snapshot.profile.os_pages = 16;
  cfg.snapshot.profile.app_pages = 8;
  cfg.snapshot.profile.unique_pages = 8;
  return cfg;
}

runtime::GuestFactory pingpong_factory() {
  return [](NodeId) { return std::make_unique<PingPong>(); };
}

void expect_same_world(Testbed& a, Testbed& b) {
  for (NodeId id = 0; id < a.nodes(); ++id) {
    const auto& ga = dynamic_cast<const PingPong&>(a.machine(id).guest());
    const auto& gb = dynamic_cast<const PingPong&>(b.machine(id).guest());
    EXPECT_EQ(ga.msgs, gb.msgs) << "node " << id;
    EXPECT_EQ(ga.fires, gb.fires) << "node " << id;
    EXPECT_EQ(ga.log, gb.log) << "node " << id;
  }
  EXPECT_EQ(a.now(), b.now());
  EXPECT_DOUBLE_EQ(a.metrics().total("received", 0, 10 * kSecond),
                   b.metrics().total("received", 0, 10 * kSecond));
}

class TestbedSnapshot : public ::testing::TestWithParam<bool> {};

TEST_P(TestbedSnapshot, RoundTripsAndContinuesIdentically) {
  const TestbedConfig cfg = fleet_config(/*model_memory=*/GetParam());

  Testbed original(cfg, pingpong_factory());
  original.start();
  original.run_for(300 * kMillisecond);
  const Bytes snap = original.save_snapshot();

  // The original continues; a fresh testbed restored from the blob must
  // evolve identically (same virtual clock, same traffic, same state).
  original.run_for(300 * kMillisecond);
  Testbed restored(cfg, pingpong_factory());
  restored.load_snapshot(snap);
  restored.run_for(300 * kMillisecond);
  expect_same_world(original, restored);

  // And the restored world snapshots/restores again without loss.
  const Bytes snap2 = restored.save_snapshot();
  Testbed again(cfg, pingpong_factory());
  again.load_snapshot(snap2);
  again.run_for(100 * kMillisecond);
  restored.run_for(100 * kMillisecond);
  expect_same_world(restored, again);
}

INSTANTIATE_TEST_SUITE_P(Images, TestbedSnapshot, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "ModelMemory" : "HeapOnly";
                         });

// --- Save accounting --------------------------------------------------------

TEST(SnapshotSaveStats, CowSecondSaveWritesOnlyDirtyPages) {
  const TestbedConfig cfg = fleet_config(/*model_memory=*/true);
  Testbed tb(cfg, pingpong_factory());
  tb.start();
  tb.run_for(200 * kMillisecond);
  tb.save_snapshot();
  const auto first = tb.last_save_stats();
  EXPECT_GT(first.pages_written, 0u);
  // Three VMs share 24 OS/app pages: even a first save dedups them.
  EXPECT_GT(first.pages_deduped, 0u);
  EXPECT_LT(first.bytes_written,
            static_cast<std::uint64_t>(first.pages_total) * vm::kPageSize);
  EXPECT_GT(first.store_pages, 0u);

  tb.run_for(50 * kMillisecond);
  tb.save_snapshot();
  const auto second = tb.last_save_stats();
  EXPECT_EQ(second.pages_total, first.pages_total);
  EXPECT_LT(second.dirty_pages, second.pages_total)
      << "only the heap changed between saves";
  EXPECT_LE(second.pages_written, second.dirty_pages)
      << "clean pages reuse their cached refs; dirty ones may still dedup";
  EXPECT_LT(second.pages_written, first.pages_written);

  // An identical fleet interning into the same store dedups everything the
  // first testbed already wrote except its own private progress.
  Testbed twin(cfg, pingpong_factory());
  twin.start();
  twin.run_for(200 * kMillisecond);
  twin.save_snapshot();
  EXPECT_LT(twin.last_save_stats().pages_written, first.pages_written)
      << "cross-testbed dedup through the shared store";
}

// --- Decode hardening -------------------------------------------------------

TEST(SnapshotDecode, RejectsCorruptBlobs) {
  const TestbedConfig cfg = fleet_config(/*model_memory=*/false);
  Testbed tb(cfg, pingpong_factory());
  tb.start();
  tb.run_for(100 * kMillisecond);
  const Bytes snap = tb.save_snapshot();
  const vm::PageStore* store = cfg.snapshot.store.get();

  // Truncation anywhere must throw, never read out of bounds.
  Bytes truncated(snap.begin(), snap.begin() + snap.size() / 2);
  EXPECT_THROW(Testbed::decode_snapshot(truncated, store), serial::SerialError);

  // The first VM section's heap_start follows started(1) + nvms(4) + its
  // length prefix(4); a heap past the end of the image is rejected.
  Bytes bad_meta = snap;
  const std::size_t heap_start_off = 1 + 4 + 4;
  ASSERT_GT(bad_meta.size(), heap_start_off + 4);
  for (std::size_t i = 0; i < 4; ++i) bad_meta[heap_start_off + i] = 0xff;
  EXPECT_THROW(Testbed::decode_snapshot(bad_meta, store), serial::SerialError);
}

TEST(SnapshotDecode, CowBlobRequiresItsStore) {
  const TestbedConfig cfg = fleet_config(/*model_memory=*/false);
  const std::shared_ptr<vm::PageStore>& store = cfg.snapshot.store;
  Testbed tb(cfg, pingpong_factory());
  tb.start();
  tb.run_for(100 * kMillisecond);
  const Bytes snap = tb.save_snapshot();

  EXPECT_THROW(Testbed::decode_snapshot(snap, nullptr), std::logic_error);
  // The wrong (empty) store is detected too: refs resolve to nothing.
  vm::PageStore other;
  EXPECT_THROW(Testbed::decode_snapshot(snap, &other), std::logic_error);
  // The right store decodes fine.
  EXPECT_NO_THROW(Testbed::decode_snapshot(snap, store.get()));
}

// --- Search determinism -----------------------------------------------------

// The PBFT focus schema from the parallel-search determinism suite: a small
// action space keeps many whole-search runs affordable.
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
    EXPECT_DOUBLE_EQ(x.attacked_performance, y.attacked_performance);
    EXPECT_DOUBLE_EQ(x.damage, y.damage) << "attack " << i;
    EXPECT_EQ(x.crashed_nodes, y.crashed_nodes) << "attack " << i;
    EXPECT_EQ(x.injection_time, y.injection_time) << "attack " << i;
    EXPECT_EQ(x.found_after, y.found_after) << "attack " << i;
  }
}

TEST(SnapshotDeterminism, SearchResultIdenticalAcrossJobs) {
  set_default_jobs(1);
  const SearchResult serial = weighted_greedy_search(pbft_scenario());
  set_default_jobs(4);
  const SearchResult parallel = weighted_greedy_search(pbft_scenario());
  set_default_jobs(0);
  EXPECT_FALSE(serial.attacks.empty())
      << "no attacks found; determinism check would be vacuous";
  expect_identical(serial, parallel);
}

std::string tmp_path(const std::string& stem) {
  return ::testing::TempDir() + "turret_snapshot_" + stem + "_" +
         std::to_string(::getpid()) + ".journal";
}

TEST(SnapshotDeterminism, JournalResumeMatchesLive) {
  const std::string path = tmp_path("resume");
  set_default_jobs(1);
  SearchResult live;
  {
    auto j = Journal::open(path, false);
    live = weighted_greedy_search(pbft_scenario(), {}, nullptr, j.get());
    EXPECT_GT(j->appended(), 0u);
  }
  SearchResult resumed;
  {
    auto j = Journal::open(path, true);
    resumed = weighted_greedy_search(pbft_scenario(), {}, nullptr, j.get());
    EXPECT_EQ(j->appended(), 0u) << "complete journal: nothing re-executes";
  }
  set_default_jobs(0);
  expect_identical(live, resumed);
  std::remove(path.c_str());
}

TEST(SnapshotDeterminism, ProvenanceJsonByteIdenticalAcrossJobs) {
  const auto provenance_of = [](unsigned jobs) {
    Scenario sc = pbft_scenario();
    sc.testbed.net.capture.enabled = true;
    set_default_jobs(jobs);
    ProvenanceStore store;
    const SearchResult res =
        weighted_greedy_search(sc, {}, nullptr, nullptr, &store);
    set_default_jobs(0);
    return provenance_json(sc, res, store);
  };
  const std::string serial = provenance_of(1);
  EXPECT_EQ(serial, provenance_of(4));
  EXPECT_NE(serial.find("\"provenance\""), std::string::npos);
}

}  // namespace
}  // namespace turret::search
