// Distributed search runtime (DESIGN.md §5g): wire protocol defects are
// always detected, and the coordinator/worker fleet produces SearchResults
// byte-identical to in-process runs — at any worker count, through worker
// crashes (fault-injected and real SIGKILL), through transport faults, and
// through cooperative cancellation + resume. Thread-mode suites run workers
// on std::thread in this process (TSan-friendly); fork-mode suites exercise
// the production process shape.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dist/coordinator.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "search/algorithms.h"
#include "search/journal.h"
#include "systems/pbft/pbft_scenario.h"
#include "vm/pagestore.h"

namespace turret {
namespace {

using search::Scenario;
using search::SearchResult;

// Same PBFT schema subset as test_parallel_search: keeps the action space —
// and with it the fleet's workload — small enough for several full searches.
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

// Four replica message types: brute force stops only between types, so a
// cancel test needs more than two.
constexpr char kFourTypeSchema[] = R"(
protocol pbft;
message Prepare = 3 {
  u32   view;
  u64   seq;
  u32   replica;
  bytes digest;
}
message Commit = 4 {
  u32   view;
  u64   seq;
  u32   replica;
  bytes digest;
}
message Checkpoint = 6 {
  u64   seq;
  u32   replica;
  bytes state_digest;
}
message Status = 7 {
  u32   view;
  u32   replica;
  u64   last_exec;
  u64   stable_seq;
  i32   n_pending;
}
)";

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

// ---------------------------------------------------------------------------
// DistProtocol: framing and payloads, defect detection.

TEST(DistProtocol, FrameRoundTripThroughArbitraryChunking) {
  Rng rng(2024);
  for (int round = 0; round < 20; ++round) {
    // A stream of random frames...
    std::vector<dist::Frame> sent;
    Bytes stream;
    const int count = 1 + static_cast<int>(rng.next_below(6));
    for (int i = 0; i < count; ++i) {
      dist::Frame f;
      f.type = static_cast<dist::FrameType>(1 + rng.next_below(6));
      f.payload.resize(rng.next_below(2000));
      for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.next_u64());
      const Bytes enc = dist::encode_frame(f.type, f.payload);
      stream.insert(stream.end(), enc.begin(), enc.end());
      sent.push_back(std::move(f));
    }
    // ...fed to the parser in random-sized fragments...
    dist::FrameParser parser;
    std::vector<dist::Frame> got;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t n =
          std::min<std::size_t>(1 + rng.next_below(777), stream.size() - off);
      parser.feed(BytesView(stream).subspan(off, n));
      off += n;
      while (std::optional<dist::Frame> f = parser.next()) {
        got.push_back(*std::move(f));
      }
    }
    // ...must come out exactly as sent, regardless of fragmentation.
    ASSERT_EQ(got.size(), sent.size()) << "round " << round;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].type, sent[i].type);
      EXPECT_EQ(got[i].payload, sent[i].payload);
    }
    EXPECT_EQ(parser.buffered(), 0u);
  }
}

TEST(DistProtocol, EveryTruncationIsPartialNeverGarbage) {
  Bytes payload(137);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  const Bytes frame = dist::encode_frame(dist::FrameType::kWork, payload);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    dist::FrameParser parser;
    parser.feed(BytesView(frame).subspan(0, cut));
    // A prefix of a valid frame is always "not yet", never a parsed frame
    // and never an error...
    EXPECT_EQ(parser.next(), std::nullopt) << "cut at " << cut;
    // ...and completing the bytes completes the frame.
    parser.feed(BytesView(frame).subspan(cut));
    const std::optional<dist::Frame> f = parser.next();
    ASSERT_TRUE(f.has_value()) << "cut at " << cut;
    EXPECT_EQ(f->payload, payload);
  }
}

TEST(DistProtocol, EveryByteFlipIsDetected) {
  Bytes payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  const Bytes frame = dist::encode_frame(dist::FrameType::kResult, payload);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes bad = frame;
    bad[i] ^= 0x40;
    dist::FrameParser parser;
    parser.feed(bad);
    // A flipped byte may surface as ProtocolError (magic, type, checksum) or
    // as an eternal partial (length grew) — but never as a decoded frame.
    try {
      const std::optional<dist::Frame> f = parser.next();
      EXPECT_EQ(f, std::nullopt) << "flip at " << i;
    } catch (const dist::ProtocolError&) {
      // detected: good
    }
  }
}

TEST(DistProtocol, OversizedLengthIsRejectedBeforeBuffering) {
  Bytes header(9);
  const std::uint32_t magic = dist::kFrameMagic;
  std::memcpy(header.data(), &magic, 4);
  header[4] = static_cast<std::uint8_t>(dist::FrameType::kWork);
  const std::uint32_t huge = dist::kMaxFramePayload + 1;
  std::memcpy(header.data() + 5, &huge, 4);
  dist::FrameParser parser;
  parser.feed(header);
  EXPECT_THROW(parser.next(), dist::ProtocolError);
}

TEST(DistProtocol, MessagesRoundTrip) {
  dist::HelloMsg hello;
  hello.worker_seed = 0xfeedbeef;
  hello.scenario = Digest128{123, 456};
  const dist::HelloMsg hello2 = dist::HelloMsg::decode(hello.encode());
  EXPECT_EQ(hello2.version, dist::kProtocolVersion);
  EXPECT_EQ(hello2.worker_seed, hello.worker_seed);
  EXPECT_EQ(hello2.scenario, hello.scenario);

  dist::WelcomeMsg wel;
  wel.conn_id = 42;
  EXPECT_EQ(dist::WelcomeMsg::decode(wel.encode()).conn_id, 42u);

  dist::HeartbeatMsg hb;
  hb.seq = 7;
  EXPECT_EQ(dist::HeartbeatMsg::decode(hb.encode()).seq, 7u);

  dist::ResultMsg res;
  res.unit = 9;
  res.result = {1, 2, 3, 4, 5};
  const dist::ResultMsg res2 = dist::ResultMsg::decode(res.encode());
  EXPECT_EQ(res2.unit, 9u);
  EXPECT_EQ(res2.result, res.result);

  dist::WorkMsg work;
  work.unit = 31;
  work.tag = 3;
  work.message_name = "Prepare";
  work.time = 1234567;
  work.windows = 2;
  work.has_action = true;
  work.action.target_tag = 3;
  work.action.message_name = "Prepare";
  work.blob_digest = Digest128{77, 88};
  work.has_blob = true;
  work.blob = {9, 8, 7};
  dist::WorkMsg::PageDelta d;
  d.hash = 0xabcdef;
  d.slot = 1;
  d.content.assign(vm::kPageSize, 0x5a);
  work.pages.push_back(d);
  const dist::WorkMsg work2 = dist::WorkMsg::decode(work.encode());
  EXPECT_EQ(work2.unit, 31u);
  EXPECT_EQ(work2.tag, 3);
  EXPECT_EQ(work2.message_name, "Prepare");
  EXPECT_EQ(work2.time, 1234567);
  EXPECT_EQ(work2.windows, 2);
  ASSERT_TRUE(work2.has_action);
  EXPECT_EQ(work2.action.describe(), work.action.describe());
  EXPECT_EQ(work2.blob_digest, work.blob_digest);
  ASSERT_TRUE(work2.has_blob);
  EXPECT_EQ(work2.blob, work.blob);
  ASSERT_EQ(work2.pages.size(), 1u);
  EXPECT_EQ(work2.pages[0].hash, 0xabcdefu);
  EXPECT_EQ(work2.pages[0].slot, 1u);
  EXPECT_EQ(work2.pages[0].content, d.content);
  EXPECT_FALSE(work2.from_start);

  // A brute-force unit runs from t = 0 and carries no snapshot.
  dist::WorkMsg full;
  full.unit = 32;
  full.tag = 3;
  full.message_name = "Prepare";
  full.time = 1234567;
  full.windows = 2;
  full.has_action = true;
  full.action = work.action;
  full.from_start = true;
  const Bytes full_bytes = full.encode();
  const dist::WorkMsg full2 = dist::WorkMsg::decode(full_bytes);
  EXPECT_EQ(full2.unit, 32u);
  EXPECT_EQ(full2.tag, 3);
  EXPECT_EQ(full2.message_name, "Prepare");
  EXPECT_EQ(full2.time, 1234567);
  EXPECT_EQ(full2.windows, 2);
  ASSERT_TRUE(full2.has_action);
  EXPECT_EQ(full2.action.describe(), work.action.describe());
  EXPECT_TRUE(full2.from_start);
  EXPECT_FALSE(full2.has_blob);
  EXPECT_TRUE(full2.pages.empty());
  EXPECT_LT(full_bytes.size(), work.encode().size());
}

TEST(DistProtocol, WorkMsgRejectsWrongPageSize) {
  dist::WorkMsg work;
  work.has_blob = true;
  work.blob = {1};
  dist::WorkMsg::PageDelta d;
  d.content.assign(vm::kPageSize - 1, 0);  // one byte short
  work.pages.push_back(d);
  EXPECT_THROW(dist::WorkMsg::decode(work.encode()), dist::ProtocolError);
}

TEST(DistProtocol, ScenarioFingerprintSeparatesIncompatibleScenarios) {
  const Scenario a = pbft_scenario();
  const Scenario b = pbft_scenario();
  EXPECT_EQ(dist::scenario_fingerprint(a), dist::scenario_fingerprint(b));

  Scenario seed = pbft_scenario();
  seed.testbed.seed ^= 1;
  EXPECT_NE(dist::scenario_fingerprint(a), dist::scenario_fingerprint(seed));

  Scenario delta = pbft_scenario();
  delta.delta += 0.05;
  EXPECT_NE(dist::scenario_fingerprint(a), dist::scenario_fingerprint(delta));

  Scenario mal = pbft_scenario();
  mal.malicious.insert(static_cast<NodeId>(2));
  EXPECT_NE(dist::scenario_fingerprint(a), dist::scenario_fingerprint(mal));
}

// ---------------------------------------------------------------------------
// DistInProcess: coordinator + workers on std::thread in this process.

TEST(DistInProcess, OneThreadWorkerMatchesInProcess) {
  const Scenario sc = pbft_scenario();
  // Weighted greedy ships snapshot branches; brute force ships runs from
  // t = 0 that carry no snapshot.
  const std::vector<std::function<SearchResult(search::RemoteBackend*)>>
      searches = {
          [&](search::RemoteBackend* remote) {
            return weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr,
                                          remote);
          },
          [&](search::RemoteBackend* remote) {
            return brute_force_search(sc, nullptr, nullptr, remote);
          },
      };
  for (const auto& search : searches) {
    const std::string ref = search(nullptr).to_json();

    dist::Coordinator coord(sc, {});
    dist::WorkerOptions wopt;
    wopt.seed = 7;
    wopt.exit_process_on_fault = false;  // thread mode
    int rc = -1;
    std::thread worker([&] {
      rc = dist::run_worker(sc, "127.0.0.1", coord.port(), wopt);
    });
    ASSERT_TRUE(coord.wait_for_workers(1, 15'000'000'000));
    trace::ScopedTrace t(trace::Clock::kVirtual);
    const SearchResult res = search(&coord);
    const std::uint64_t merged =
        trace::counters().dist_units_merged.load(std::memory_order_relaxed);
    coord.shutdown();
    worker.join();
    EXPECT_EQ(rc, dist::kWorkerClean);
    EXPECT_EQ(res.to_json(), ref) << res.algorithm;
    EXPECT_GT(merged, 0u) << res.algorithm << ": no branch ran on the worker";
    EXPECT_FALSE(res.attacks.empty())
        << "scenario found no attacks; the determinism check would be vacuous";
  }
}

TEST(DistInProcess, NoWorkersDegradesToLocal) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t fallbacks_before =
      trace::counters().dist_local_fallbacks.load(std::memory_order_relaxed);
  dist::Coordinator coord(sc, {});  // nobody will ever connect
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  EXPECT_EQ(res.to_json(), ref);
  EXPECT_GT(
      trace::counters().dist_local_fallbacks.load(std::memory_order_relaxed),
      fallbacks_before)
      << "every branch should have degraded to the local pool";
}

TEST(DistInProcess, ThreadChaosStaysByteIdentical) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t deaths_before =
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed);
  const std::uint64_t reassign_before =
      trace::counters().dist_reassignments.load(std::memory_order_relaxed);

  // One worker dies starting its 3rd unit; somewhere around the 40th
  // transport read a recv fault tears a connection. (The sites are global to
  // this process, so the recv fault may hit either worker or the
  // coordinator — all three are recovery paths that must not change the
  // result.)
  fault::ScopedFaults faults("dist-worker-exit:hit:3,dist-recv:hit:40");

  dist::Coordinator coord(sc, {});
  dist::WorkerOptions wopt;
  wopt.exit_process_on_fault = false;
  std::vector<std::thread> workers;
  std::vector<int> rcs(2, -1);
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      dist::WorkerOptions o = wopt;
      o.seed = 100 + static_cast<std::uint64_t>(w);
      rcs[w] = dist::run_worker(sc, "127.0.0.1", coord.port(), o);
    });
  }
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(res.to_json(), ref)
      << "worker death / transport faults changed the SearchResult";
  EXPECT_GE(
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed),
      deaths_before + 1);
  EXPECT_GE(
      trace::counters().dist_reassignments.load(std::memory_order_relaxed),
      reassign_before + 1)
      << "the died-mid-unit lease should have been reassigned";
}

// ---------------------------------------------------------------------------
// DistSearch: forked worker processes (the production shape).

TEST(DistSearch, ForkedWorkersMatchInProcessAtAnyCount) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();
  for (const unsigned n : {1u, 4u}) {
    dist::Coordinator coord(sc, {});
    dist::WorkerOptions wopt;
    wopt.seed = 7;
    coord.spawn_workers(n, wopt);
    ASSERT_TRUE(coord.wait_for_workers(n, 15'000'000'000)) << n << " workers";
    const SearchResult res =
        weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
    coord.shutdown();
    EXPECT_EQ(res.to_json(), ref) << n << " workers";
  }
}

TEST(DistSearch, CowPagesShipAcrossProcesses) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t sent_before =
      trace::counters().dist_units_sent.load(std::memory_order_relaxed);
  dist::Coordinator coord(sc, {});
  dist::WorkerOptions wopt;
  wopt.seed = 7;
  coord.spawn_workers(2, wopt);
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();
  EXPECT_EQ(res.to_json(), ref)
      << "remote execution diverged from in-process";
  EXPECT_GT(trace::counters().dist_units_sent.load(std::memory_order_relaxed),
            sent_before)
      << "nothing was actually shipped; the parity check would be vacuous";
}

// ---------------------------------------------------------------------------
// DistChaos: crashes in forked workers.

TEST(DistChaos, FaultInjectedCrashesStayByteIdentical) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t deaths_before =
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed);
  const std::uint64_t reassign_before =
      trace::counters().dist_reassignments.load(std::memory_order_relaxed);

  dist::Coordinator coord(sc, {});
  // Worker 1 _exit(9)s at its 3rd unit — a deterministic SIGKILL mid-batch.
  dist::WorkerOptions die;
  die.seed = 1;
  die.faults = "dist-worker-exit:hit:3";
  coord.spawn_workers(1, die);
  // Worker 2 takes a transport fault on its 20th read and must reconnect.
  dist::WorkerOptions drop;
  drop.seed = 2;
  drop.faults = "dist-recv:hit:20";
  coord.spawn_workers(1, drop);
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();

  EXPECT_EQ(res.to_json(), ref)
      << "worker crash / transport fault changed the SearchResult";
  EXPECT_GE(
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed),
      deaths_before + 1);
  EXPECT_GE(
      trace::counters().dist_reassignments.load(std::memory_order_relaxed),
      reassign_before + 1)
      << "the crashed worker's lease should have been reassigned";
}

TEST(DistChaos, LoneWorkerDeathHandsItsUnitToThePool) {
  // The only worker dies holding a unit: the coordinator claimed that unit
  // before granting it, so the pool's own task for it already stood down,
  // and the executor must queue it again locally.
  const Scenario sc = pbft_scenario();
  set_default_jobs(4);
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t deaths_before =
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed);
  dist::Coordinator coord(sc, {});
  dist::WorkerOptions die;
  die.seed = 3;
  die.faults = "dist-worker-exit:hit:1";
  coord.spawn_workers(1, die);
  ASSERT_TRUE(coord.wait_for_workers(1, 15'000'000'000));
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();
  set_default_jobs(0);

  EXPECT_EQ(res.to_json(), ref);
  EXPECT_GE(
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed),
      deaths_before + 1)
      << "the worker never took a unit; the check would be vacuous";
}

TEST(DistChaos, RealSigkillMidSearchStaysByteIdentical) {
  const Scenario sc = pbft_scenario();
  const std::string ref = weighted_greedy_search(sc).to_json();

  trace::ScopedTrace t(trace::Clock::kVirtual);
  const std::uint64_t merged_before =
      trace::counters().dist_units_merged.load(std::memory_order_relaxed);
  const std::uint64_t deaths_before =
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed);

  dist::Coordinator coord(sc, {});
  dist::WorkerOptions wopt;
  wopt.seed = 5;
  coord.spawn_workers(2, wopt);
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  const pid_t victim = coord.worker_pids().front();

  // SIGKILL one worker as soon as the fleet has proven itself alive (first
  // merged unit) — mid-search, with most of the workload still ahead.
  std::atomic<bool> stop{false};
  std::thread killer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (trace::counters().dist_units_merged.load(
              std::memory_order_relaxed) > merged_before) {
        ::kill(victim, SIGKILL);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const SearchResult res =
      weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  stop.store(true, std::memory_order_relaxed);
  killer.join();
  coord.shutdown();  // reaps the SIGKILLed child too

  EXPECT_EQ(res.to_json(), ref) << "SIGKILL changed the SearchResult";
  EXPECT_GE(
      trace::counters().dist_worker_deaths.load(std::memory_order_relaxed),
      deaths_before + 1)
      << "the coordinator never noticed the SIGKILL";
}

// ---------------------------------------------------------------------------
// GracefulShutdown: cooperative cancellation leaves a resumable journal.

TEST(GracefulShutdown, CancelThenResumeReproducesTheUninterruptedResult) {
  search::clear_cancel();
  const Scenario sc = pbft_scenario();
  // Weighted greedy on the pool; brute force with one job, where every
  // branch runs inline on the searching thread.
  static const wire::Schema four_types = wire::parse_schema(kFourTypeSchema);
  Scenario brute_sc = pbft_scenario();
  brute_sc.schema = &four_types;
  struct Case {
    unsigned jobs;
    std::function<SearchResult(search::Journal*)> search;
  };
  const std::vector<Case> cases = {
      {0,
       [&](search::Journal* j) {
         return weighted_greedy_search(sc, {}, nullptr, j);
       }},
      {1,
       [&](search::Journal* j) { return brute_force_search(brute_sc, j); }},
  };
  for (const Case& c : cases) {
    set_default_jobs(c.jobs);
    const SearchResult full = c.search(nullptr);
    const std::string ref = full.to_json();

    const std::string jpath =
        (std::filesystem::path(::testing::TempDir()) /
         ("dist_cancel_" + std::to_string(::getpid()) + ".journal"))
            .string();
    std::remove(jpath.c_str());

    // Cancel mid-search, but only after the first batch has reached the
    // journal — a fixed sleep races the first append under sanitizer
    // slowdowns. appended() is mutex-guarded, so polling it from this
    // thread is safe; the search has many batches left at that point, so
    // the cancel always lands before completion.
    bool cancelled = false;
    {
      auto journal = search::Journal::open(jpath, false);
      std::thread canceller([jp = journal.get()] {
        while (jp->appended() == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        search::request_cancel();
      });
      try {
        c.search(journal.get());
      } catch (const search::CancelledError&) {
        cancelled = true;
      }
      canceller.join();
      search::clear_cancel();
    }
    ASSERT_TRUE(cancelled)
        << full.algorithm
        << ": search finished before the cancel landed; raise the workload";

    // Resume must replay the journaled prefix and reproduce the
    // uninterrupted result byte-for-byte.
    auto journal = search::Journal::open(jpath, true);
    EXPECT_GT(journal->recorded(), 0u)
        << full.algorithm << ": cancellation flushed no progress";
    const SearchResult resumed = c.search(journal.get());
    EXPECT_GT(journal->replayed(), 0u) << full.algorithm;
    EXPECT_EQ(resumed.to_json(), ref) << full.algorithm;
    std::remove(jpath.c_str());
  }
  set_default_jobs(0);
}

// ---------------------------------------------------------------------------
// FleetTelemetry: the core stats block must be byte-identical whether branches
// execute in-process or on forked workers, because execution-site counters
// (emu_events, proxy_*, budget_aborts, cow_page_faults) travel back in v2
// ResultMsg deltas and are merged exactly once per accepted unit. Shape-
// dependent facts (dist_*, per-worker breakdown) live in the separate fleet
// block, which is excluded from these comparisons by design.

std::string stats_json(const Scenario& sc, unsigned jobs, unsigned workers) {
  set_default_jobs(jobs);
  trace::ScopedTrace t(trace::Clock::kVirtual);
  std::string out;
  if (workers == 0) {
    weighted_greedy_search(sc);
    out = search::capture_telemetry().to_json();
  } else {
    dist::Coordinator coord(sc, {});
    dist::WorkerOptions wopt;
    wopt.seed = 7;
    coord.spawn_workers(workers, wopt);
    EXPECT_TRUE(coord.wait_for_workers(workers, 15'000'000'000));
    weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
    coord.shutdown();
    out = search::capture_telemetry().to_json();
  }
  set_default_jobs(0);
  return out;
}

TEST(FleetTelemetry, StatsBlockByteIdenticalAcrossJobsAndWorkers) {
  const Scenario sc = pbft_scenario();
  const std::string ref = stats_json(sc, 1, 0);
  EXPECT_EQ(stats_json(sc, 4, 0), ref) << "jobs=4";
  EXPECT_EQ(stats_json(sc, 1, 2), ref) << "workers=2";
}

TEST(FleetTelemetry, FleetBlockReportsPerWorkerExecutionCounters) {
  const Scenario sc = pbft_scenario();
  trace::ScopedTrace t(trace::Clock::kVirtual);
  dist::Coordinator coord(sc, {});
  dist::WorkerOptions wopt;
  wopt.seed = 7;
  coord.spawn_workers(2, wopt);
  ASSERT_TRUE(coord.wait_for_workers(2, 15'000'000'000));
  weighted_greedy_search(sc, {}, nullptr, nullptr, nullptr, &coord);
  coord.shutdown();

  search::TelemetrySnapshot stats = search::capture_telemetry();
  coord.fill_fleet(stats);
  EXPECT_EQ(stats.workers, 2u);
  ASSERT_EQ(stats.per_worker.size(), 2u);
  std::uint64_t units = 0;
  std::uint64_t emu = 0;
  for (const search::WorkerTelemetry& w : stats.per_worker) {
    units += w.units;
    emu += w.counters.emu_events;
  }
  EXPECT_GT(units, 0u) << "no unit ever carried a telemetry delta";
  EXPECT_GT(emu, 0u) << "workers executed branches but shipped no events";

  // The core block must not leak fleet keys, and vice versa.
  const std::string core = stats.to_json();
  EXPECT_EQ(core.find("dist_"), std::string::npos) << core;
  const std::string fleet = stats.fleet_json();
  EXPECT_NE(fleet.find("\"workers\":2"), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("\"per_worker\":["), std::string::npos) << fleet;
  EXPECT_NE(fleet.find("\"dist_units_merged\":"), std::string::npos) << fleet;
}

}  // namespace
}  // namespace turret
