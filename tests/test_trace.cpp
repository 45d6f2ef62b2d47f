// Trace/telemetry layer: disarmed no-op, virtual-mode determinism (content
// sort, tid normalization, push-order independence), counter snapshots,
// buffer overflow accounting, Chrome JSON shape, stats-block splicing.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "search/telemetry.h"

namespace turret {
namespace {

using trace::Clock;
using trace::ScopedTrace;
using trace::TraceEvent;
using trace::Tracer;

TEST(Trace, DisabledByDefaultAndSpansAreNoOps) {
  ASSERT_FALSE(trace::active());
  {
    trace::Span s("test", "noop");
    s.at(5 * kSecond).lasted(kSecond).arg("k", std::int64_t{1});
  }
  trace::instant("test", "noop", kSecond);
  // Nothing was enabled, so nothing may have been recorded since the last
  // enable (there was none; buffer starts empty).
  EXPECT_TRUE(Tracer::instance().events().empty());
}

TEST(Trace, EnableResetsEventsAndCounters) {
  {
    ScopedTrace t(Clock::kVirtual);
    trace::instant("test", "a", kSecond);
    trace::counters().branch_attempts.fetch_add(7, std::memory_order_relaxed);
  }
  EXPECT_EQ(Tracer::instance().events().size(), 1u);
  ScopedTrace t(Clock::kVirtual);
  EXPECT_TRUE(Tracer::instance().events().empty());
  EXPECT_EQ(Tracer::instance().counters().snapshot().branch_attempts, 0u);
}

TEST(Trace, VirtualSpanStampsVirtualTimeAndTidZero) {
  ScopedTrace t(Clock::kVirtual);
  {
    trace::Span s("test", "branch");
    s.at(3 * kSecond).lasted(2 * kSecond).arg("outcome", "ok");
  }
  const std::vector<TraceEvent> evs = Tracer::instance().events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "branch");
  EXPECT_EQ(evs[0].phase, 'X');
  EXPECT_EQ(evs[0].tid, 0u);
  EXPECT_EQ(evs[0].ts_us, 3 * kSecond / kMicrosecond);
  EXPECT_EQ(evs[0].dur_us, 2 * kSecond / kMicrosecond);
  EXPECT_EQ(evs[0].args, "\"outcome\":\"ok\"");
}

TEST(Trace, VirtualModeSortsByContentNotPushOrder) {
  const auto emit = [](bool reversed) {
    ScopedTrace t(Clock::kVirtual);
    if (reversed) {
      trace::instant("test", "b", 2 * kSecond);
      trace::instant("test", "a", kSecond);
    } else {
      trace::instant("test", "a", kSecond);
      trace::instant("test", "b", 2 * kSecond);
    }
    return Tracer::instance().chrome_json();
  };
  EXPECT_EQ(emit(false), emit(true));
}

TEST(Trace, VirtualModeIdenticalAcrossThreads) {
  // The same event multiset pushed from one thread and from four threads
  // must serialize identically — the property branch spans rely on.
  const auto emit = [](unsigned jobs) {
    ScopedTrace t(Clock::kVirtual);
    const auto work = [](int i) {
      trace::Span s("test", "w");
      s.at(i * kSecond).lasted(kSecond).arg("i", static_cast<std::int64_t>(i));
    };
    if (jobs == 1) {
      for (int i = 0; i < 32; ++i) work(i);
    } else {
      ThreadPool pool(jobs);
      std::vector<std::future<void>> futures;
      for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([&work, i] { work(i); }));
      for (auto& f : futures) f.get();
    }
    return Tracer::instance().chrome_json();
  };
  const std::string serial = emit(1);
  EXPECT_EQ(serial, emit(4));
  EXPECT_NE(serial.find("\"clock\":\"virtual\""), std::string::npos);
}

TEST(Trace, WallModeRecordsWorkerIds) {
  ScopedTrace t(Clock::kWall);
  EXPECT_EQ(current_worker_id(), 0u);  // main thread is worker 0
  ThreadPool pool(3);
  std::vector<std::future<unsigned>> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(pool.submit([] {
      trace::Span s("test", "wall");
      return current_worker_id();
    }));
  for (auto& f : ids) {
    const unsigned id = f.get();
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, 3u);
  }
  for (const TraceEvent& e : Tracer::instance().events()) {
    EXPECT_GE(e.tid, 1u);
    EXPECT_LE(e.tid, 3u);
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
  }
}

TEST(Trace, OverflowDropsNewestAndCounts) {
  ScopedTrace t(Clock::kVirtual, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) trace::instant("test", "e", i * kSecond);
  EXPECT_EQ(Tracer::instance().events().size(), 4u);
  EXPECT_EQ(Tracer::instance().counters().snapshot().dropped_events, 6u);
}

TEST(Trace, ChromeJsonEscapesArgStrings) {
  ScopedTrace t(Clock::kVirtual);
  trace::instant("test", "esc", 0,
                 trace::Args().add("s", "a\"b\\c\nd\x01").take());
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\u0001"), std::string::npos);
}

TEST(Trace, ChromeJsonCarriesCounterSamples) {
  ScopedTrace t(Clock::kVirtual);
  trace::counters().decode_hits.fetch_add(5, std::memory_order_relaxed);
  trace::counters().decode_misses.fetch_add(2, std::memory_order_relaxed);
  const std::string json = Tracer::instance().chrome_json();
  EXPECT_NE(json.find("{\"name\":\"decode_hits\",\"cat\":\"counter\",\"ph\":"
                      "\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"args\":{\"value\":"
                      "5}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"otherData\":{\"clock\":\"virtual\"}"),
            std::string::npos);
}

TEST(Trace, VirtualTraceLeavesTransportCountersOut) {
  const char* transport[] = {
      "dist_units_sent",    "dist_units_merged", "dist_reassignments",
      "dist_worker_deaths", "dist_heartbeats",   "dist_local_fallbacks",
      "dist_bytes_sent",    "dist_bytes_recv"};
  // Same spans and core counters; only the timing-dependent transport
  // counters differ (heartbeats and frame bytes vary run to run).
  const auto trace_with = [](Clock clock, std::uint64_t heartbeats) {
    ScopedTrace t(clock);
    trace::instant("test", "e", kSecond);
    trace::counters().decode_hits.fetch_add(3, std::memory_order_relaxed);
    trace::counters().dist_heartbeats.fetch_add(heartbeats,
                                                std::memory_order_relaxed);
    trace::counters().dist_bytes_sent.fetch_add(heartbeats * 64,
                                                std::memory_order_relaxed);
    return Tracer::instance().chrome_json();
  };
  const std::string virt = trace_with(Clock::kVirtual, 76);
  EXPECT_EQ(virt, trace_with(Clock::kVirtual, 90));
  EXPECT_NE(virt.find("\"decode_hits\""), std::string::npos);
  const std::string wall = trace_with(Clock::kWall, 76);
  for (const char* name : transport) {
    const std::string key = std::string("\"") + name + "\"";
    EXPECT_EQ(virt.find(key), std::string::npos) << name;
    EXPECT_NE(wall.find(key), std::string::npos) << name;
  }
}

TEST(Telemetry, DerivedRates) {
  search::TelemetrySnapshot t;
  EXPECT_EQ(t.branches_per_sec(), 0.0);
  EXPECT_EQ(t.decode_hit_rate(), 0.0);
  t.counters.branch_attempts = 120;
  t.counters.evaluate_ns = 30ull * kSecond;
  t.counters.classify_ns = 10ull * kSecond;
  EXPECT_DOUBLE_EQ(t.branches_per_sec(), 3.0);
  t.counters.decode_hits = 3;
  t.counters.decode_misses = 1;
  EXPECT_DOUBLE_EQ(t.decode_hit_rate(), 0.75);
}

TEST(Telemetry, StatsBlockIsFixedOrderJsonWithoutWallInVirtualMode) {
  search::TelemetrySnapshot t;
  t.clock = Clock::kVirtual;
  t.wall_us = 1234;
  const std::string json = t.to_json();
  EXPECT_EQ(json.find("{\"clock\":\"virtual\",\"branches_per_sec\":"), 0u);
  EXPECT_EQ(json.find("wall_us"), std::string::npos);
  t.clock = Clock::kWall;
  EXPECT_NE(t.to_json().find("\"wall_us\":1234"), std::string::npos);
}

TEST(Telemetry, AppendStatsSplicesIntoReportJson) {
  search::TelemetrySnapshot t;
  t.counters.branch_attempts = 9;
  const std::string spliced = search::append_stats("{\"algorithm\":\"x\"}", t);
  EXPECT_EQ(spliced.find("{\"algorithm\":\"x\",\"stats\":{"), 0u);
  EXPECT_EQ(spliced.back(), '}');
  EXPECT_NE(spliced.find("\"branch_attempts\":9"), std::string::npos);
}

}  // namespace
}  // namespace turret
