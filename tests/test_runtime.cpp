// Runtime tests: metrics collector, testbed timer semantics, CPU model
// integration, crash capture, and whole-testbed snapshot behaviour.
#include <gtest/gtest.h>

#include <algorithm>

#include "runtime/metrics.h"
#include "runtime/testbed.h"

namespace turret::runtime {
namespace {

// --- MetricsCollector -------------------------------------------------------

TEST(Metrics, RateOverWindow) {
  MetricsCollector m;
  for (int i = 0; i < 10; ++i) m.count("updates", i * 100 * kMillisecond);
  // 10 events over [0, 1 s): 10/s.
  EXPECT_DOUBLE_EQ(m.rate("updates", 0, kSecond), 10.0);
  // Half the window: events at 0..400 ms.
  EXPECT_DOUBLE_EQ(m.total("updates", 0, 500 * kMillisecond), 5.0);
  EXPECT_DOUBLE_EQ(m.rate("updates", kSecond, 2 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("missing", 0, kSecond), 0.0);
}

TEST(Metrics, WindowBoundariesAreHalfOpen) {
  MetricsCollector m;
  m.count("x", kSecond);
  EXPECT_DOUBLE_EQ(m.total("x", 0, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, 2 * kSecond), 1.0);
}

TEST(Metrics, SummaryMinMeanMax) {
  MetricsCollector m;
  m.record("lat", 1, 4.0);
  m.record("lat", 2, 6.0);
  m.record("lat", 3, 11.0);
  const SeriesSummary s = m.summary("lat", 0, 10);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 11.0);
  EXPECT_DOUBLE_EQ(s.mean(), 7.0);
  EXPECT_EQ(m.summary("lat", 5, 10).count, 0u);
}

TEST(Metrics, EmptyAndInvertedWindowsAreZero) {
  MetricsCollector m;
  m.count("x", kSecond);
  m.record("lat", kSecond, 5.0);
  // Empty window (t1 == t0): nothing can fall in a half-open empty interval.
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", kSecond, kSecond), 0.0);
  EXPECT_EQ(m.summary("lat", kSecond, kSecond).count, 0u);
  // Inverted window (t1 < t0): same, never a negative rate or a wild sum.
  EXPECT_DOUBLE_EQ(m.total("x", 2 * kSecond, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", 2 * kSecond, 0), 0.0);
  EXPECT_EQ(m.summary("lat", 2 * kSecond, 0).count, 0u);
  // Inverted with negative times, in case a caller subtracts past zero.
  EXPECT_DOUBLE_EQ(m.total("x", kSecond, -kSecond), 0.0);
  EXPECT_DOUBLE_EQ(m.rate("x", kSecond, -kSecond), 0.0);
}

TEST(Metrics, SummaryOfEmptyWindowHasSafeMean) {
  MetricsCollector m;
  m.record("lat", kSecond, 5.0);
  const SeriesSummary s = m.summary("lat", 3 * kSecond, 2 * kSecond);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  // mean() on an empty summary must not divide by zero.
  const double mean = s.mean();
  EXPECT_TRUE(mean == mean) << "mean of empty summary is NaN";
}

TEST(Metrics, RejectsOutOfOrderSamples) {
  MetricsCollector m;
  m.count("x", 100);
  EXPECT_THROW(m.count("x", 50), std::logic_error);
}

TEST(Metrics, SaveLoadRoundTrips) {
  MetricsCollector a;
  a.count("updates", 10, 1);
  a.count("updates", 20, 1);
  a.record("lat", 15, 2.5);
  serial::Writer w;
  a.save(w);
  MetricsCollector b;
  serial::Reader r(w.data());
  b.load(r);
  EXPECT_DOUBLE_EQ(b.total("updates", 0, 100), 2.0);
  EXPECT_DOUBLE_EQ(b.summary("lat", 0, 100).mean(), 2.5);
  EXPECT_EQ(b.metric_names().size(), 2u);
}

// --- Testbed ----------------------------------------------------------------

// A guest that exercises timers, sends, CPU consumption and crash paths.
struct Worker : vm::GuestNode {
  int started = 0;
  int msgs = 0;
  int timer_fires = 0;
  bool crash_on_message = false;

  void start(vm::GuestContext& ctx) override {
    ++started;
    ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    if (crash_on_message) throw vm::GuestFault("boom");
    ++msgs;
    ctx.count("received");
    if (!m.empty() && m[0] == 'p') {  // ping: reply pong
      ctx.send(src, to_bytes("q"));
    }
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    ++timer_fires;
    if (id == 1 && timer_fires < 3) ctx.set_timer(1, 10 * kMillisecond);
    if (id == 2) ADD_FAILURE() << "cancelled timer fired";
    ctx.record("fires", timer_fires);
  }
  void save(serial::Writer& w) const override {
    w.i32(started);
    w.i32(msgs);
    w.i32(timer_fires);
    w.boolean(crash_on_message);
  }
  void load(serial::Reader& r) override {
    started = r.i32();
    msgs = r.i32();
    timer_fires = r.i32();
    crash_on_message = r.boolean();
  }
  std::string_view kind() const override { return "worker"; }
};

TestbedConfig two_nodes() {
  TestbedConfig cfg;
  cfg.net.nodes = 2;
  cfg.net.default_link.delay = kMillisecond;
  return cfg;
}

TEST(Testbed, StartsGuestsAndRunsTimers) {
  Testbed tb(two_nodes(),
             [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  tb.run_for(100 * kMillisecond);
  auto& g = dynamic_cast<Worker&>(tb.machine(0).guest());
  EXPECT_EQ(g.started, 1);
  EXPECT_EQ(g.timer_fires, 3);  // re-armed twice, then stops
}

TEST(Testbed, RoutesMessagesBetweenGuests) {
  Testbed tb(two_nodes(),
             [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("p"));
  tb.run_for(100 * kMillisecond);
  auto& g0 = dynamic_cast<Worker&>(tb.machine(0).guest());
  auto& g1 = dynamic_cast<Worker&>(tb.machine(1).guest());
  EXPECT_EQ(g1.msgs, 1);
  EXPECT_EQ(g0.msgs, 1) << "pong should come back";
  EXPECT_DOUBLE_EQ(tb.metrics().total("received", 0, kSecond), 2.0);
}

TEST(Testbed, CancelledTimerNeverFires) {
  struct Canceller : Worker {
    void start(vm::GuestContext& ctx) override {
      ctx.set_timer(2, 5 * kMillisecond);
      ctx.cancel_timer(2);
      ctx.set_timer(1, 50 * kMillisecond);
    }
  };
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Canceller>(); });
  tb.start();
  tb.run_for(200 * kMillisecond);  // Worker::on_timer fails the test if id 2 fires
}

TEST(Testbed, RearmReplacesPreviousTimer) {
  struct Rearm : Worker {
    void start(vm::GuestContext& ctx) override {
      ctx.set_timer(1, 5 * kMillisecond);
      ctx.set_timer(1, 50 * kMillisecond);  // replaces the 5 ms instance
    }
    void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
      ++timer_fires;
      EXPECT_GE(ctx.now(), 50 * kMillisecond);
    }
  };
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Rearm>(); });
  tb.start();
  tb.run_for(200 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Rearm&>(tb.machine(0).guest()).timer_fires, 1);
}

// Arms timer 1 a thousand times in start(), each arm replacing the last and
// the final one due at 1 s, plus timer 2 once; records when timer 1 fires.
struct ManyRearms : vm::GuestNode {
  bool cancel = false;
  int fires = 0;
  Time fired_at = -1;

  void start(vm::GuestContext& ctx) override {
    for (int i = 1; i <= 1000; ++i) ctx.set_timer(1, i * kMillisecond);
    ctx.set_timer(2, 2 * kSecond);
    if (cancel) ctx.cancel_timer(1);
  }
  void on_message(vm::GuestContext&, NodeId, BytesView) override {}
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    if (id != 1) return;
    ++fires;
    fired_at = ctx.now();
  }
  void save(serial::Writer& w) const override {
    w.boolean(cancel);
    w.i32(fires);
    w.i64(fired_at);
  }
  void load(serial::Reader& r) override {
    cancel = r.boolean();
    fires = r.i32();
    fired_at = r.i64();
  }
  std::string_view kind() const override { return "many-rearms"; }
};

TestbedConfig one_node() {
  TestbedConfig cfg;
  cfg.net.nodes = 1;
  return cfg;
}

/// True when `t` is the 1 s deadline plus at most the handler's CPU cost.
bool fired_at_deadline(Time t) { return t >= kSecond && t < kSecond + kMillisecond; }

TEST(Testbed, RearmingATimerKeepsOnePendingEvent) {
  Testbed tb(one_node(), [](NodeId) { return std::make_unique<ManyRearms>(); });
  tb.start();
  EXPECT_EQ(tb.emulator().pending_events(), 2u) << "one event per armed timer";
  tb.run_for(3 * kSecond);
  const auto& g = dynamic_cast<ManyRearms&>(tb.machine(0).guest());
  EXPECT_EQ(g.fires, 1);
  EXPECT_TRUE(fired_at_deadline(g.fired_at)) << g.fired_at;
  EXPECT_EQ(tb.emulator().stats().events_processed, 4u)
      << "two timers, each fire plus its handler completion";
}

TEST(Testbed, CancelTimerRemovesItsPendingEvent) {
  Testbed tb(one_node(), [](NodeId) {
    auto g = std::make_unique<ManyRearms>();
    g->cancel = true;
    return g;
  });
  tb.start();
  EXPECT_EQ(tb.emulator().pending_events(), 1u) << "only timer 2 is left";
  tb.run_for(3 * kSecond);
  EXPECT_EQ(dynamic_cast<ManyRearms&>(tb.machine(0).guest()).fires, 0);
}

TEST(Testbed, SnapshotHoldsOneTimerEventPerArmedTimer) {
  const TestbedConfig cfg = two_nodes();
  Testbed a(cfg, [](NodeId) { return std::make_unique<ManyRearms>(); });
  a.start();
  a.run_for(10 * kMillisecond);
  const Bytes snap = a.save_snapshot();

  // The emulator section: clock, frozen flag, seq and msg-id counters, then
  // the pending events in (at, seq) order.
  const DecodedSnapshot d = Testbed::decode_snapshot(snap, cfg.snapshot.store.get());
  serial::Reader r(d.emu_section);
  r.i64();
  r.boolean();
  r.u64();
  r.u64();
  std::vector<std::pair<NodeId, std::uint64_t>> timers;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const netem::Event e = netem::Event::load(r);
    if (e.kind == netem::EventKind::kTimer) timers.emplace_back(e.node, e.a);
  }
  std::sort(timers.begin(), timers.end());
  const std::vector<std::pair<NodeId, std::uint64_t>> want = {
      {0, 1}, {0, 2}, {1, 1}, {1, 2}};
  EXPECT_EQ(timers, want);

  Testbed b(cfg, [](NodeId) { return std::make_unique<ManyRearms>(); });
  b.load_snapshot(snap);
  EXPECT_EQ(b.emulator().pending_events(), 4u);
  b.run_until(3 * kSecond);
  for (NodeId id = 0; id < 2; ++id) {
    const auto& g = dynamic_cast<ManyRearms&>(b.machine(id).guest());
    EXPECT_EQ(g.fires, 1) << "node " << id;
    EXPECT_TRUE(fired_at_deadline(g.fired_at)) << g.fired_at;
  }
}

TEST(Testbed, NegativeTimerDelayIsAGuestCrash) {
  struct Backwards : Worker {
    void start(vm::GuestContext& ctx) override { ctx.set_timer(1, -1); }
  };
  Testbed tb(one_node(), [](NodeId) { return std::make_unique<Backwards>(); });
  tb.start();  // absorbed at the crash boundary, never a platform bug
  ASSERT_EQ(tb.crashed_nodes(), std::vector<NodeId>{0});
  EXPECT_NE(tb.machine(0).crash_reason().find("negative delay"),
            std::string::npos)
      << tb.machine(0).crash_reason();
  EXPECT_EQ(tb.emulator().pending_events(), 0u);
}

TEST(Testbed, GuestFaultBecomesCrashNotAbort) {
  Testbed tb(two_nodes(), [](NodeId id) {
    auto g = std::make_unique<Worker>();
    g->crash_on_message = (id == 1);
    return g;
  });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("x"));
  tb.run_for(100 * kMillisecond);
  ASSERT_EQ(tb.crashed_nodes().size(), 1u);
  EXPECT_EQ(tb.crashed_nodes()[0], 1u);
  EXPECT_EQ(tb.machine(1).crash_reason(), "boom");
  EXPECT_DOUBLE_EQ(tb.metrics().total("guest_crashes", 0, kSecond), 1.0);
  // The dead guest receives nothing further.
  tb.emulator().send_message(0, 1, to_bytes("y"));
  tb.run_for(100 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Worker&>(tb.machine(1).guest()).msgs, 0);
}

TEST(Testbed, ConsumeCpuDelaysQueuedInput) {
  struct Burner : Worker {
    void on_message(vm::GuestContext& ctx, NodeId, BytesView) override {
      ++msgs;
      ctx.consume_cpu(20 * kMillisecond);
      ctx.count("done");
    }
  };
  TestbedConfig cfg = two_nodes();
  Testbed tb(cfg, [](NodeId) { return std::make_unique<Burner>(); });
  tb.start();
  tb.emulator().send_message(0, 1, to_bytes("a"));
  tb.emulator().send_message(0, 1, to_bytes("b"));
  tb.run_for(kSecond);
  // Second handler must start only after the first's 20 ms burn.
  EXPECT_DOUBLE_EQ(tb.metrics().total("done", 0, 21 * kMillisecond), 1.0);
  EXPECT_DOUBLE_EQ(tb.metrics().total("done", 0, 50 * kMillisecond), 2.0);
}

TEST(Testbed, SnapshotCapturesTimersInFlight) {
  // Both testbeds share one config, and with it the page store the snapshot
  // references.
  const TestbedConfig cfg = two_nodes();
  Testbed a(cfg, [](NodeId) { return std::make_unique<Worker>(); });
  a.start();
  a.run_for(5 * kMillisecond);  // first timer (10 ms) still pending
  const Bytes snap = a.save_snapshot();

  Testbed b(cfg, [](NodeId) { return std::make_unique<Worker>(); });
  b.load_snapshot(snap);
  b.run_until(100 * kMillisecond);
  EXPECT_EQ(dynamic_cast<Worker&>(b.machine(0).guest()).timer_fires, 3);
  // start() must not be called again on a restored testbed.
  EXPECT_EQ(dynamic_cast<Worker&>(b.machine(0).guest()).started, 1);
}

TEST(Testbed, SnapshotPreservesCrashState) {
  const TestbedConfig cfg = two_nodes();
  Testbed a(cfg, [](NodeId id) {
    auto g = std::make_unique<Worker>();
    g->crash_on_message = (id == 1);
    return g;
  });
  a.start();
  a.emulator().send_message(0, 1, to_bytes("x"));
  a.run_for(50 * kMillisecond);
  ASSERT_EQ(a.crashed_nodes().size(), 1u);
  const Bytes snap = a.save_snapshot();

  Testbed b(cfg, [](NodeId) { return std::make_unique<Worker>(); });
  b.load_snapshot(snap);
  ASSERT_EQ(b.crashed_nodes().size(), 1u);
  EXPECT_EQ(b.machine(1).crash_reason(), "boom");
}

TEST(Testbed, DoubleStartIsAPlatformBug) {
  Testbed tb(two_nodes(), [](NodeId) { return std::make_unique<Worker>(); });
  tb.start();
  EXPECT_THROW(tb.start(), std::logic_error);
}

}  // namespace
}  // namespace turret::runtime
