// GuestContext::multicast: the testbed shares one buffer among a multicast's
// destinations, and that must be invisible to everything but the heap. Each
// equivalence test runs the same guests twice — once through the testbed's
// multicast, once through a forwarding context that overrides only send(),
// so multicast() falls back to one send per destination — and requires
// identical network, capture, metric and search artifacts.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/msgbuf.h"
#include "common/trace.h"
#include "runtime/testbed.h"
#include "search/algorithms.h"
#include "systems/registry.h"

namespace turret {
namespace {

/// Forwards every call to `inner` and overrides send() only: multicast()
/// takes GuestContext's default path, one send() per destination.
class SendOnlyContext final : public vm::GuestContext {
 public:
  explicit SendOnlyContext(vm::GuestContext& inner) : inner_(inner) {}

  NodeId self() const override { return inner_.self(); }
  std::uint32_t cluster_size() const override { return inner_.cluster_size(); }
  Time now() const override { return inner_.now(); }
  Rng& rng() override { return inner_.rng(); }
  void send(NodeId dst, Bytes message) override {
    inner_.send(dst, std::move(message));
  }
  void set_timer(std::uint64_t timer_id, Duration delay) override {
    inner_.set_timer(timer_id, delay);
  }
  void cancel_timer(std::uint64_t timer_id) override {
    inner_.cancel_timer(timer_id);
  }
  void consume_cpu(Duration d) override { inner_.consume_cpu(d); }
  void count(std::string_view metric, double increment) override {
    inner_.count(metric, increment);
  }
  void record(std::string_view metric, double value) override {
    inner_.record(metric, value);
  }

 private:
  vm::GuestContext& inner_;
};

/// Hands its guest a SendOnlyContext in every callback.
class SendOnlyGuest final : public vm::GuestNode {
 public:
  explicit SendOnlyGuest(std::unique_ptr<vm::GuestNode> inner)
      : inner_(std::move(inner)) {}

  void start(vm::GuestContext& ctx) override {
    SendOnlyContext c(ctx);
    inner_->start(c);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    SendOnlyContext c(ctx);
    inner_->on_message(c, src, m);
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t id) override {
    SendOnlyContext c(ctx);
    inner_->on_timer(c, id);
  }
  void save(serial::Writer& w) const override { inner_->save(w); }
  void load(serial::Reader& r) override { inner_->load(r); }
  std::string_view kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<vm::GuestNode> inner_;
};

runtime::GuestFactory send_only(runtime::GuestFactory inner) {
  return [inner = std::move(inner)](NodeId id) {
    return std::unique_ptr<vm::GuestNode>(
        std::make_unique<SendOnlyGuest>(inner(id)));
  };
}

/// Multicasts to `dsts` every 10 ms for `rounds` rounds, alternating a small
/// and a `big`-byte message; receivers count, record sizes and answer every
/// third message with a unicast.
struct Caster : vm::GuestNode {
  std::vector<NodeId> dsts;
  std::size_t small = 200;
  std::size_t big = 200;
  int rounds = 0;
  int sent = 0;
  int received = 0;

  void start(vm::GuestContext& ctx) override {
    if (!dsts.empty()) ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t) override {
    const std::size_t size = sent % 2 == 0 ? small : big;
    ctx.multicast(dsts, Bytes(size, static_cast<std::uint8_t>(sent)));
    ctx.count("multicasts");
    if (++sent < rounds) ctx.set_timer(1, 10 * kMillisecond);
  }
  void on_message(vm::GuestContext& ctx, NodeId src, BytesView m) override {
    ++received;
    ctx.count("received");
    ctx.record("bytes", static_cast<double>(m.size()));
    if (received % 3 == 0) ctx.send(src, Bytes(1, m.empty() ? 0 : m[0]));
  }
  void save(serial::Writer& w) const override {
    w.i32(sent);
    w.i32(received);
  }
  void load(serial::Reader& r) override {
    sent = r.i32();
    received = r.i32();
  }
  std::string_view kind() const override { return "caster"; }
};

runtime::TestbedConfig fleet(std::uint32_t nodes) {
  runtime::TestbedConfig cfg;
  cfg.net.nodes = nodes;
  cfg.net.default_link.delay = kMillisecond;
  return cfg;
}

/// Blocks allocated and not parked on this thread's free list.
std::int64_t live_blocks() {
  return MessageBuf::allocated_blocks() -
         static_cast<std::int64_t>(MessageBuf::thread_stats().free_blocks);
}

/// Forwards to the testbed and keeps a view of every delivered message.
struct KeepingSink : netem::MessageSink {
  explicit KeepingSink(netem::MessageSink& inner) : inner(inner) {}
  void on_message(NodeId dst, NodeId src, MessageBuf message) override {
    kept.push_back(message);
    inner.on_message(dst, src, std::move(message));
  }
  void on_event(const netem::Event& ev) override { inner.on_event(ev); }

  netem::MessageSink& inner;
  std::vector<MessageBuf> kept;
};

TEST(Multicast, ReceiversShareOneBufferBlock) {
  for (const bool decorated : {false, true}) {
    SCOPED_TRACE(decorated ? "send-only decorator" : "testbed multicast");
    runtime::GuestFactory factory =
        [](NodeId id) -> std::unique_ptr<vm::GuestNode> {
      auto g = std::make_unique<Caster>();
      if (id == 0) {
        g->dsts = {1, 2, 3};
        g->rounds = 1;
      }
      return g;
    };
    if (decorated) factory = send_only(std::move(factory));
    runtime::Testbed tb(fleet(4), std::move(factory));
    KeepingSink sink(tb);
    tb.emulator().set_sink(&sink);
    tb.start();
    const std::int64_t before = live_blocks();
    // After the sender's handler, before the first delivery (1 ms link).
    tb.run_until(10 * kMillisecond + 500 * kMicrosecond);
    const std::int64_t in_flight = live_blocks() - before;
    tb.run_for(100 * kMillisecond);

    ASSERT_EQ(sink.kept.size(), 3u);
    if (!decorated) {
      EXPECT_EQ(in_flight, 1) << "three copies in flight, one buffer block";
      for (const MessageBuf& m : sink.kept)
        EXPECT_TRUE(m.same_buffer(sink.kept[0]));
      EXPECT_EQ(sink.kept[0].use_count(), 3);
    } else {
      EXPECT_EQ(in_flight, 3) << "one send() per destination copies each";
      EXPECT_FALSE(sink.kept[1].same_buffer(sink.kept[0]));
    }
    for (const MessageBuf& m : sink.kept) EXPECT_EQ(m.size(), 200u);
  }
}

TEST(Multicast, TakesNoFreshBlockAfterWarmUp) {
  runtime::Testbed tb(fleet(4), [](NodeId id) {
    auto g = std::make_unique<Caster>();
    if (id == 0) {
      g->dsts = {1, 2, 3};
      g->rounds = 40;
    }
    return std::unique_ptr<vm::GuestNode>(std::move(g));
  });
  tb.start();
  tb.run_for(100 * kMillisecond);  // warm-up: the free list fills
  const MessageBuf::ThreadStats warm = MessageBuf::thread_stats();
  tb.run_for(400 * kMillisecond);
  EXPECT_EQ(MessageBuf::thread_stats().fresh_blocks, warm.fresh_blocks);
  EXPECT_EQ(dynamic_cast<Caster&>(tb.machine(0).guest()).sent, 40);
}

/// Duplicates every third message from an intercepted node and holds every
/// fifth, so shared buffers also cross the proxy's deliveries and holds.
struct Meddler : netem::IngressInterceptor {
  NodeId target = 0;
  int seen = 0;
  bool intercepts(NodeId src) const override { return src == target; }
  std::vector<Delivery> on_send(Time, NodeId, NodeId dst,
                                const MessageBuf& message) override {
    ++seen;
    if (seen % 5 == 0) return {{dst, message, 3 * kMillisecond}};
    if (seen % 3 == 0) return {{dst, message, 0}, {dst, message, 0}};
    return {{dst, message, 0}};
  }
};

/// Everything a run leaves behind that a shared buffer could perturb.
struct RunArtifacts {
  netem::EmulatorStats stats;
  Bytes emulator;
  Bytes metrics;
  Bytes capture;
  std::uint64_t unroutable = 0;
};

RunArtifacts run_casters(bool decorated) {
  runtime::TestbedConfig cfg = fleet(4);
  cfg.net.mtu = 512;  // the big message fragments
  cfg.net.default_link.loss_rate = 0.05;
  cfg.net.capture.enabled = true;
  runtime::GuestFactory factory =
      [](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    auto g = std::make_unique<Caster>();
    g->big = 1800;
    g->rounds = 30;
    if (id == 0) g->dsts = {3, 1, 2};
    if (id == 1) g->dsts = {0, 9, 2};  // 9 is outside the fleet
    return g;
  };
  if (decorated) factory = send_only(std::move(factory));
  trace::ScopedTrace trace;
  Meddler meddler;
  runtime::Testbed tb(cfg, std::move(factory));
  tb.emulator().set_interceptor(&meddler);
  tb.start();
  tb.run_for(kSecond);

  RunArtifacts out;
  out.stats = tb.emulator().stats();
  serial::Writer emu;
  tb.emulator().save(emu);
  out.emulator = emu.take();
  serial::Writer met;
  tb.metrics().save(met);
  out.metrics = met.take();
  serial::Writer cap;
  for (const netem::PacketRecord& r : tb.emulator().recorder()->records())
    r.save(cap);
  out.capture = cap.take();
  out.unroutable = trace::counters().unroutable_sends.load();
  return out;
}

TEST(Multicast, MatchesOneSendPerDestination) {
  const RunArtifacts shared = run_casters(false);
  const RunArtifacts copied = run_casters(true);
  EXPECT_EQ(shared.stats.messages_sent, copied.stats.messages_sent);
  EXPECT_EQ(shared.stats.messages_delivered, copied.stats.messages_delivered);
  EXPECT_EQ(shared.stats.packets_delivered, copied.stats.packets_delivered);
  EXPECT_EQ(shared.stats.packets_lost, copied.stats.packets_lost);
  EXPECT_EQ(shared.stats.events_processed, copied.stats.events_processed);
  EXPECT_EQ(shared.stats.reassembly_evicted, copied.stats.reassembly_evicted);
  EXPECT_GT(shared.stats.packets_lost, 0u) << "loss draws are exercised";
  EXPECT_EQ(shared.emulator, copied.emulator) << "pending events or msg ids";
  EXPECT_EQ(shared.metrics, copied.metrics);
  EXPECT_EQ(shared.capture, copied.capture);
  EXPECT_EQ(shared.unroutable, 30u);
  EXPECT_EQ(copied.unroutable, 30u);
}

TEST(Multicast, DefaultPathSendsToEachDestinationInOrder) {
  struct Recorder : vm::GuestContext {
    NodeId self() const override { return 0; }
    std::uint32_t cluster_size() const override { return 4; }
    Time now() const override { return 0; }
    Rng& rng() override { return rng_; }
    void send(NodeId dst, Bytes message) override {
      dsts.push_back(dst);
      payloads.push_back(std::move(message));
    }
    void set_timer(std::uint64_t, Duration) override {}
    void cancel_timer(std::uint64_t) override {}
    void consume_cpu(Duration) override {}
    void count(std::string_view, double) override {}
    void record(std::string_view, double) override {}

    Rng rng_{1};
    std::vector<NodeId> dsts;
    std::vector<Bytes> payloads;
  } ctx;
  const std::vector<NodeId> to = {2, 0, 3};
  ctx.multicast(to, to_bytes("hi"));
  ctx.multicast({}, to_bytes("nobody"));
  EXPECT_EQ(ctx.dsts, to);
  ASSERT_EQ(ctx.payloads.size(), 3u);
  for (const Bytes& p : ctx.payloads) EXPECT_EQ(p, to_bytes("hi"));
}

TEST(Multicast, UnroutableDestinationIsDroppedAndTheRestDelivered) {
  runtime::TestbedConfig cfg = fleet(3);
  cfg.net.capture.enabled = true;
  trace::ScopedTrace trace;
  runtime::Testbed tb(cfg, [](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    auto g = std::make_unique<Caster>();
    if (id == 0) {
      g->dsts = {1, 7, 2};
      g->rounds = 1;
    }
    return g;
  });
  tb.start();
  tb.run_for(100 * kMillisecond);
  EXPECT_TRUE(tb.crashed_nodes().empty());
  EXPECT_EQ(trace::counters().unroutable_sends.load(), 1u);
  EXPECT_EQ(tb.emulator().stats().messages_sent, 2u);
  EXPECT_EQ(tb.emulator().stats().messages_delivered, 2u);
  EXPECT_EQ(dynamic_cast<Caster&>(tb.machine(1).guest()).received, 1);
  EXPECT_EQ(dynamic_cast<Caster&>(tb.machine(2).guest()).received, 1);
  int unroutable = 0;
  for (const netem::PacketRecord& r : tb.emulator().recorder()->records()) {
    if (r.disposition != netem::PacketDisposition::kUnroutable) continue;
    ++unroutable;
    EXPECT_EQ(r.src, 0u);
    EXPECT_EQ(r.dst, 7u);
    EXPECT_EQ(r.size, 200u);
  }
  EXPECT_EQ(unroutable, 1);
}

// Every registered system's default search gives the same result whether its
// broadcasts share one buffer or go out as one send per destination.
std::vector<std::string> registered_names() {
  std::vector<std::string> names;
  for (const systems::SystemEntry& e : systems::system_registry())
    names.emplace_back(e.name);
  return names;
}

class MulticastSearch : public ::testing::TestWithParam<std::string> {};

TEST_P(MulticastSearch, SendOnlyDecoratorGivesTheSameResult) {
  const systems::SystemEntry* entry = systems::find_system(GetParam());
  ASSERT_NE(entry, nullptr);
  // Two scenarios, so the searches share no page store.
  search::Scenario plain = entry->make({});
  search::Scenario decorated = entry->make({});
  for (search::Scenario* sc : {&plain, &decorated}) {
    sc->duration = 8 * kSecond;
    sc->window = 2 * kSecond;
  }
  decorated.factory = send_only(decorated.factory);
  const search::SearchResult a = search::weighted_greedy_search(plain);
  const search::SearchResult b = search::weighted_greedy_search(decorated);
  EXPECT_FALSE(a.attacks.empty());
  EXPECT_EQ(a.to_json(), b.to_json());
}

INSTANTIATE_TEST_SUITE_P(AllSystems, MulticastSearch,
                         ::testing::ValuesIn(registered_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace turret
