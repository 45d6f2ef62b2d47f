#include "traced.h"

#include <utility>

#include "spans.h"
#include "wire/signed_adapter.h"

namespace perfbench {

using namespace turret;

void WireTally::reset() {
  sealed.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu);
  sample.clear();
}

WireTally& wire_tally() {
  static WireTally tally;
  return tally;
}

namespace {

class TracedContext final : public vm::GuestContext {
 public:
  explicit TracedContext(vm::GuestContext& inner) : inner_(inner) {}

  NodeId self() const override { return inner_.self(); }
  std::uint32_t cluster_size() const override { return inner_.cluster_size(); }
  Time now() const override { return inner_.now(); }
  Rng& rng() override { return inner_.rng(); }

  void send(NodeId dst, Bytes message) override {
    if (wire::SignedAdapter::looks_sealed(BytesView{message})) tally(message);
    Span span(Site::kGuestCall);
    inner_.send(dst, std::move(message));
  }
  void set_timer(std::uint64_t timer_id, Duration delay) override {
    Span span(Site::kGuestCall);
    inner_.set_timer(timer_id, delay);
  }
  void cancel_timer(std::uint64_t timer_id) override {
    Span span(Site::kGuestCall);
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
  static void tally(const Bytes& message) {
    WireTally& t = wire_tally();
    if (t.sealed.fetch_add(1, std::memory_order_relaxed) >= WireTally::kSampleCap)
      return;
    std::lock_guard<std::mutex> lock(t.mu);
    if (t.sample.size() < WireTally::kSampleCap) t.sample.push_back(message);
  }

  vm::GuestContext& inner_;
};

class TracedGuest final : public vm::GuestNode {
 public:
  explicit TracedGuest(std::unique_ptr<vm::GuestNode> inner)
      : inner_(std::move(inner)) {}

  void start(vm::GuestContext& ctx) override {
    TracedContext traced(ctx);
    Span span(Site::kHandler);
    inner_->start(traced);
  }
  void on_message(vm::GuestContext& ctx, NodeId src,
                  BytesView message) override {
    TracedContext traced(ctx);
    Span span(Site::kHandler);
    inner_->on_message(traced, src, message);
  }
  void on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) override {
    TracedContext traced(ctx);
    Span span(Site::kHandler);
    inner_->on_timer(traced, timer_id);
  }
  void save(serial::Writer& w) const override {
    Span span(Site::kGuestSave);
    inner_->save(w);
  }
  void load(serial::Reader& r) override {
    Span span(Site::kGuestLoad);
    inner_->load(r);
  }
  std::string_view kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<vm::GuestNode> inner_;
};

}  // namespace

search::Scenario traced_scenario(const search::Scenario& sc) {
  search::Scenario out = sc;
  out.factory = [inner = sc.factory](NodeId id) -> std::unique_ptr<vm::GuestNode> {
    return std::make_unique<TracedGuest>(inner(id));
  };
  return out;
}

std::uint64_t TracedSearch::library_snapshot_calls() const {
  return counters.snapshot_saves + counters.snapshot_loads +
         counters.decode_hits + counters.decode_misses;
}

std::uint64_t TracedSearch::guest_save_load_calls() const {
  return spans.at(Site::kGuestSave).calls + spans.at(Site::kGuestLoad).calls;
}

TracedSearch run_traced_search(const Workload& w) {
  // The library's span buffer is kept at one slot: only its counters are
  // wanted, and they cost a relaxed add per site.
  trace::Tracer::instance().enable(trace::Clock::kVirtual, 1);
  take();
  set_recording(true);
  TracedSearch out;
  const std::int64_t t0 = now_ns();
  out.result = run_search(w, traced_scenario(w.scenario));
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  set_recording(false);
  trace::Tracer::instance().disable();
  out.spans = take();
  out.counters = trace::counters().snapshot();
  return out;
}

class TracedWorld::Sink final : public netem::MessageSink {
 public:
  explicit Sink(netem::MessageSink& inner) : inner_(inner) {}
  void on_message(NodeId dst, NodeId src, MessageBuf message) override {
    Span span(Site::kDeliver);
    inner_.on_message(dst, src, std::move(message));
  }
  void on_event(const netem::Event& ev) override {
    Span span(Site::kDeliver);
    inner_.on_event(ev);
  }

 private:
  netem::MessageSink& inner_;
};

class TracedWorld::Interceptor final : public netem::IngressInterceptor {
 public:
  explicit Interceptor(netem::IngressInterceptor& inner) : inner_(inner) {}
  std::vector<Delivery> on_send(Time now, NodeId src, NodeId dst,
                                const MessageBuf& message) override {
    Span span(Site::kProxySend);
    return inner_.on_send(now, src, dst, message);
  }
  void save_state(serial::Writer& w) const override { inner_.save_state(w); }
  void load_state(serial::Reader& r) override { inner_.load_state(r); }

 private:
  netem::IngressInterceptor& inner_;
};

TracedWorld::TracedWorld(const search::Scenario& sc) {
  Span span(Site::kWorldBuild);
  world_ = search::make_scenario_world(sc);
  sink_ = std::make_unique<Sink>(*world_.testbed);
  interceptor_ = std::make_unique<Interceptor>(*world_.proxy);
  world_.testbed->emulator().set_sink(sink_.get());
  world_.testbed->emulator().set_interceptor(interceptor_.get());
}

TracedWorld::~TracedWorld() {
  Span span(Site::kWorldBuild);
  world_.testbed.reset();
  world_.proxy.reset();
}

}  // namespace perfbench
