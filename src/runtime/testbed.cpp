#include "runtime/testbed.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/trace.h"

namespace turret::runtime {

// ---------------------------------------------------------------------------
// GuestContext implementation
// ---------------------------------------------------------------------------

class Testbed::Ctx final : public vm::GuestContext {
 public:
  Ctx(Testbed& tb, vm::VirtualMachine& m) : tb_(tb), m_(m) {}

  NodeId self() const override { return m_.id(); }
  std::uint32_t cluster_size() const override { return tb_.nodes(); }
  Time now() const override { return tb_.emu_.now(); }
  Rng& rng() override { return m_.rng(); }

  void send(NodeId dst, Bytes message) override {
    // An address outside the fleet is the guest's mistake (often one a lie
    // talked it into), not the platform's: the packet goes nowhere.
    if (dst >= tb_.nodes()) {
      tb_.drop_unroutable(m_.id(), dst, message);
      return;
    }
    tb_.emu_.send_message(m_.id(), dst, std::move(message));
  }

  void multicast(std::span<const NodeId> dsts, Bytes message) override {
    // One buffer for every destination: each routed copy is a refcount
    // bump, and the encode's capacity is recycled when the last view dies.
    const MessageBuf buf(std::move(message));
    for (const NodeId dst : dsts) {
      if (dst >= tb_.nodes()) {
        tb_.drop_unroutable(m_.id(), dst, buf);
        continue;
      }
      tb_.emu_.send_message(m_.id(), dst, buf);
    }
  }

  void set_timer(std::uint64_t timer_id, Duration delay) override {
    // A timer in the past is the guest's bug, not the platform's.
    if (delay < 0)
      throw vm::GuestFault("set_timer with negative delay " +
                           std::to_string(delay) + " ns");
    tb_.emu_.set_timer(m_.id(), timer_id, delay);
  }

  void cancel_timer(std::uint64_t timer_id) override {
    tb_.emu_.cancel_timer(m_.id(), timer_id);
  }

  void consume_cpu(Duration d) override {
    if (d > 0) extra_cpu_ += d;
  }

  void count(std::string_view metric, double increment) override {
    tb_.metrics_.count(metric, now(), increment);
  }

  void record(std::string_view metric, double value) override {
    tb_.metrics_.record(metric, now(), value);
  }

  Duration extra_cpu() const { return extra_cpu_; }

 private:
  Testbed& tb_;
  vm::VirtualMachine& m_;
  Duration extra_cpu_ = 0;
};

// ---------------------------------------------------------------------------
// Testbed
// ---------------------------------------------------------------------------

Testbed::Testbed(TestbedConfig cfg, GuestFactory factory)
    : cfg_(std::move(cfg)), factory_(std::move(factory)), emu_(cfg_.net) {
  TURRET_CHECK(factory_ != nullptr);
  emu_.set_sink(this);
  vms_.reserve(cfg_.net.nodes);
  for (NodeId id = 0; id < cfg_.net.nodes; ++id) {
    vms_.push_back(std::make_unique<vm::VirtualMachine>(
        id, factory_(id), cfg_.cpu, mix64(cfg_.seed) ^ (id + 1)));
  }
  store_ = cfg_.snapshot.store;
  TURRET_CHECK_MSG(store_ != nullptr,
                   "TestbedConfig::snapshot.store must not be null");
}

Testbed::~Testbed() = default;

template <typename Call>
void Testbed::guard_guest_call(vm::VirtualMachine& m, Call&& call) {
  // The crash-capture boundary: what would be a segfault or failed assert in
  // a native binary surfaces here as an exception from guest code. Platform
  // bugs (std::logic_error from TURRET_CHECK) are *not* absorbed.
  try {
    call();
  } catch (const std::logic_error&) {
    throw;
  } catch (const fault::FaultError&) {
    // Injected platform faults must surface at the branch containment layer,
    // not masquerade as guest crashes (which would classify as attacks).
    throw;
  } catch (const netem::BudgetExceededError&) {
    throw;  // runaway-branch abort, likewise a platform condition
  } catch (const std::exception& e) {
    m.mark_crashed(emu_.now(), e.what());
    metrics_.count("guest_crashes", emu_.now());
    TLOG_INFO("guest %u crashed at %s: %s", m.id(),
              format_time(emu_.now()).c_str(), e.what());
  }
}

void Testbed::start() {
  TURRET_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  for (auto& vm : vms_) {
    Ctx ctx(*this, *vm);
    guard_guest_call(*vm, [&] { vm->guest().start(ctx); });
  }
}

void Testbed::drop_unroutable(NodeId src, NodeId dst, BytesView message) {
  if (trace::active())
    trace::counters().unroutable_sends.fetch_add(1, std::memory_order_relaxed);
  netem::FlightRecorder* recorder = emu_.recorder();
  if (recorder == nullptr) return;
  netem::PacketRecord rec;
  rec.t = emu_.now();
  rec.src = src;
  rec.dst = dst;
  rec.size = static_cast<std::uint32_t>(message.size());
  rec.disposition = netem::PacketDisposition::kUnroutable;
  const std::size_t head =
      std::min<std::size_t>(message.size(), recorder->spec().snaplen);
  rec.head.assign(message.begin(), message.begin() + head);
  recorder->record(std::move(rec));
}

std::vector<NodeId> Testbed::crashed_nodes() const {
  std::vector<NodeId> out;
  for (const auto& vm : vms_) {
    if (vm->crashed()) out.push_back(vm->id());
  }
  return out;
}

void Testbed::enqueue_input(NodeId node, vm::GuestInput input) {
  vm::VirtualMachine& m = *vms_.at(node);
  const auto completion = m.enqueue(emu_.now(), std::move(input));
  if (completion) {
    emu_.schedule(*completion, netem::EventKind::kHandlerDone, node, 0, 0);
  }
}

void Testbed::on_message(NodeId dst, NodeId src, MessageBuf message) {
  vm::GuestInput in;
  in.kind = vm::GuestInput::Kind::kMessage;
  in.src = src;
  in.cost = cfg_.cpu.message_cost(message.size());
  in.message = std::move(message);
  enqueue_input(dst, std::move(in));
}

void Testbed::on_event(const netem::Event& ev) {
  switch (ev.kind) {
    case netem::EventKind::kTimer: {
      vm::GuestInput in;
      in.kind = vm::GuestInput::Kind::kTimer;
      in.timer_id = ev.a;
      in.cost = cfg_.cpu.timer_base;
      enqueue_input(ev.node, std::move(in));
      break;
    }
    case netem::EventKind::kHandlerDone:
      run_handler(ev.node);
      break;
    case netem::EventKind::kControl:
      break;  // reserved for controllers; no platform behaviour
    default:
      TURRET_CHECK_MSG(false, "unexpected event kind reached the sink");
  }
}

void Testbed::run_handler(NodeId node) {
  fault::inject(fault::kGuestStep);
  vm::VirtualMachine& m = *vms_.at(node);
  auto input = m.begin_handler(emu_.now());
  if (!input) return;  // guest crashed while this completion was in flight

  Ctx ctx(*this, m);
  guard_guest_call(m, [&] {
    if (input->kind == vm::GuestInput::Kind::kMessage) {
      m.guest().on_message(ctx, input->src, input->message);
    } else {
      m.guest().on_timer(ctx, input->timer_id);
    }
  });

  const auto next = m.finish_handler(emu_.now(), ctx.extra_cpu());
  if (next) {
    emu_.schedule(*next, netem::EventKind::kHandlerDone, node, 0, 0);
  }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

vm::MemoryProfile Testbed::effective_profile() const {
  if (cfg_.snapshot.model_memory) return cfg_.snapshot.profile;
  // Live default: no synthetic OS/app/unique regions — the image is exactly
  // the heap holding the serialized guest state, so dedup and deltas work on
  // real protocol state, not modeled filler.
  vm::MemoryProfile p;
  p.os_pages = 0;
  p.app_pages = 0;
  p.unique_pages = 0;
  return p;
}

void Testbed::sync_images(const std::vector<Bytes>& states) {
  if (images_.empty()) {
    images_.resize(vms_.size());
    refs_.assign(vms_.size(), {});
    const vm::MemoryProfile prof = effective_profile();
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      // vm_uid is the node id (stable across testbeds of one scenario, so
      // identical nodes produce identical unique-region pages and cross-world
      // interning dedups them).
      images_[i].materialize(prof, i + 1, states[i]);
    }
  } else {
    for (std::size_t i = 0; i < vms_.size(); ++i) {
      images_[i].update_heap(states[i]);
    }
  }
}

void Testbed::write_image_section(serial::Writer& w, std::size_t i,
                                  std::vector<vm::PageHandle>& pins) {
  vm::MemoryImage& img = images_[i];
  std::vector<CachedRef>& refs = refs_[i];
  refs.resize(img.page_count());
  serial::Writer s;
  img.save_meta(s);
  s.u32(static_cast<std::uint32_t>(img.page_count()));
  for (std::size_t p = 0; p < img.page_count(); ++p) {
    if (!refs[p].valid || img.dirty(p)) {
      const vm::PageStore::Interned in =
          store_->intern(img.page(p), img.page_hash(p));
      refs[p] = {in.ref, true};
      if (in.inserted) ++save_stats_.pages_written;
    }
    s.u64(refs[p].ref.hash);
    s.u32(refs[p].ref.slot);
    pins.push_back(store_->get(refs[p].ref));
  }
  w.bytes(s.data());
}

Bytes Testbed::save_snapshot() {
  // Paper order: freeze the emulator (virtual time stops; it may still accept
  // packets), pause every VM, save VM states, then save the network.
  emu_.freeze();
  for (auto& vm : vms_) vm->pause();

  std::vector<Bytes> states;
  states.reserve(vms_.size());
  for (const auto& vm : vms_) {
    serial::Writer section;
    vm->save(section);
    states.push_back(section.take());
  }

  save_stats_ = SnapshotSaveStats{};
  sync_images(states);
  for (const auto& img : images_) {
    save_stats_.pages_total += static_cast<std::uint32_t>(img.page_count());
    save_stats_.dirty_pages += static_cast<std::uint32_t>(img.dirty_count());
    save_stats_.cow_faults += img.cow_faults();
  }

  // Each component serializes into its own length-prefixed section so that
  // decode_snapshot() can split the blob without understanding component
  // internals. VM images go to the page store; their sections hold refs.
  serial::Writer w;
  w.boolean(started_);
  w.u32(static_cast<std::uint32_t>(vms_.size()));
  std::vector<vm::PageHandle> pins;
  pins.reserve(save_stats_.pages_total);
  for (std::size_t i = 0; i < images_.size(); ++i)
    write_image_section(w, i, pins);
  last_save_pages_ =
      std::make_shared<const std::vector<vm::PageHandle>>(std::move(pins));
  // New epoch: the next save's delta is relative to this snapshot.
  for (auto& img : images_) img.clear_dirty();

  {
    serial::Writer section;
    emu_.save(section);
    w.bytes(section.data());
  }
  {
    serial::Writer section;
    metrics_.save(section);
    w.bytes(section.data());
  }

  for (auto& vm : vms_) vm->resume();
  emu_.resume();

  Bytes blob = w.take();
  save_stats_.pages_deduped =
      save_stats_.pages_total - save_stats_.pages_written;
  save_stats_.blob_bytes = blob.size();
  save_stats_.bytes_written =
      save_stats_.blob_bytes +
      static_cast<std::uint64_t>(save_stats_.pages_written) * vm::kPageSize;
  save_stats_.bytes_deduped =
      static_cast<std::uint64_t>(save_stats_.pages_deduped) * vm::kPageSize;
  save_stats_.store_pages = store_->stats().stored_pages;
  if (trace::active()) {
    trace::Counters& c = trace::counters();
    c.snapshot_bytes_written.fetch_add(save_stats_.bytes_written,
                                       std::memory_order_relaxed);
    c.snapshot_bytes_deduped.fetch_add(save_stats_.bytes_deduped,
                                       std::memory_order_relaxed);
    c.pagestore_pages.store(save_stats_.store_pages,
                            std::memory_order_relaxed);
  }
  return blob;
}

DecodedSnapshot Testbed::decode_snapshot(BytesView snapshot,
                                         const vm::PageStore* store) {
  fault::inject(fault::kSnapshotDecode);
  TURRET_CHECK_MSG(store != nullptr,
                   "snapshot decode requires the search's PageStore");
  serial::Reader r(snapshot);
  DecodedSnapshot d;
  d.started = r.boolean();
  const std::uint32_t n = r.u32();

  d.vm_sections.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const Bytes section = r.bytes();
    serial::Reader vr(section);
    const std::uint32_t heap_start = vr.u32();
    const std::uint32_t heap_pages = vr.u32();
    const std::uint32_t state_bytes = vr.u32();
    const std::uint32_t pages = vr.u32();
    if (static_cast<std::uint64_t>(heap_start) + heap_pages > pages ||
        state_bytes > static_cast<std::uint64_t>(heap_pages) * vm::kPageSize) {
      throw serial::SerialError("inconsistent snapshot image metadata");
    }
    // Rebuild immutable PageFrames the loader can adopt.
    auto frames = std::make_shared<vm::PageFrames>();
    frames->heap_start_pfn = heap_start;
    frames->heap_pages = heap_pages;
    frames->state_bytes = state_bytes;
    frames->pages.reserve(pages);
    frames->refs.reserve(pages);
    for (std::uint32_t p = 0; p < pages; ++p) {
      vm::PageRef ref;
      ref.hash = vr.u64();
      ref.slot = vr.u32();
      frames->pages.push_back(store->get(ref));
      frames->refs.push_back(ref);
    }
    if (!vr.exhausted())
      throw serial::SerialError("trailing bytes in snapshot image section");
    // The guest-state section is the heap prefix of the image.
    Bytes state(state_bytes);
    std::size_t copied = 0;
    for (std::uint32_t hp = 0; hp < heap_pages && copied < state_bytes; ++hp) {
      const std::size_t chunk =
          std::min<std::size_t>(vm::kPageSize, state_bytes - copied);
      std::memcpy(state.data() + copied,
                  frames->pages[heap_start + hp]->bytes.data(), chunk);
      copied += chunk;
    }
    d.vm_sections.push_back(std::move(state));
    d.frames.push_back(std::move(frames));
  }
  d.emu_section = r.bytes();
  {
    const Bytes section = r.bytes();
    serial::Reader mr(section);
    d.metrics.load(mr);
    TURRET_CHECK_MSG(mr.exhausted(), "trailing bytes in metrics section");
  }
  TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in testbed snapshot");
  return d;
}

void Testbed::load_snapshot(BytesView snapshot) {
  load_snapshot(decode_snapshot(snapshot, store_.get()));
}

void Testbed::load_snapshot(const DecodedSnapshot& snapshot) {
  fault::inject(fault::kSnapshotLoad);
  started_ = snapshot.started;
  TURRET_CHECK_MSG(snapshot.vm_sections.size() == vms_.size() &&
                       snapshot.frames.size() == vms_.size(),
                   "snapshot VM count does not match testbed config");
  // Restore order (reverse of save): network first, then VMs, then resume.
  // Guests are rebuilt fresh, then their state is loaded from their section.
  for (NodeId id = 0; id < vms_.size(); ++id) {
    vms_[id] = std::make_unique<vm::VirtualMachine>(
        id, factory_(id), cfg_.cpu, /*seed=*/0);  // RNG state overwritten by load
    serial::Reader r(snapshot.vm_sections[id]);
    vms_[id]->load(r);
    TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in VM section");
  }
  {
    serial::Reader r(snapshot.emu_section);
    emu_.load(r);
    TURRET_CHECK_MSG(r.exhausted(), "trailing bytes in emulator section");
  }
  metrics_ = snapshot.metrics;
  // Adopt the decoded frames copy-on-write. Their refs are already interned,
  // so the next save only interns pages this branch actually dirtied.
  images_.clear();
  images_.resize(vms_.size());
  refs_.assign(vms_.size(), {});
  for (std::size_t i = 0; i < vms_.size(); ++i) {
    const vm::PageFrames& fr = *snapshot.frames[i];
    images_[i].adopt(snapshot.frames[i]);
    refs_[i].reserve(fr.refs.size());
    for (const vm::PageRef& ref : fr.refs) refs_[i].push_back({ref, true});
  }

  for (auto& vm : vms_) vm->resume();  // they were saved in the paused state
  emu_.resume();
}

}  // namespace turret::runtime
