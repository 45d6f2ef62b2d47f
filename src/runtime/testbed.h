// The Testbed: one complete emulated deployment.
//
// Owns the network emulator and one VirtualMachine per participant, routes
// emulator events into guest handlers under the CPU model, implements the
// GuestContext services, captures guest crashes, collects metrics, and
// provides whole-system snapshots using the paper's distributed snapshot
// protocol (§III-C):
//
//   save:    freeze emulator → pause VMs → save VM states → save network
//   restore: load network → load VM states → resume VMs → resume emulator
//
// The initiator is the controller (not a participant), all components share
// the virtual clock, and in-flight packets live in the emulator queue — the
// three properties the paper notes make this simpler than Chandy-Lamport.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "netem/emulator.h"
#include "runtime/metrics.h"
#include "vm/machine.h"
#include "vm/memory.h"
#include "vm/pagestore.h"

namespace turret::runtime {

/// Creates the guest for node `id`. Called at construction and again on every
/// snapshot restore (guest objects are rebuilt, then their state is loaded).
using GuestFactory =
    std::function<std::unique_ptr<vm::GuestNode>(NodeId id)>;

/// How this testbed encodes whole-system snapshots (DESIGN.md §5e): each VM's
/// memory image is interned page by page into a content-addressed store, and
/// the snapshot blob holds only page references.
struct SnapshotPolicy {
  /// Model full OS/app/unique memory images per `profile` (benches; makes
  /// snapshots Table-II sized). Off: images hold only the heap region — the
  /// serialized guest state — so dedup works on live protocol state.
  bool model_memory = false;
  vm::MemoryProfile profile;
  /// The content-addressed store snapshots intern into. Every testbed of a
  /// search must share this one object, so copies of a policy (and of the
  /// Scenario holding it) share the store they were copied from.
  std::shared_ptr<vm::PageStore> store = std::make_shared<vm::PageStore>();
};

struct TestbedConfig {
  netem::NetConfig net;
  vm::CpuModel cpu;
  std::uint64_t seed = 1;
  SnapshotPolicy snapshot;
};

/// What one save_snapshot() call wrote and what it avoided writing; the
/// accounting behind the snapshot_bytes_* telemetry counters.
/// pages_written counts pages newly interned into the page store;
/// pages_deduped counts pages encoded as references to content stored
/// earlier.
struct SnapshotSaveStats {
  std::uint64_t blob_bytes = 0;
  std::uint64_t bytes_written = 0;  ///< blob + newly interned page bytes
  std::uint64_t bytes_deduped = 0;  ///< pages_deduped * kPageSize
  std::uint32_t pages_total = 0;
  std::uint32_t pages_written = 0;
  std::uint32_t pages_deduped = 0;
  std::uint32_t dirty_pages = 0;    ///< dirty at save entry (delta size)
  std::uint64_t store_pages = 0;    ///< page-store occupancy after the save
  std::uint64_t cow_faults = 0;     ///< cumulative across this testbed's images
};

/// A snapshot blob parsed once into its sections. Branching executes the same
/// injection-point snapshot many times; decoding up front means each branch
/// pays a copy of plain data structures (metrics) and a per-section
/// parse of VM/emulator state instead of re-scanning the whole flat blob.
/// Immutable after decode_snapshot(), so branches on worker threads may load
/// from one shared DecodedSnapshot concurrently. The VM images are exposed
/// as refcounted immutable PageFrames: every branch that loads this snapshot
/// adopts them copy-on-write instead of memcpy'ing.
struct DecodedSnapshot {
  bool started = false;
  std::vector<Bytes> vm_sections;  ///< one VirtualMachine::save payload each
  /// Per-VM shared immutable frames (adopted by load_snapshot).
  std::vector<std::shared_ptr<const vm::PageFrames>> frames;
  Bytes emu_section;               ///< netem::Emulator::save payload
  MetricsCollector metrics;
};

class Testbed final : public netem::MessageSink {
 public:
  Testbed(TestbedConfig cfg, GuestFactory factory);
  ~Testbed() override;

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Invoke every guest's start() at the current time. Must be called exactly
  /// once for a fresh testbed; never after load_snapshot().
  void start();

  void run_for(Duration d) { emu_.run_for(d); }
  void run_until(Time t) { emu_.run_until(t); }
  Time now() const { return emu_.now(); }

  netem::Emulator& emulator() { return emu_; }
  const netem::Emulator& emulator() const { return emu_; }
  MetricsCollector& metrics() { return metrics_; }
  const MetricsCollector& metrics() const { return metrics_; }

  std::uint32_t nodes() const { return cfg_.net.nodes; }
  vm::VirtualMachine& machine(NodeId id) { return *vms_.at(id); }
  const vm::VirtualMachine& machine(NodeId id) const { return *vms_.at(id); }

  /// Ids of guests that have crashed so far.
  std::vector<NodeId> crashed_nodes() const;

  // --- Execution branching -------------------------------------------------

  /// Serialize the entire system state (network with its armed guest timers,
  /// all VMs, metrics).
  /// Only pages dirtied since the previous save are rehashed and interned
  /// (delta snapshots).
  Bytes save_snapshot();

  /// Accounting for the most recent save_snapshot() call.
  const SnapshotSaveStats& last_save_stats() const { return save_stats_; }

  /// The store pages referenced by the most recent save_snapshot() blob
  /// (null before the first save). A non-decoded blob references its pages
  /// only through the store, so callers that keep the blob across
  /// PageStore::evict_unreferenced() must hold this pin alongside it.
  const std::shared_ptr<const std::vector<vm::PageHandle>>& last_save_pages()
      const {
    return last_save_pages_;
  }

  /// Parse a save_snapshot() blob into its sections. Pure function of the
  /// blob and the page store; safe to call from any thread. `store` is
  /// required to resolve the blob's page references: pass the store the
  /// saving testbed used.
  static DecodedSnapshot decode_snapshot(BytesView snapshot,
                                         const vm::PageStore* store);

  /// Restore a snapshot taken from a testbed with identical config/factory.
  /// The configs must share one page store (copy one config, do not build
  /// two), since the blob names its pages only by reference.
  void load_snapshot(BytesView snapshot);

  /// Same, from a pre-decoded snapshot; `snapshot` is only read and may be
  /// shared by concurrent loads into different testbeds.
  void load_snapshot(const DecodedSnapshot& snapshot);

  // --- netem::MessageSink --------------------------------------------------

  void on_message(NodeId dst, NodeId src, MessageBuf message) override;
  void on_event(const netem::Event& ev) override;

 private:
  class Ctx;

  /// A page's ref in the store, remembered so clean pages re-reference
  /// without re-hashing; `valid` distinguishes "never interned" from hash 0.
  struct CachedRef {
    vm::PageRef ref;
    bool valid = false;
  };

  void enqueue_input(NodeId node, vm::GuestInput input);
  void run_handler(NodeId node);
  /// A guest send to a node outside the fleet: dropped before the network,
  /// counted (unroutable_sends) and, with capture on, recorded.
  void drop_unroutable(NodeId src, NodeId dst, BytesView message);
  /// Runs `call` (guest code) behind the crash-capture boundary. A template,
  /// not a std::function, so the per-handler lambda is never heap-allocated.
  template <typename Call>
  void guard_guest_call(vm::VirtualMachine& m, Call&& call);

  vm::MemoryProfile effective_profile() const;
  /// Materialize the per-VM memory mirrors on first use, then fold each VM's
  /// freshly serialized state into its heap (dirtying only changed pages).
  void sync_images(const std::vector<Bytes>& states);
  /// Intern image `i`'s dirty pages, append its section of page refs to `w`
  /// and a handle to every page it references to `pins`.
  void write_image_section(serial::Writer& w, std::size_t i,
                           std::vector<vm::PageHandle>& pins);

  TestbedConfig cfg_;
  GuestFactory factory_;
  netem::Emulator emu_;
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms_;
  MetricsCollector metrics_;
  /// Snapshot state: per-VM memory mirrors, their cached store refs, and the
  /// shared page store.
  std::vector<vm::MemoryImage> images_;
  std::vector<std::vector<CachedRef>> refs_;
  std::shared_ptr<vm::PageStore> store_;
  SnapshotSaveStats save_stats_;
  std::shared_ptr<const std::vector<vm::PageHandle>> last_save_pages_;
  bool started_ = false;
};

}  // namespace turret::runtime
