// The guest-side API: what a protocol implementation sees.
//
// A guest is the analog of the unmodified application inside a KVM VM. It is
// an event-driven message-passing state machine (the paper's message-event
// model): it reacts to start/message/timer events and may send or multicast
// messages, arm timers, consume CPU and report application-level performance. Crucially,
// nothing in the attack-finding layers ever looks inside a guest — Turret
// interacts with guests only through the network, the VM pause/resume/
// save/load operations, and the performance metric stream.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/types.h"
#include "serial/serial.h"

namespace turret::vm {

/// Thrown by guest code when it hits the kind of failure that would be a
/// segfault/assert in a native binary (e.g. resizing a buffer to a lied,
/// sign-flipped length). The VM boundary converts it into a guest crash.
class GuestFault : public std::runtime_error {
 public:
  explicit GuestFault(const std::string& what) : std::runtime_error(what) {}
};

/// Services the platform provides to a guest. Implemented by the Testbed;
/// valid only for the duration of the guest callback it is passed to.
///
/// A forwarding decorator must forward every pure virtual; it may leave
/// multicast() alone, since the default reduces it to send(). Overriding
/// multicast() may change how the bytes are held (the Testbed shares one
/// buffer among the destinations), never what the network sees: the same
/// destinations, in the same order, with the same bytes as the sends.
class GuestContext {
 public:
  virtual ~GuestContext() = default;

  virtual NodeId self() const = 0;
  virtual std::uint32_t cluster_size() const = 0;
  virtual Time now() const = 0;
  virtual Rng& rng() = 0;

  /// Send an application message to another node. The message enters the
  /// emulated network (and the malicious proxy, if the sender is malicious).
  virtual void send(NodeId dst, Bytes message) = 0;

  /// Send one message to each of `dsts`, in order. Equivalent to one send()
  /// per destination; an implementation may share one buffer among all the
  /// copies instead of copying the bytes per destination. The default does
  /// exactly the sends (the last destination gets the moved bytes), so a
  /// decorator that overrides only send() still sees every destination.
  virtual void multicast(std::span<const NodeId> dsts, Bytes message) {
    if (dsts.empty()) return;
    for (std::size_t i = 0; i + 1 < dsts.size(); ++i) send(dsts[i], message);
    send(dsts.back(), std::move(message));
  }

  /// Arm a one-shot timer. Re-arming the same id replaces the previous one.
  virtual void set_timer(std::uint64_t timer_id, Duration delay) = 0;
  virtual void cancel_timer(std::uint64_t timer_id) = 0;

  /// Charge extra CPU time to the current handler (signature checks, state
  /// digests, ...). Extends the guest's busy period; queued inputs wait.
  virtual void consume_cpu(Duration d) = 0;

  /// Application-level performance reporting (the paper's "applications
  /// report the observed performance back to the controller").
  virtual void count(std::string_view metric, double increment = 1.0) = 0;
  virtual void record(std::string_view metric, double value) = 0;
};

/// A protocol participant. Implementations must be deterministic functions of
/// (their serialized state, the event sequence, ctx.rng()).
class GuestNode {
 public:
  virtual ~GuestNode() = default;

  /// Called once when the testbed starts (or never, on a VM restored from a
  /// snapshot — load() replaces it).
  virtual void start(GuestContext& ctx) = 0;

  /// A reassembled application message arrived from `src`.
  virtual void on_message(GuestContext& ctx, NodeId src, BytesView message) = 0;

  /// Timer `timer_id` fired.
  virtual void on_timer(GuestContext& ctx, std::uint64_t timer_id) = 0;

  /// Serialize the complete protocol state. Restoring into a freshly
  /// constructed instance must reproduce behaviour exactly.
  virtual void save(serial::Writer& w) const = 0;
  virtual void load(serial::Reader& r) = 0;

  /// Diagnostic label ("pbft-replica", "client", ...).
  virtual std::string_view kind() const = 0;
};

}  // namespace turret::vm
