// Typed, serializable emulator events.
//
// Everything that happens later in an execution — packet arrivals, guest
// timers, guest CPU completions, delayed (proxy-held) messages, controller
// ticks — is an Event in the emulator's queue. Events are plain data, never
// closures, which is what makes whole-system save/load (execution branching)
// possible: the queue can be serialized byte-for-byte and restored later.
#pragma once

#include <cstdint>

#include "netem/packet.h"

namespace turret::netem {

enum class EventKind : std::uint8_t {
  kPacketDeliver = 0,  ///< packet arrives at dst's net device
  kProxyRelease = 1,   ///< a message the malicious proxy delayed is released
  kTimer = 2,          ///< guest timer fires (node, a=timer id)
  kHandlerDone = 3,    ///< guest finishes processing its current input
  kControl = 4,        ///< controller bookkeeping (a=token)
  kReassemblyExpire = 5,  ///< reap an incomplete reassembly (a=msg_id);
                          ///< internal to the emulator, never reaches the sink
};

struct Event {
  Time at = 0;
  std::uint64_t seq = 0;  ///< tiebreaker; assigned monotonically at schedule time
  EventKind kind = EventKind::kControl;
  NodeId node = kNoNode;  ///< destination / owner
  std::uint64_t a = 0;    ///< kind-specific scalar
  std::uint64_t b = 0;    ///< kind-specific scalar
  Packet packet;          ///< kPacketDeliver: the fragment; kProxyRelease: the
                          ///< whole message in `payload` (frag_count == 0)

  /// Min-heap order: earliest time first, then schedule order.
  friend bool operator>(const Event& x, const Event& y) {
    if (x.at != y.at) return x.at > y.at;
    return x.seq > y.seq;
  }

  void save(serial::Writer& w) const;
  static Event load(serial::Reader& r);
};

}  // namespace turret::netem
