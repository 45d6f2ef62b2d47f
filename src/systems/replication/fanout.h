// Fan-out sends shared by the replication systems.
//
// A replica broadcast goes out as one GuestContext::multicast, so the
// platform can share a single buffer among its destinations instead of
// copying the message once per destination. Destinations keep the id order
// of the per-destination send loops these helpers replace.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "systems/replication/config.h"
#include "systems/replication/crypto.h"
#include "vm/guest.h"

namespace turret::systems {

/// The replicas [first, last) other than `self`, in id order: the
/// destination list of one multicast. Up to kInline ids live in the object,
/// so a broadcast in a typical cluster allocates nothing.
class Peers {
 public:
  Peers(NodeId first, NodeId last, NodeId self) {
    if (last > first && last - first > kInline) spill_.resize(last - first);
    NodeId* out = spill_.empty() ? inline_.data() : spill_.data();
    for (NodeId r = first; r < last; ++r) {
      if (r != self) out[size_++] = r;
    }
    data_ = out;
  }
  Peers(const Peers&) = delete;
  Peers& operator=(const Peers&) = delete;

  std::span<const NodeId> ids() const { return {data_, size_}; }

 private:
  static constexpr std::size_t kInline = 32;
  std::array<NodeId, kInline> inline_;
  std::vector<NodeId> spill_;  ///< used instead when the range is larger
  const NodeId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Send `msg` to every replica in [first, last) but the sender, in id order,
/// as one multicast.
inline void send_to_replicas(vm::GuestContext& ctx, NodeId first, NodeId last,
                             Bytes msg) {
  const Peers to(first, last, ctx.self());
  ctx.multicast(to.ids(), std::move(msg));
}

/// A replica broadcast to the replicas [first, last) but the sender: sign
/// once, charge one authenticator (MAC) per destination, then multicast.
/// Charges only extend the handler's busy period, so charging them all
/// before the multicast leaves every virtual timestamp as a send loop had it.
inline void broadcast(vm::GuestContext& ctx, const BftConfig& cfg, Bytes msg,
                      NodeId first, NodeId last) {
  charge_sign(ctx, cfg);
  const Peers to(first, last, ctx.self());
  for (std::size_t i = 0; i < to.ids().size(); ++i) charge_mac(ctx, cfg);
  ctx.multicast(to.ids(), std::move(msg));
}

/// broadcast() to every replica [0, cfg.n).
inline void broadcast(vm::GuestContext& ctx, const BftConfig& cfg, Bytes msg) {
  broadcast(ctx, cfg, std::move(msg), 0, cfg.n);
}

}  // namespace turret::systems
