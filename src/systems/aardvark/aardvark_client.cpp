#include "systems/aardvark/aardvark_client.h"

#include "systems/replication/crypto.h"
#include "systems/replication/fanout.h"

namespace turret::systems::aardvark {

void AardvarkClient::start(vm::GuestContext& ctx) {
  send_request(ctx, /*broadcast=*/false);
}

void AardvarkClient::send_request(vm::GuestContext& ctx, bool broadcast) {
  Request req;
  req.client = ctx.self();
  req.timestamp = timestamp_;
  req.payload = Bytes(cfg_.payload_size, static_cast<std::uint8_t>(timestamp_));
  Bytes bytes = req.encode();
  charge_sign(ctx, cfg_);  // Aardvark clients always sign
  if (broadcast) {
    send_to_replicas(ctx, 0, cfg_.n, std::move(bytes));
  } else {
    ctx.send(primary_, std::move(bytes));
    sent_at_ = ctx.now();
  }
  ctx.set_timer(kRetryTimer, cfg_.client_timeout);
}

void AardvarkClient::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                                BytesView msg) {
  wire::MessageReader r(msg);
  if (r.tag() != kReply) return;
  const Reply rep = Reply::decode(r);
  charge_verify(ctx, cfg_);
  if (rep.timestamp != timestamp_ || rep.client != ctx.self()) return;
  primary_ = rep.view % cfg_.n;
  reply_replicas_.insert(rep.replica);
  if (reply_replicas_.size() < cfg_.f + 1) return;

  ctx.count("updates");
  ctx.record("latency_ms",
             static_cast<double>(ctx.now() - sent_at_) / kMillisecond);
  reply_replicas_.clear();
  ++timestamp_;
  send_request(ctx, /*broadcast=*/false);
}

void AardvarkClient::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kRetryTimer) return;
  send_request(ctx, /*broadcast=*/true);
}

void AardvarkClient::save(serial::Writer& w) const {
  w.u64(timestamp_);
  w.u32(primary_);
  w.i64(sent_at_);
  w.u32(static_cast<std::uint32_t>(reply_replicas_.size()));
  for (std::uint32_t x : reply_replicas_) w.u32(x);
}

void AardvarkClient::load(serial::Reader& r) {
  timestamp_ = r.u64();
  primary_ = r.u32();
  sent_at_ = r.i64();
  reply_replicas_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) reply_replicas_.insert(r.u32());
}

}  // namespace turret::systems::aardvark
