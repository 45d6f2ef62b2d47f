#include "systems/zyzzyva/zyzzyva_client.h"

#include "systems/replication/crypto.h"
#include "systems/replication/fanout.h"

namespace turret::systems::zyzzyva {

void ZyzzyvaClient::start(vm::GuestContext& ctx) {
  send_request(ctx, /*broadcast=*/false);
}

void ZyzzyvaClient::send_request(vm::GuestContext& ctx, bool broadcast) {
  Request req;
  req.client = ctx.self();
  req.timestamp = timestamp_;
  req.payload = Bytes(cfg_.payload_size, static_cast<std::uint8_t>(timestamp_));
  Bytes bytes = req.encode();
  charge_sign(ctx, cfg_);
  if (broadcast) {
    send_to_replicas(ctx, 0, cfg_.n, std::move(bytes));
  } else {
    ctx.send(primary_, std::move(bytes));
    sent_at_ = ctx.now();
  }
  ctx.set_timer(kRetryTimer, cfg_.client_timeout);
}

void ZyzzyvaClient::complete(vm::GuestContext& ctx) {
  ctx.count("updates");
  ctx.record("latency_ms",
             static_cast<double>(ctx.now() - sent_at_) / kMillisecond);
  spec_replicas_.clear();
  commit_replicas_.clear();
  commit_phase_ = false;
  ctx.cancel_timer(kCommitTimer);
  ++timestamp_;
  send_request(ctx, /*broadcast=*/false);
}

void ZyzzyvaClient::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                               BytesView msg) {
  wire::MessageReader r(msg);
  if (r.tag() == kSpecReply) {
    const SpecReply rep = SpecReply::decode(r);
    charge_verify(ctx, cfg_);
    if (rep.timestamp != timestamp_ || rep.client != ctx.self()) return;
    primary_ = rep.view % cfg_.n;
    spec_seq_ = rep.seq;
    spec_replicas_.insert(rep.replica);
    if (spec_replicas_.size() == cfg_.n) {
      complete(ctx);  // fast path: every replica answered
    } else if (spec_replicas_.size() == 2 * cfg_.f + 1 && !commit_phase_) {
      // Enough for the slow path; give the stragglers a moment first.
      ctx.set_timer(kCommitTimer, kCommitWait);
    }
    return;
  }
  if (r.tag() == kLocalCommit) {
    const LocalCommit lc = LocalCommit::decode(r);
    charge_verify(ctx, cfg_);
    if (!commit_phase_ || lc.seq != spec_seq_) return;
    commit_replicas_.insert(lc.replica);
    if (commit_replicas_.size() >= 2 * cfg_.f + 1) complete(ctx);
    return;
  }
}

void ZyzzyvaClient::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id == kCommitTimer) {
    if (spec_replicas_.size() >= 2 * cfg_.f + 1 &&
        spec_replicas_.size() < cfg_.n && !commit_phase_) {
      commit_phase_ = true;
      CommitCert cc;
      cc.view = primary_ % cfg_.n;
      cc.seq = spec_seq_;
      cc.timestamp = timestamp_;
      cc.client = ctx.self();
      cc.n_spec_replies = static_cast<std::uint32_t>(spec_replicas_.size());
      charge_sign(ctx, cfg_);
      send_to_replicas(ctx, 0, cfg_.n, cc.encode());
    }
    return;
  }
  if (timer_id == kRetryTimer) {
    // No completion in time: rebroadcast so backups can demand a view change.
    commit_phase_ = false;
    spec_replicas_.clear();
    commit_replicas_.clear();
    send_request(ctx, /*broadcast=*/true);
  }
}

void ZyzzyvaClient::save(serial::Writer& w) const {
  w.u64(timestamp_);
  w.u32(primary_);
  w.i64(sent_at_);
  w.u64(spec_seq_);
  w.boolean(commit_phase_);
  w.u32(static_cast<std::uint32_t>(spec_replicas_.size()));
  for (std::uint32_t x : spec_replicas_) w.u32(x);
  w.u32(static_cast<std::uint32_t>(commit_replicas_.size()));
  for (std::uint32_t x : commit_replicas_) w.u32(x);
}

void ZyzzyvaClient::load(serial::Reader& r) {
  timestamp_ = r.u64();
  primary_ = r.u32();
  sent_at_ = r.i64();
  spec_seq_ = r.u64();
  commit_phase_ = r.boolean();
  spec_replicas_.clear();
  const std::uint32_t ns = r.u32();
  for (std::uint32_t i = 0; i < ns; ++i) spec_replicas_.insert(r.u32());
  commit_replicas_.clear();
  const std::uint32_t nc = r.u32();
  for (std::uint32_t i = 0; i < nc; ++i) commit_replicas_.insert(r.u32());
}

}  // namespace turret::systems::zyzzyva
