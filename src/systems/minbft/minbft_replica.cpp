#include "systems/minbft/minbft_replica.h"

#include <algorithm>

#include "common/hash.h"
#include "systems/replication/fanout.h"
#include "systems/replication/signing.h"

namespace turret::systems::minbft {

namespace {

/// Executed log entries and checkpoint tallies behind the stable checkpoint
/// are garbage-collected; this margin keeps recent history for stragglers.
constexpr std::uint64_t kRetainSeqs = 16;

Bytes state_digest_for(std::uint64_t exec_seq) {
  Hasher128 h;
  h.update("minbft-state");
  h.update_u64(exec_seq);
  const Digest128 d = h.digest();
  Bytes out(16);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(d.hi >> (8 * i));
    out[8 + i] = static_cast<std::uint8_t>(d.lo >> (8 * i));
  }
  return out;
}

}  // namespace

bool MinbftReplica::is_primary(vm::GuestContext& ctx) const {
  return ctx.self() == primary_of(view_);
}

bool MinbftReplica::accept_ui(std::uint32_t sender, std::uint64_t ui) {
  // The real USIG enforces strict continuity; we accept any advance so a
  // single dropped message cannot wedge a backup forever (there is no state
  // transfer in this port). Regressions and replays are still rejected.
  auto& seen = last_ui_[sender];
  if (ui <= seen) return false;
  seen = ui;
  return true;
}

void MinbftReplica::send_sealed(vm::GuestContext& ctx, NodeId dst,
                                Bytes inner) {
  ctx.send(dst, seal_message(adapter_, ctx, cfg_, std::move(inner)));
}

void MinbftReplica::start(vm::GuestContext& ctx) {
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
}

void MinbftReplica::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                               BytesView msg) {
  const auto inner = verify_open(adapter_, ctx, cfg_, msg);
  if (!inner) return;  // tampered: detected, counted, dropped
  wire::MessageReader r(*inner);
  switch (r.tag()) {
    case kRequest: process_request(ctx, Request::decode(r)); return;
    case kPrepare: process_prepare(ctx, Prepare::decode(r)); return;
    case kCommit: process_commit(ctx, Commit::decode(r)); return;
    case kCheckpoint: process_checkpoint(Checkpoint::decode(r)); return;
    case kReqViewChange:
      process_req_view_change(ctx, ReqViewChange::decode(r));
      return;
    case kNewView: process_new_view(ctx, NewView::decode(r)); return;
    default: return;
  }
}

void MinbftReplica::process_request(vm::GuestContext& ctx, const Request& req) {
  const auto done = executed_ts_.find(req.client);
  if (done != executed_ts_.end() && req.timestamp <= done->second) return;
  auto& slot = pending_[req.client];
  if (req.timestamp <= slot.first) return;
  slot = {req.timestamp, req.payload};
  if (is_primary(ctx)) prepare_pending(ctx);
}

void MinbftReplica::prepare_pending(vm::GuestContext& ctx) {
  // Order every pending request the primary has not already prepared.
  for (auto it = pending_.begin(); it != pending_.end();) {
    const std::uint32_t client = it->first;
    const auto [ts, payload] = it->second;
    const auto top = prepared_ts_.find(client);
    if (top != prepared_ts_.end() && ts <= top->second) {
      it = pending_.erase(it);
      continue;
    }
    prepared_ts_[client] = ts;

    Prepare p;
    p.view = view_;
    p.seq = ++next_seq_;
    p.ui_counter = next_ui();
    p.primary = ctx.self();
    p.timestamp = ts;
    p.client = client;
    p.payload = payload;

    send_to_replicas(ctx, 0, cfg_.n,
                     seal_message(adapter_, ctx, cfg_, p.encode()));
    process_prepare(ctx, p);  // the primary's own copy skips the network
    it = pending_.erase(it);
  }
}

void MinbftReplica::process_prepare(vm::GuestContext& ctx, const Prepare& p) {
  if (p.view != view_) return;
  if (p.primary != primary_of(p.view)) return;
  if (p.seq == 0 || p.seq <= stable_seq_) return;
  const bool own = p.primary == ctx.self();
  if (!own && !accept_ui(p.primary, p.ui_counter)) return;

  auto& e = log_[p.seq];
  if (e.timestamp == 0 && e.client == 0) {
    e.view = p.view;
    e.prepare_ui = p.ui_counter;
    e.timestamp = p.timestamp;
    e.client = p.client;
    e.payload = p.payload;
  }
  e.committers.insert(p.primary);  // the Prepare is the primary's commit

  if (!own) {
    // A backup endorses the prepare with a commit under its own counter.
    Commit c;
    c.view = p.view;
    c.seq = p.seq;
    c.ui_counter = next_ui();
    c.prepare_ui = p.ui_counter;
    c.replica = ctx.self();
    send_to_replicas(ctx, 0, cfg_.n,
                     seal_message(adapter_, ctx, cfg_, c.encode()));
    e.committers.insert(ctx.self());
  }
  try_execute(ctx);
}

void MinbftReplica::process_commit(vm::GuestContext& ctx, const Commit& c) {
  if (c.view != view_) return;
  if (c.replica >= cfg_.n || c.replica == ctx.self()) return;
  if (c.seq == 0 || c.seq <= stable_seq_) return;
  if (!accept_ui(c.replica, c.ui_counter)) return;

  auto& e = log_[c.seq];
  // A commit only counts once the matching prepare is known; commits that
  // arrive first wait in the entry for it.
  if (e.prepare_ui != 0 && c.prepare_ui != e.prepare_ui) return;
  e.committers.insert(c.replica);
  try_execute(ctx);
}

void MinbftReplica::try_execute(vm::GuestContext& ctx) {
  for (auto it = log_.find(exec_seq_ + 1); it != log_.end();
       it = log_.find(exec_seq_ + 1)) {
    Entry& e = it->second;
    if (e.executed) break;
    if (e.prepare_ui == 0) break;  // commits arrived before the prepare
    if (e.committers.size() < cfg_.f + 1) break;
    e.executed = true;
    exec_seq_ = it->first;
    ctx.count("executed");
    ctx.set_timer(kProgressTimer, cfg_.progress_timeout);

    auto& done = executed_ts_[e.client];
    if (e.timestamp > done) {
      done = e.timestamp;
      Reply rep;
      rep.view = e.view;
      rep.timestamp = e.timestamp;
      rep.client = e.client;
      rep.replica = ctx.self();
      send_sealed(ctx, e.client, rep.encode());
    }
    maybe_checkpoint(ctx);
  }
}

void MinbftReplica::maybe_checkpoint(vm::GuestContext& ctx) {
  if (exec_seq_ == 0 || exec_seq_ % cfg_.checkpoint_interval != 0) return;
  Checkpoint cp;
  cp.seq = exec_seq_;
  cp.replica = ctx.self();
  cp.state_digest = state_digest_for(exec_seq_);
  send_to_replicas(ctx, 0, cfg_.n,
                   seal_message(adapter_, ctx, cfg_, cp.encode()));
  process_checkpoint(cp);
}

void MinbftReplica::process_checkpoint(const Checkpoint& cp) {
  if (cp.replica >= cfg_.n) return;
  if (cp.seq <= stable_seq_) return;
  if (cp.state_digest != state_digest_for(cp.seq)) return;
  auto& attesters = checkpoints_[cp.seq];
  attesters.insert(cp.replica);
  if (attesters.size() < cfg_.f + 1) return;

  stable_seq_ = cp.seq;
  const std::uint64_t floor =
      stable_seq_ > kRetainSeqs ? stable_seq_ - kRetainSeqs : 0;
  for (auto it = log_.begin(); it != log_.end();) {
    it = (it->first <= floor && it->second.executed) ? log_.erase(it)
                                                     : std::next(it);
  }
  for (auto it = checkpoints_.begin(); it != checkpoints_.end();) {
    it = it->first <= stable_seq_ ? checkpoints_.erase(it) : std::next(it);
  }
}

void MinbftReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kProgressTimer) return;
  // No execution progress for a whole timeout: ask for the next primary.
  ReqViewChange rv;
  rv.new_view = view_ + 1;
  rv.replica = ctx.self();
  send_to_replicas(ctx, 0, cfg_.n,
                   seal_message(adapter_, ctx, cfg_, rv.encode()));
  process_req_view_change(ctx, rv);
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
}

void MinbftReplica::process_req_view_change(vm::GuestContext& ctx,
                                            const ReqViewChange& rv) {
  if (rv.new_view <= view_) return;
  if (rv.replica >= cfg_.n) return;
  auto& supporters = view_change_reqs_[rv.new_view];
  supporters.insert(rv.replica);
  if (supporters.size() < cfg_.f + 1) return;
  if (primary_of(rv.new_view) != ctx.self()) return;

  // Nominated primary installs the view; sequence numbering resumes past
  // everything it has seen so no slot is assigned twice.
  NewView nv;
  nv.view = rv.new_view;
  nv.primary = ctx.self();
  nv.max_seq = std::max(next_seq_, log_.empty() ? 0 : log_.rbegin()->first);
  send_to_replicas(ctx, 0, cfg_.n,
                   seal_message(adapter_, ctx, cfg_, nv.encode()));
  process_new_view(ctx, nv);
}

void MinbftReplica::process_new_view(vm::GuestContext& ctx,
                                     const NewView& nv) {
  if (nv.view <= view_) return;
  if (nv.primary != primary_of(nv.view)) return;

  view_ = nv.view;
  next_seq_ = std::max(next_seq_, nv.max_seq);
  for (auto it = view_change_reqs_.begin(); it != view_change_reqs_.end();) {
    it = it->first <= view_ ? view_change_reqs_.erase(it) : std::next(it);
  }
  // Unexecuted slots from the old view are abandoned; their requests come
  // back via client retry broadcasts and get re-prepared in the new view.
  for (auto it = log_.begin(); it != log_.end();) {
    it = (!it->second.executed && it->second.view < view_) ? log_.erase(it)
                                                           : std::next(it);
  }
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
  if (is_primary(ctx)) prepare_pending(ctx);
}

void MinbftReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(usig_counter_);
  w.u64(next_seq_);
  w.u64(exec_seq_);
  w.u64(stable_seq_);
  w.u32(static_cast<std::uint32_t>(last_ui_.size()));
  for (const auto& [sender, ui] : last_ui_) {
    w.u32(sender);
    w.u64(ui);
  }
  w.u32(static_cast<std::uint32_t>(log_.size()));
  for (const auto& [seq, e] : log_) {
    w.u64(seq);
    w.u32(e.view);
    w.u64(e.prepare_ui);
    w.u64(e.timestamp);
    w.u32(e.client);
    w.bytes(e.payload);
    w.u32(static_cast<std::uint32_t>(e.committers.size()));
    for (const std::uint32_t c : e.committers) w.u32(c);
    w.boolean(e.executed);
  }
  w.u32(static_cast<std::uint32_t>(checkpoints_.size()));
  for (const auto& [seq, attesters] : checkpoints_) {
    w.u64(seq);
    w.u32(static_cast<std::uint32_t>(attesters.size()));
    for (const std::uint32_t a : attesters) w.u32(a);
  }
  w.u32(static_cast<std::uint32_t>(view_change_reqs_.size()));
  for (const auto& [view, supporters] : view_change_reqs_) {
    w.u32(view);
    w.u32(static_cast<std::uint32_t>(supporters.size()));
    for (const std::uint32_t s : supporters) w.u32(s);
  }
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [client, req] : pending_) {
    w.u32(client);
    w.u64(req.first);
    w.bytes(req.second);
  }
  w.u32(static_cast<std::uint32_t>(prepared_ts_.size()));
  for (const auto& [client, ts] : prepared_ts_) {
    w.u32(client);
    w.u64(ts);
  }
  w.u32(static_cast<std::uint32_t>(executed_ts_.size()));
  for (const auto& [client, ts] : executed_ts_) {
    w.u32(client);
    w.u64(ts);
  }
}

void MinbftReplica::load(serial::Reader& r) {
  view_ = r.u32();
  usig_counter_ = r.u64();
  next_seq_ = r.u64();
  exec_seq_ = r.u64();
  stable_seq_ = r.u64();
  last_ui_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t sender = r.u32();
    last_ui_[sender] = r.u64();
  }
  log_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint64_t seq = r.u64();
    Entry e;
    e.view = r.u32();
    e.prepare_ui = r.u64();
    e.timestamp = r.u64();
    e.client = r.u32();
    e.payload = r.bytes();
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j)
      e.committers.insert(r.u32());
    e.executed = r.boolean();
    log_.emplace(seq, std::move(e));
  }
  checkpoints_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    auto& attesters = checkpoints_[r.u64()];
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j)
      attesters.insert(r.u32());
  }
  view_change_reqs_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    auto& supporters = view_change_reqs_[r.u32()];
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j)
      supporters.insert(r.u32());
  }
  pending_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    const std::uint64_t ts = r.u64();
    pending_[client] = {ts, r.bytes()};
  }
  prepared_ts_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    prepared_ts_[client] = r.u64();
  }
  executed_ts_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    executed_ts_[client] = r.u64();
  }
}

}  // namespace turret::systems::minbft
