#include "systems/hotstuff/hotstuff_replica.h"

#include <algorithm>

#include "common/hash.h"
#include "systems/replication/fanout.h"
#include "systems/replication/signing.h"

namespace turret::systems::hotstuff {

namespace {

/// Blocks (and their vote/newview bookkeeping) safely behind the execution
/// frontier are garbage-collected; the three-chain rule only ever looks two
/// heights back, so this margin is generous.
constexpr std::uint64_t kRetainHeights = 16;
constexpr std::uint32_t kRetainViews = 16;

}  // namespace

Bytes HotstuffReplica::block_digest(const Block& b) const {
  Hasher128 h;
  h.update("hotstuff-block");
  h.update_u64(b.height);
  h.update_u64(b.view);
  h.update_u64(b.parent.size());
  h.update(BytesView(b.parent));
  h.update_u64(b.timestamp);
  h.update_u64(b.client);
  h.update(BytesView(b.payload));
  const Digest128 d = h.digest();
  Bytes out(16);
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(d.hi >> (8 * i));
    out[8 + i] = static_cast<std::uint8_t>(d.lo >> (8 * i));
  }
  return out;
}

void HotstuffReplica::send_sealed(vm::GuestContext& ctx, NodeId dst,
                                  Bytes inner) {
  ctx.send(dst, seal_message(adapter_, ctx, cfg_, std::move(inner)));
}

void HotstuffReplica::start(vm::GuestContext& ctx) {
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
  // The chain bootstraps itself: view 1's leader proposes the first block
  // (extending genesis) unprompted, and every QC from then on triggers the
  // next proposal.
  if (ctx.self() == leader_of(view_)) propose(ctx, view_);
}

void HotstuffReplica::on_message(vm::GuestContext& ctx, NodeId /*src*/,
                                 BytesView msg) {
  const auto inner = verify_open(adapter_, ctx, cfg_, msg);
  if (!inner) return;  // tampered: detected, counted, dropped
  wire::MessageReader r(*inner);
  switch (r.tag()) {
    case kRequest: process_request(Request::decode(r)); return;
    case kProposal: process_proposal(ctx, Proposal::decode(r)); return;
    case kVote: process_vote(ctx, Vote::decode(r)); return;
    case kNewView: process_newview(ctx, NewView::decode(r)); return;
    default: return;
  }
}

void HotstuffReplica::process_request(const Request& req) {
  const auto already = proposed_ts_.find(req.client);
  if (already != proposed_ts_.end() && req.timestamp <= already->second) return;
  auto& slot = pending_[req.client];
  if (req.timestamp <= slot.first) return;
  slot = {req.timestamp, req.payload};
}

void HotstuffReplica::propose(vm::GuestContext& ctx, std::uint32_t view) {
  Block b;
  b.height = high_qc_.height + 1;
  b.view = view;
  b.parent = high_qc_.digest;
  // One client request per block; leaders keep proposing empty blocks so the
  // chain (and therefore the three-chain commit of earlier blocks) advances.
  if (!pending_.empty()) {
    const auto it = pending_.begin();
    b.client = it->first;
    b.timestamp = it->second.first;
    b.payload = it->second.second;
    proposed_ts_[b.client] = b.timestamp;
    pending_.erase(it);
  }

  Proposal p;
  p.view = view;
  p.height = b.height;
  p.digest = block_digest(b);
  p.parent = b.parent;
  p.justify_view = high_qc_.view;
  p.leader = ctx.self();
  p.timestamp = b.timestamp;
  p.client = b.client;
  p.payload = b.payload;

  send_to_replicas(ctx, 0, cfg_.n,
                   seal_message(adapter_, ctx, cfg_, p.encode()));
  process_proposal(ctx, p);  // the leader's own copy skips the network
}

void HotstuffReplica::process_proposal(vm::GuestContext& ctx,
                                       const Proposal& p) {
  if (p.view + 1 < view_) return;             // stale view
  if (p.leader != leader_of(p.view)) return;  // not this view's leader
  if (p.height == 0) return;

  Block b;
  b.height = p.height;
  b.view = p.view;
  b.parent = p.parent;
  b.timestamp = p.timestamp;
  b.client = p.client;
  b.payload = p.payload;
  if (block_digest(b) != p.digest) return;  // digest must match the content
  blocks_[p.digest] = b;

  // The proposal carries the QC that certifies its parent.
  if (p.justify_view > high_qc_.view) {
    high_qc_ = QC{p.justify_view, p.height - 1, p.parent};
  }
  if (b.client != 0 || b.timestamp != 0) {
    // The request is now in flight; stop offering it to future leaders.
    auto it = pending_.find(b.client);
    if (it != pending_.end() && it->second.first <= b.timestamp)
      pending_.erase(it);
    auto& top = proposed_ts_[b.client];
    top = std::max(top, b.timestamp);
  }

  const bool safe_to_vote = p.height > voted_height_;
  view_ = p.view + 1;
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);

  if (safe_to_vote) {
    voted_height_ = p.height;
    Vote v;
    v.view = p.view;
    v.height = p.height;
    v.digest = p.digest;
    v.replica = ctx.self();
    const NodeId next_leader = leader_of(p.view + 1);
    if (next_leader == ctx.self()) {
      process_vote(ctx, v);
    } else {
      send_sealed(ctx, next_leader, v.encode());
    }
  }
  try_execute(ctx, p.digest);
  prune_old_state();
}

void HotstuffReplica::process_vote(vm::GuestContext& ctx, const Vote& v) {
  if (leader_of(v.view + 1) != ctx.self()) return;  // not my quorum to form
  if (v.replica >= cfg_.n) return;
  auto& voters = votes_[{v.view, v.digest}];
  voters.insert(v.replica);
  if (voters.size() != cfg_.quorum()) return;

  QC qc{v.view, v.height, v.digest};
  if (qc.view > high_qc_.view) high_qc_ = qc;
  if (view_ <= v.view + 1) {
    view_ = v.view + 1;
    propose(ctx, view_);
  }
}

void HotstuffReplica::process_newview(vm::GuestContext& ctx,
                                      const NewView& nv) {
  if (leader_of(nv.view) != ctx.self()) return;
  if (nv.replica >= cfg_.n) return;
  auto& reported = newviews_[nv.view];
  reported[nv.replica] = QC{nv.high_view, nv.high_height, nv.high_digest};
  if (reported.size() != cfg_.quorum()) return;

  // Adopt the highest certificate any quorum member reports, then lead.
  for (const auto& [replica, qc] : reported) {
    if (qc.view > high_qc_.view) high_qc_ = qc;
  }
  if (view_ <= nv.view) {
    view_ = nv.view;
    propose(ctx, nv.view);
  }
}

void HotstuffReplica::on_timer(vm::GuestContext& ctx, std::uint64_t timer_id) {
  if (timer_id != kProgressTimer) return;
  // Pacemaker: give up on the current view's leader, nominate the next.
  view_ += 1;
  NewView nv;
  nv.view = view_;
  nv.replica = ctx.self();
  nv.high_view = high_qc_.view;
  nv.high_height = high_qc_.height;
  nv.high_digest = high_qc_.digest;
  const NodeId leader = leader_of(view_);
  if (leader == ctx.self()) {
    process_newview(ctx, nv);
  } else {
    send_sealed(ctx, leader, nv.encode());
  }
  ctx.set_timer(kProgressTimer, cfg_.progress_timeout);
}

void HotstuffReplica::try_execute(vm::GuestContext& ctx, const Bytes& tip) {
  const auto tip_it = blocks_.find(tip);
  if (tip_it == blocks_.end()) return;
  if (tip_it->second.height < 3) return;  // nothing two levels down yet
  const std::uint64_t commit_height = tip_it->second.height - 2;
  if (commit_height <= exec_height_) return;

  // Three-chain rule: the chain below tip's grandparent is committed. Walk
  // the parent links down to the execution frontier, then apply upward.
  std::vector<const Block*> chain;
  const Bytes* cursor = &tip_it->second.parent;
  while (!cursor->empty()) {
    const auto it = blocks_.find(*cursor);
    if (it == blocks_.end()) break;  // gap (e.g. suppressed proposal)
    if (it->second.height <= commit_height) chain.push_back(&it->second);
    if (it->second.height <= exec_height_ + 1) break;
    cursor = &it->second.parent;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const Block& b = **it;
    if (b.height != exec_height_ + 1) continue;  // chain gap: wait
    exec_height_ = b.height;
    execute_block(ctx, b);
  }
}

void HotstuffReplica::execute_block(vm::GuestContext& ctx, const Block& b) {
  ctx.count("executed");
  if (b.timestamp == 0 && b.client == 0) return;  // empty pacing block
  auto& done = executed_ts_[b.client];
  if (b.timestamp <= done) return;
  done = b.timestamp;
  Reply rep;
  rep.view = b.view;
  rep.timestamp = b.timestamp;
  rep.client = b.client;
  rep.replica = ctx.self();
  send_sealed(ctx, b.client, rep.encode());
}

void HotstuffReplica::prune_old_state() {
  if (exec_height_ > kRetainHeights) {
    const std::uint64_t floor = exec_height_ - kRetainHeights;
    for (auto it = blocks_.begin(); it != blocks_.end();) {
      it = it->second.height < floor ? blocks_.erase(it) : std::next(it);
    }
  }
  if (view_ > kRetainViews) {
    const std::uint32_t floor = view_ - kRetainViews;
    for (auto it = votes_.begin(); it != votes_.end();) {
      it = it->first.first < floor ? votes_.erase(it) : std::next(it);
    }
    for (auto it = newviews_.begin(); it != newviews_.end();) {
      it = it->first < floor ? newviews_.erase(it) : std::next(it);
    }
  }
}

void HotstuffReplica::save(serial::Writer& w) const {
  w.u32(view_);
  w.u64(voted_height_);
  w.u32(high_qc_.view);
  w.u64(high_qc_.height);
  w.bytes(high_qc_.digest);
  w.u64(exec_height_);
  w.u32(static_cast<std::uint32_t>(blocks_.size()));
  for (const auto& [digest, b] : blocks_) {
    w.bytes(digest);
    w.u64(b.height);
    w.u32(b.view);
    w.bytes(b.parent);
    w.u64(b.timestamp);
    w.u32(b.client);
    w.bytes(b.payload);
  }
  w.u32(static_cast<std::uint32_t>(votes_.size()));
  for (const auto& [key, voters] : votes_) {
    w.u32(key.first);
    w.bytes(key.second);
    w.u32(static_cast<std::uint32_t>(voters.size()));
    for (const std::uint32_t v : voters) w.u32(v);
  }
  w.u32(static_cast<std::uint32_t>(newviews_.size()));
  for (const auto& [view, reported] : newviews_) {
    w.u32(view);
    w.u32(static_cast<std::uint32_t>(reported.size()));
    for (const auto& [replica, qc] : reported) {
      w.u32(replica);
      w.u32(qc.view);
      w.u64(qc.height);
      w.bytes(qc.digest);
    }
  }
  w.u32(static_cast<std::uint32_t>(pending_.size()));
  for (const auto& [client, req] : pending_) {
    w.u32(client);
    w.u64(req.first);
    w.bytes(req.second);
  }
  w.u32(static_cast<std::uint32_t>(proposed_ts_.size()));
  for (const auto& [client, ts] : proposed_ts_) {
    w.u32(client);
    w.u64(ts);
  }
  w.u32(static_cast<std::uint32_t>(executed_ts_.size()));
  for (const auto& [client, ts] : executed_ts_) {
    w.u32(client);
    w.u64(ts);
  }
}

void HotstuffReplica::load(serial::Reader& r) {
  view_ = r.u32();
  voted_height_ = r.u64();
  high_qc_.view = r.u32();
  high_qc_.height = r.u64();
  high_qc_.digest = r.bytes();
  exec_height_ = r.u64();
  blocks_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    Bytes digest = r.bytes();
    Block b;
    b.height = r.u64();
    b.view = r.u32();
    b.parent = r.bytes();
    b.timestamp = r.u64();
    b.client = r.u32();
    b.payload = r.bytes();
    blocks_.emplace(std::move(digest), std::move(b));
  }
  votes_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t view = r.u32();
    Bytes digest = r.bytes();
    auto& voters = votes_[{view, std::move(digest)}];
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j) voters.insert(r.u32());
  }
  newviews_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    auto& reported = newviews_[r.u32()];
    for (std::uint32_t j = 0, m = r.u32(); j < m; ++j) {
      const std::uint32_t replica = r.u32();
      QC qc;
      qc.view = r.u32();
      qc.height = r.u64();
      qc.digest = r.bytes();
      reported.emplace(replica, std::move(qc));
    }
  }
  pending_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    const std::uint64_t ts = r.u64();
    pending_[client] = {ts, r.bytes()};
  }
  proposed_ts_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    proposed_ts_[client] = r.u64();
  }
  executed_ts_.clear();
  for (std::uint32_t i = 0, n = r.u32(); i < n; ++i) {
    const std::uint32_t client = r.u32();
    executed_ts_[client] = r.u64();
  }
}

}  // namespace turret::systems::hotstuff
