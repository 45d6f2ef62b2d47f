// Refcounted immutable message buffer with cheap sub-range views.
//
// A MessageBuf owns (shares) one immutable byte buffer and exposes an
// (offset, length) window into it. Copying a MessageBuf bumps a refcount;
// view() carves a sub-window without touching the bytes. This is the
// zero-copy currency of the netem hot path: a guest's send wraps the message
// once, fragmentation slices MTU-sized views of it, packets in flight carry
// the views, and reassembly of untampered fragments stitches the original
// window back together without a second copy. Layers that must mutate bytes
// (the malicious proxy's lies) materialize a fresh buffer exactly once via
// Bytes -> MessageBuf wrapping.
//
// Ownership rules:
//   * The underlying buffer is immutable for the MessageBuf's lifetime —
//     never mutate a Bytes after wrapping it.
//   * Views keep the whole parent buffer alive; a long-lived view of a huge
//     message pins the message. The emulator's consumers are short-lived
//     (packets drain, reassembly completes or is evicted), so this is the
//     right trade.
//
// Thread confinement and recycling: the views of one buffer share a block
// holding the bytes and a *plain* (non-atomic) refcount. That is sound
// because every buffer belongs to one testbed, and a testbed is driven by
// one thread at a time (a hand-off between threads goes through the thread
// pool's or a join's happens-before edge). Snapshots, decoded snapshots,
// scenarios and branch results hold bytes, never a MessageBuf, so no buffer
// is shared between concurrently running branches. When the last view dies
// the block goes to the current thread's free list and its byte capacity to
// the thread's spare list, from which wire::MessageWriter starts its next
// encode (spare()). Both lists are capped (kMaxFreeBlocks, kMaxSpareBytes),
// and a thread's lists are freed when it exits.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>

#include "common/bytes.h"
#include "serial/serial.h"

namespace turret {

namespace detail {

/// The shared part of a MessageBuf: the bytes and the number of views.
struct MsgBlock {
  Bytes bytes;
  std::uint32_t refs = 0;
  MsgBlock* next_free = nullptr;  ///< free-list link while recycled
};

/// A block holding `bytes` with refs == 1: recycled from this thread's free
/// list when it has one, freshly allocated otherwise.
MsgBlock* acquire_block(Bytes&& bytes);
/// Return a block whose refcount reached zero to this thread's lists (or
/// free it when the lists are full or the thread's recycler is gone).
void release_block(MsgBlock* b) noexcept;

}  // namespace detail

class MessageBuf {
 public:
  /// Per-thread recycler caps. Spares below kMinSpareCapacity are not kept
  /// (the encode they would seed reallocates anyway).
  static constexpr std::size_t kMaxFreeBlocks = 1024;
  static constexpr std::size_t kMaxSpareBytes = 64 * 1024;
  static constexpr std::size_t kMinSpareCapacity = 128;

  /// The calling thread's recycler counters (diagnostics and tests).
  struct ThreadStats {
    std::uint64_t fresh_blocks = 0;  ///< blocks this thread ever allocated
    std::size_t free_blocks = 0;     ///< blocks waiting on the free list
    std::size_t spares = 0;          ///< spare byte vectors retained
    std::size_t spare_bytes = 0;     ///< their summed capacity
  };

  MessageBuf() = default;

  /// Wrap an owned buffer (no copy; the vector's storage is adopted).
  /// Implicit on purpose: every legacy `Bytes message` call site keeps
  /// working, paying no allocation on a warm thread and zero byte copies.
  MessageBuf(Bytes bytes)  // NOLINT(google-explicit-constructor)
      : blk_(detail::acquire_block(std::move(bytes))),
        off_(0),
        len_(blk_->bytes.size()) {}

  MessageBuf(const MessageBuf& o) : blk_(o.blk_), off_(o.off_), len_(o.len_) {
    if (blk_ != nullptr) ++blk_->refs;
  }
  MessageBuf(MessageBuf&& o) noexcept
      : blk_(std::exchange(o.blk_, nullptr)),
        off_(std::exchange(o.off_, 0)),
        len_(std::exchange(o.len_, 0)) {}
  MessageBuf& operator=(const MessageBuf& o) {
    if (o.blk_ != nullptr) ++o.blk_->refs;  // first: self-assignment safe
    drop();
    blk_ = o.blk_;
    off_ = o.off_;
    len_ = o.len_;
    return *this;
  }
  MessageBuf& operator=(MessageBuf&& o) noexcept {
    if (this != &o) {
      drop();
      blk_ = std::exchange(o.blk_, nullptr);
      off_ = std::exchange(o.off_, 0);
      len_ = std::exchange(o.len_, 0);
    }
    return *this;
  }
  ~MessageBuf() { drop(); }

  /// Copy a borrowed range into a fresh buffer (the materialization point).
  static MessageBuf copy(BytesView v) { return MessageBuf(Bytes(v.begin(), v.end())); }

  /// An empty byte vector with at least `min_capacity` bytes reserved, taken
  /// from this thread's spares when one is retained. Encoders start from it
  /// so a typical message reallocates nothing.
  static Bytes spare(std::size_t min_capacity = kMinSpareCapacity);

  /// The calling thread's recycler counters.
  static ThreadStats thread_stats();
  /// Blocks allocated and not yet freed, over all threads (free lists
  /// included). Only the rare allocate/free paths touch it.
  static std::int64_t allocated_blocks();

  /// A sub-window of this view (offsets relative to this view). Shares the
  /// parent buffer; no bytes move.
  MessageBuf view(std::size_t off, std::size_t len) const {
    if (off + len > len_) throw std::out_of_range("MessageBuf::view");
    return MessageBuf(*this, off_ + off, len);
  }

  /// A window of the *parent* buffer at absolute offsets. Used by reassembly
  /// to reconstitute the whole message from its fragment views.
  MessageBuf rebase(std::size_t abs_off, std::size_t len) const {
    if (blk_ == nullptr || abs_off + len > blk_->bytes.size())
      throw std::out_of_range("MessageBuf::rebase");
    return MessageBuf(*this, abs_off, len);
  }

  BytesView span() const {
    return blk_ == nullptr ? BytesView{}
                           : BytesView(blk_->bytes.data() + off_, len_);
  }
  operator BytesView() const { return span(); }  // NOLINT

  const std::uint8_t* data() const {
    return blk_ == nullptr ? nullptr : blk_->bytes.data() + off_;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::uint8_t operator[](std::size_t i) const { return blk_->bytes[off_ + i]; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }

  /// Owned copy of the viewed bytes.
  Bytes to_bytes() const {
    return blk_ == nullptr ? Bytes{} : Bytes(begin(), end());
  }

  /// Absolute offset of this view inside the shared parent buffer.
  std::size_t offset() const { return off_; }
  /// Size of the shared parent buffer (0 when null).
  std::size_t buffer_size() const {
    return blk_ == nullptr ? 0 : blk_->bytes.size();
  }
  /// Number of MessageBuf views sharing the parent buffer (0 when null).
  long use_count() const {
    return blk_ == nullptr ? 0 : static_cast<long>(blk_->refs);
  }
  /// True when both views share the same parent buffer (tamper detection in
  /// tests; the reassembly zero-copy join precondition).
  bool same_buffer(const MessageBuf& o) const { return blk_ == o.blk_; }

  /// Byte-compatible with Writer::bytes(BytesView): u32 length + raw bytes.
  void save(serial::Writer& w) const { w.bytes(span()); }
  static MessageBuf load(serial::Reader& r) { return MessageBuf(r.bytes()); }

 private:
  MessageBuf(const MessageBuf& parent, std::size_t abs_off, std::size_t len)
      : blk_(parent.blk_), off_(abs_off), len_(len) {
    if (blk_ != nullptr) ++blk_->refs;
  }

  void drop() noexcept {
    if (blk_ != nullptr && --blk_->refs == 0) detail::release_block(blk_);
  }

  detail::MsgBlock* blk_ = nullptr;  ///< null: default or moved-from
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

}  // namespace turret
