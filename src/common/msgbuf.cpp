#include "common/msgbuf.h"

#include <atomic>

namespace turret {

namespace {

std::atomic<std::int64_t> g_allocated_blocks{0};

/// One thread's recycled blocks and spare byte vectors.
class Recycler {
 public:
  Recycler() {
    // Enough slots for the byte cap, so keeping a spare never allocates.
    spares_.reserve(MessageBuf::kMaxSpareBytes /
                    MessageBuf::kMinSpareCapacity);
  }
  ~Recycler();
  Recycler(const Recycler&) = delete;
  Recycler& operator=(const Recycler&) = delete;

  detail::MsgBlock* pop_block() {
    detail::MsgBlock* b = free_;
    if (b != nullptr) {
      free_ = b->next_free;
      --free_count_;
    }
    return b;
  }

  /// False when the free list is full (the caller frees the block).
  bool push_block(detail::MsgBlock* b) {
    if (free_count_ >= MessageBuf::kMaxFreeBlocks) return false;
    b->next_free = free_;
    free_ = b;
    ++free_count_;
    return true;
  }

  /// Keep `bytes`' capacity as a spare when it is worth keeping and fits.
  void keep_spare(Bytes& bytes) {
    const std::size_t cap = bytes.capacity();
    if (cap < MessageBuf::kMinSpareCapacity ||
        spare_bytes_ + cap > MessageBuf::kMaxSpareBytes)
      return;
    bytes.clear();
    spare_bytes_ += cap;
    spares_.push_back(std::move(bytes));
  }

  Bytes take_spare() {
    if (spares_.empty()) return {};
    Bytes b = std::move(spares_.back());
    spares_.pop_back();
    spare_bytes_ -= b.capacity();
    return b;
  }

  MessageBuf::ThreadStats stats() const {
    return {fresh_blocks, free_count_, spares_.size(), spare_bytes_};
  }

  std::uint64_t fresh_blocks = 0;

 private:
  detail::MsgBlock* free_ = nullptr;
  std::size_t free_count_ = 0;
  std::vector<Bytes> spares_;
  std::size_t spare_bytes_ = 0;
};

// Trivially destructible, so both stay readable while the thread's
// non-trivial thread_locals are being destroyed: a MessageBuf released after
// its thread's Recycler died (say, held by a thread_local constructed before
// it) finds the recycler gone and frees its block instead.
thread_local Recycler* tl_recycler = nullptr;
thread_local bool tl_recycler_gone = false;

Recycler::~Recycler() {
  tl_recycler = nullptr;
  tl_recycler_gone = true;
  while (detail::MsgBlock* b = pop_block()) {
    delete b;
    g_allocated_blocks.fetch_sub(1, std::memory_order_relaxed);
  }
}

Recycler* recycler() {
  if (tl_recycler != nullptr) return tl_recycler;
  if (tl_recycler_gone) return nullptr;
  thread_local Recycler r;
  tl_recycler = &r;
  return tl_recycler;
}

}  // namespace

namespace detail {

MsgBlock* acquire_block(Bytes&& bytes) {
  Recycler* r = recycler();
  MsgBlock* b = r != nullptr ? r->pop_block() : nullptr;
  if (b == nullptr) {
    b = new MsgBlock;
    g_allocated_blocks.fetch_add(1, std::memory_order_relaxed);
    if (r != nullptr) ++r->fresh_blocks;
  }
  b->bytes = std::move(bytes);
  b->refs = 1;
  return b;
}

void release_block(MsgBlock* b) noexcept {
  Recycler* r = recycler();
  if (r != nullptr) {
    r->keep_spare(b->bytes);
    Bytes().swap(b->bytes);  // whatever was not kept is freed now
    if (r->push_block(b)) return;
  }
  delete b;
  g_allocated_blocks.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace detail

Bytes MessageBuf::spare(std::size_t min_capacity) {
  Recycler* r = recycler();
  Bytes b = r != nullptr ? r->take_spare() : Bytes{};
  b.reserve(min_capacity);
  return b;
}

MessageBuf::ThreadStats MessageBuf::thread_stats() {
  const Recycler* r = recycler();
  return r != nullptr ? r->stats() : ThreadStats{};
}

std::int64_t MessageBuf::allocated_blocks() {
  return g_allocated_blocks.load(std::memory_order_relaxed);
}

}  // namespace turret
