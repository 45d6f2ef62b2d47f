// MessageBuf: the zero-copy currency of the netem hot path. These pin the
// ownership rules the emulator relies on — views share one refcounted buffer,
// fragmentation/reassembly round-trips without copying, and tampering
// materializes a fresh buffer exactly once — and the per-thread recycling of
// blocks and spare byte vectors behind them.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/msgbuf.h"
#include "serial/serial.h"

using namespace turret;

namespace {

Bytes seq_bytes(std::size_t n) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i);
  return b;
}

}  // namespace

TEST(MessageBuf, WrapAdoptsWithoutCopy) {
  Bytes src = seq_bytes(64);
  const std::uint8_t* storage = src.data();
  MessageBuf m(std::move(src));
  EXPECT_EQ(m.size(), 64u);
  EXPECT_EQ(m.data(), storage);  // the vector's storage was adopted
  EXPECT_EQ(m.use_count(), 1);
}

TEST(MessageBuf, CopiesShareTheBufferByRefcount) {
  MessageBuf a(seq_bytes(32));
  MessageBuf b = a;
  MessageBuf c = b.view(8, 16);
  EXPECT_EQ(a.use_count(), 3);
  EXPECT_TRUE(a.same_buffer(b));
  EXPECT_TRUE(a.same_buffer(c));
  EXPECT_EQ(c.data(), a.data() + 8);
  EXPECT_EQ(c.size(), 16u);
  EXPECT_EQ(c[0], 8);
}

TEST(MessageBuf, ViewsComposeAndRebaseRestoresTheWhole) {
  MessageBuf whole(seq_bytes(100));
  // MTU-style slicing, then a sub-view of a fragment.
  MessageBuf frag = whole.view(40, 30);
  EXPECT_EQ(frag.offset(), 40u);
  MessageBuf inner = frag.view(5, 10);
  EXPECT_EQ(inner.offset(), 45u);
  EXPECT_EQ(inner[0], 45);
  // Reassembly's join: any fragment can rebase to the full parent window.
  MessageBuf rejoined = inner.rebase(0, 100);
  EXPECT_TRUE(rejoined.same_buffer(whole));
  EXPECT_EQ(rejoined.to_bytes(), whole.to_bytes());
}

TEST(MessageBuf, ViewBoundsAreChecked) {
  MessageBuf m(seq_bytes(10));
  EXPECT_THROW(m.view(8, 3), std::out_of_range);
  EXPECT_THROW(m.view(11, 0), std::out_of_range);
  MessageBuf v = m.view(2, 6);
  EXPECT_THROW(v.rebase(5, 6), std::out_of_range);
  EXPECT_NO_THROW(v.rebase(0, 10));
}

TEST(MessageBuf, TamperMaterializesExactlyOnce) {
  // The proxy's lie path: read through a view, build fresh bytes, wrap them.
  // The forged message must own new storage; the original stays untouched.
  MessageBuf original(seq_bytes(16));
  MessageBuf in_flight = original.view(0, 16);
  Bytes forged = in_flight.to_bytes();  // the single copy
  forged[3] = 0xff;
  MessageBuf tampered(std::move(forged));
  EXPECT_FALSE(tampered.same_buffer(original));
  EXPECT_EQ(original[3], 3);
  EXPECT_EQ(tampered[3], 0xff);
  EXPECT_EQ(original.use_count(), 2);  // original + in_flight only
  EXPECT_EQ(tampered.use_count(), 1);
}

TEST(MessageBuf, DefaultIsEmpty) {
  MessageBuf m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.data(), nullptr);
  EXPECT_EQ(m.use_count(), 0);
  EXPECT_TRUE(BytesView(m).empty());
}

TEST(MessageBuf, SerializesLikePlainBytes) {
  // Byte-compatible with Writer::bytes(BytesView): snapshots written before
  // the zero-copy fabric load unchanged.
  MessageBuf m = MessageBuf(seq_bytes(20)).view(4, 12);
  serial::Writer w1;
  m.save(w1);
  serial::Writer w2;
  w2.bytes(m.to_bytes());
  EXPECT_EQ(w1.data(), w2.data());

  serial::Reader r(w1.data());
  MessageBuf back = MessageBuf::load(r);
  EXPECT_EQ(back.to_bytes(), m.to_bytes());
  EXPECT_FALSE(back.same_buffer(m));  // loaded buffers are freshly owned
}

// --- Buffer lifecycle: plain refcount, per-thread block and spare recycling.

namespace {

/// Empty this thread's spare list so a test sees only its own spares.
void drain_spares() {
  while (MessageBuf::thread_stats().spares > 0) (void)MessageBuf::spare(0);
}

/// True when [p, p + n) and [q, q + m) share a byte.
bool overlaps(const std::uint8_t* p, std::size_t n, const std::uint8_t* q,
              std::size_t m) {
  return p < q + m && q < p + n;
}

}  // namespace

TEST(MessageBuf, UseCountFollowsCopiesMovesAndAssignment) {
  MessageBuf a(seq_bytes(16));
  MessageBuf b = a.view(4, 4);
  EXPECT_EQ(a.use_count(), 2);
  MessageBuf c = std::move(b);  // a move hands the reference over
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 0);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.data(), nullptr);
  b = c;  // copy-assign into the moved-from view
  EXPECT_EQ(a.use_count(), 3);
  b = b;  // self-assignment keeps the count
  EXPECT_EQ(a.use_count(), 3);
  b = MessageBuf(seq_bytes(8));  // reassigning drops the old reference
  EXPECT_EQ(a.use_count(), 2);
  EXPECT_EQ(b.use_count(), 1);
  c = MessageBuf();
  EXPECT_EQ(a.use_count(), 1);
}

TEST(MessageBuf, RecycledStorageNeverAliasesALiveView) {
  drain_spares();
  MessageBuf whole(seq_bytes(200));
  MessageBuf frag = whole.view(50, 100);
  const std::uint8_t* storage = whole.data();
  whole = MessageBuf();  // the block still has a live view: nothing recycles
  EXPECT_EQ(MessageBuf::thread_stats().spares, 0u);

  // Churn blocks and spares while the view lives; none may reuse its block.
  for (int i = 0; i < 64; ++i) {
    Bytes spare = MessageBuf::spare(200);
    EXPECT_TRUE(spare.empty());
    EXPECT_FALSE(overlaps(spare.data(), spare.capacity(), storage, 200));
    spare.assign(200, 0xee);
    MessageBuf other(std::move(spare));
    EXPECT_FALSE(other.same_buffer(frag));
  }
  EXPECT_EQ(frag.size(), 100u);
  for (std::size_t i = 0; i < frag.size(); ++i)
    ASSERT_EQ(frag[i], static_cast<std::uint8_t>(50 + i));

  // Once the last view dies, block and capacity come back to this thread.
  drain_spares();
  const MessageBuf::ThreadStats before = MessageBuf::thread_stats();
  frag = MessageBuf();
  const MessageBuf::ThreadStats after = MessageBuf::thread_stats();
  EXPECT_EQ(after.spares, 1u);
  EXPECT_EQ(after.spare_bytes, 200u);
  if (before.free_blocks < MessageBuf::kMaxFreeBlocks) {
    EXPECT_EQ(after.free_blocks, before.free_blocks + 1);
  }
  const Bytes reused = MessageBuf::spare();
  EXPECT_EQ(reused.data(), storage);
  EXPECT_TRUE(reused.empty());
  MessageBuf next(seq_bytes(4));
  EXPECT_EQ(MessageBuf::thread_stats().fresh_blocks, after.fresh_blocks);
}

TEST(MessageBuf, SpareHonoursTheMinimumCapacityAndTheCaps) {
  drain_spares();
  EXPECT_GE(MessageBuf::spare().capacity(), MessageBuf::kMinSpareCapacity);
  EXPECT_GE(MessageBuf::spare(4096).capacity(), 4096u);
  // Small capacities are not worth keeping; the spare list holds at most
  // kMaxSpareBytes of capacity however much is released.
  { MessageBuf small(Bytes(MessageBuf::kMinSpareCapacity - 1)); }
  EXPECT_EQ(MessageBuf::thread_stats().spares, 0u);
  for (int i = 0; i < 40; ++i) {
    MessageBuf big(Bytes(4096));
  }
  EXPECT_LE(MessageBuf::thread_stats().spare_bytes,
            MessageBuf::kMaxSpareBytes);
  EXPECT_GT(MessageBuf::thread_stats().spares, 0u);
  drain_spares();
}

TEST(MessageBuf, BufferMadeOnOneThreadMayDieOnAnotherAfterJoin) {
  const std::int64_t allocated = MessageBuf::allocated_blocks();
  MessageBuf carried;
  std::thread t([&carried] {
    MessageBuf m(seq_bytes(300));
    carried = m.view(10, 20);
    MessageBuf scratch(seq_bytes(8));  // recycled here, freed at thread exit
  });
  t.join();
  // The exited thread freed its lists; only the carried block is left.
  EXPECT_EQ(MessageBuf::allocated_blocks(), allocated + 1);
  EXPECT_EQ(carried.use_count(), 1);
  EXPECT_EQ(carried[0], 10);
  EXPECT_EQ(carried[19], 29);
  const MessageBuf::ThreadStats before = MessageBuf::thread_stats();
  carried = MessageBuf();  // lands on this thread's lists
  if (before.free_blocks < MessageBuf::kMaxFreeBlocks) {
    EXPECT_EQ(MessageBuf::thread_stats().free_blocks, before.free_blocks + 1);
    EXPECT_EQ(MessageBuf::allocated_blocks(), allocated + 1);
  } else {
    EXPECT_EQ(MessageBuf::allocated_blocks(), allocated);
  }
}

namespace {

struct Straggler {
  MessageBuf buf;
};

}  // namespace

TEST(MessageBuf, ViewOutlivingItsThreadsRecyclerIsFreed) {
  const std::int64_t allocated = MessageBuf::allocated_blocks();
  std::thread([] {
    // Constructed before the thread's recycler, so destroyed after it: its
    // buffer is released when the recycler is already gone.
    thread_local Straggler straggler;
    straggler.buf = MessageBuf(seq_bytes(256));
    MessageBuf recycled(seq_bytes(256));
  }).join();
  EXPECT_EQ(MessageBuf::allocated_blocks(), allocated);
}

TEST(MessageBuf, ThreadsRecycleIndependently) {
  std::uint64_t fresh[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t, &fresh] {
      for (int i = 0; i < 1000; ++i) {
        MessageBuf m(seq_bytes(64));
        MessageBuf v = m.view(1, 2);
        ASSERT_EQ(v[0], 1);
      }
      fresh[t] = MessageBuf::thread_stats().fresh_blocks;
    });
  }
  for (std::thread& th : threads) th.join();
  // Each thread reused its one block; no thread saw another's.
  EXPECT_EQ(fresh[0], 1u);
  EXPECT_EQ(fresh[1], 1u);
}
