// Event queue order properties: the EventQueue must pop in the exact total
// (at, seq) order of a reference binary heap — this is what keeps traces,
// provenance, and golden artifacts bit-for-bit unchanged — across random
// schedules with interleaved pops, erases and retimes (the emulator's guest
// timer operations), heavy timestamp ties, and save/load round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "netem/event_queue.h"
#include "serial/serial.h"

using namespace turret;
using namespace turret::netem;

namespace {

Event make_event(Time at, std::uint64_t seq) {
  Event e;
  e.at = at;
  e.seq = seq;
  e.kind = EventKind::kTimer;
  e.node = static_cast<NodeId>(seq % 7);
  e.a = seq;
  e.b = at >= 0 ? static_cast<std::uint64_t>(at) : 0;
  return e;
}

/// The reference: a min-heap on (at, seq) with removal by seq.
struct ReferenceHeap {
  std::vector<Event> heap;
  void push(Event e) {
    heap.push_back(std::move(e));
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  Event pop() {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    Event e = std::move(heap.back());
    heap.pop_back();
    return e;
  }
  void erase(std::uint64_t seq) {
    const auto it = std::find_if(heap.begin(), heap.end(),
                                 [seq](const Event& e) { return e.seq == seq; });
    ASSERT_NE(it, heap.end());
    heap.erase(it);
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  }
  bool empty() const { return heap.empty(); }
};

}  // namespace

TEST(EventQueue, PopsInTimeThenSeqOrder) {
  EventQueue q;
  q.push(make_event(30, 2));
  q.push(make_event(10, 0));
  q.push(make_event(30, 1));  // same time as seq 2: FIFO by seq
  q.push(make_event(20, 3));
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q.peek_time(), 10);
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 1u);
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek_time(), -1);
}

TEST(EventQueue, MatchesReferenceHeapOnRandomSchedules) {
  // Several seeds, each mixing widely spread timestamps with dense ties, and
  // erasing or retiming random pending events between pops. A retime takes a
  // fresh seq, exactly as the emulator's timer re-arm does.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    EventQueue q;
    ReferenceHeap ref;
    std::vector<std::pair<std::uint64_t, EventQueue::Node*>> live;  // by seq
    const auto take = [&live](std::size_t i) {
      const auto entry = live[i];
      live[i] = live.back();
      live.pop_back();
      return entry;
    };
    const auto index_of = [&live](std::uint64_t seq) {
      std::size_t i = 0;
      while (i < live.size() && live[i].first != seq) ++i;
      return i;
    };
    std::uint64_t seq = 0;
    Time now = 0;
    const auto random_time = [&] {
      const std::uint64_t spread =
          rng.next_bool(0.3) ? 50 : 50'000'000;  // ties vs ~50 ms spread
      return now + static_cast<Time>(rng.next_below(spread) + 1);
    };
    for (int round = 0; round < 2000; ++round) {
      const Event e = make_event(random_time(), seq++);
      ref.push(e);
      live.emplace_back(e.seq, q.push(e));
      if (rng.next_bool(0.2)) {
        const auto [gone, node] = take(rng.next_below(live.size()));
        q.erase(node);
        ref.erase(gone);
      }
      if (!live.empty() && rng.next_bool(0.2)) {
        const auto [old_seq, node] = take(rng.next_below(live.size()));
        const Time at = random_time();
        q.retime(node, at, seq);
        ref.erase(old_seq);
        ref.push(make_event(at, seq));
        live.emplace_back(seq++, node);
      }
      ASSERT_EQ(q.size(), ref.heap.size()) << "seed " << seed;
      // Interleaved pops advance the virtual clock like the emulator does.
      while (!q.empty() && rng.next_bool(0.4)) {
        ASSERT_FALSE(ref.empty());
        const Event got = q.pop();
        const Event want = ref.pop();
        ASSERT_EQ(got.at, want.at) << "seed " << seed;
        ASSERT_EQ(got.seq, want.seq) << "seed " << seed;
        ASSERT_GE(got.at, now);
        now = got.at;
        const std::size_t i = index_of(got.seq);
        ASSERT_LT(i, live.size()) << "popped a non-pending seq " << got.seq;
        take(i);
      }
    }
    while (!q.empty()) {
      const Event got = q.pop();
      const Event want = ref.pop();
      ASSERT_EQ(got.at, want.at) << "seed " << seed;
      ASSERT_EQ(got.seq, want.seq) << "seed " << seed;
    }
    EXPECT_TRUE(ref.empty());
  }
}

TEST(EventQueue, AllTiedTimestampsPopInSeqOrder) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 500; ++s) q.push(make_event(42'000'000, s));
  for (std::uint64_t s = 0; s < 500; ++s) {
    ASSERT_EQ(q.pop().seq, s);
  }
}

TEST(EventQueue, SortedIsCanonicalOrder) {
  Rng rng(9);
  EventQueue q;
  for (std::uint64_t s = 0; s < 300; ++s)
    q.push(make_event(static_cast<Time>(rng.next_below(1000)), s));
  const auto view = q.sorted();
  ASSERT_EQ(view.size(), 300u);
  for (std::size_t i = 1; i < view.size(); ++i) {
    const bool ordered = view[i - 1]->at < view[i]->at ||
                         (view[i - 1]->at == view[i]->at &&
                          view[i - 1]->seq < view[i]->seq);
    ASSERT_TRUE(ordered) << "at index " << i;
  }
}

TEST(EventQueue, SaveLoadRoundTripPreservesPopOrder) {
  // Serialize via the canonical sorted() view (as Emulator::save does),
  // reload into a fresh queue with different push history, and require the
  // identical pop sequence — heap layout must not be observable.
  Rng rng(1234);
  EventQueue q;
  for (std::uint64_t s = 0; s < 400; ++s) {
    q.push(make_event(static_cast<Time>(rng.next_below(100'000'000)), s));
  }
  for (int i = 0; i < 100; ++i) q.pop();

  serial::Writer w;
  const auto view = q.sorted();
  w.u32(static_cast<std::uint32_t>(view.size()));
  for (const Event* e : view) e->save(w);

  serial::Reader r(w.data());
  EventQueue loaded;
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) loaded.push(Event::load(r));

  ASSERT_EQ(loaded.size(), q.size());
  while (!q.empty()) {
    const Event a = q.pop();
    const Event b = loaded.pop();
    ASSERT_EQ(a.at, b.at);
    ASSERT_EQ(a.seq, b.seq);
    ASSERT_EQ(a.a, b.a);
  }
  EXPECT_TRUE(loaded.empty());
}

TEST(EventQueue, ClearReleasesEverything) {
  EventQueue q;
  for (std::uint64_t s = 0; s < 100; ++s) q.push(make_event(5 * s, s));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peek_time(), -1);
  q.push(make_event(7, 0));  // still usable after clear
  EXPECT_EQ(q.pop().at, 7);
}
