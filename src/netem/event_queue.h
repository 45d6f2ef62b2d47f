// The emulator's event queue: a binary min-heap of compact keys.
//
// Events live in SlabPool nodes that never move; the heap array holds only
// 24-byte `(at, seq, node*)` keys, so a sift moves keys, never Events with
// their packets. Each node records its heap index, which makes a node an
// O(log n) handle: erase() and retime() touch only the path through it. The
// emulator uses that to keep exactly one live entry per guest timer — a
// re-arm retimes the pending event in place instead of leaving a stale one
// behind.
//
// Determinism contract: pop order is the exact total (at, seq) order — seq
// is unique per event, so the order is a function of the pending keys alone,
// never of push or erase history. save() writes sorted() canonical (at, seq)
// order and load() re-pushes, so two queues with the same pending set produce
// byte-identical snapshots and pop sequences.
//
// Steady-state dispatch (stable queue depth) performs no heap allocation:
// nodes recycle through the pool and the key array keeps its capacity.
#pragma once

#include <cstdint>
#include <vector>

#include "common/pool.h"
#include "netem/event.h"

namespace turret::netem {

class EventQueue {
 public:
  /// A pending event. The pointer returned by push() stays valid until the
  /// event is popped, erased or cleared.
  struct Node {
    Event ev;
    std::size_t pos = 0;  ///< index of this node's key in heap_
  };

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Node* push(Event ev);

  /// Build-in-place push: acquire() a blank node, fill its event, then link()
  /// it into the heap under the event's (at, seq). No Event is moved.
  Node* acquire() { return pool_.acquire(); }
  void link(Node* n);

  /// Remove and return the (at, seq)-minimal event. Precondition: !empty().
  Event pop();

  /// Unlink the (at, seq)-minimal node without releasing it: the caller
  /// dispatches straight from `n->ev` and must release(n) afterwards (a
  /// scope guard, so a throwing handler leaks nothing). Precondition: !empty().
  Node* pop_node();
  void release(Node* n) { pool_.release(n); }

  /// Remove a pending event without firing it.
  void erase(Node* n);

  /// Move a pending event to a new (at, seq) key.
  void retime(Node* n, Time at, std::uint64_t seq);

  /// Time of the minimal event, or -1 when empty.
  Time peek_time() const { return heap_.empty() ? -1 : heap_.front().at; }

  std::size_t size() const { return heap_.size(); }
  /// Nodes acquired and not yet released: size() plus any node a caller
  /// holds between pop_node() and release() (leak checks in tests).
  std::size_t live_nodes() const { return pool_.live(); }
  bool empty() const { return heap_.empty(); }

  void clear();

  /// Every pending event in canonical (at, seq) order — the serialization
  /// view. O(n log n); cold path only.
  std::vector<const Event*> sorted() const;

 private:
  struct Key {
    Time at;
    std::uint64_t seq;
    Node* node;
  };

  static bool less(const Key& x, const Key& y) {
    if (x.at != y.at) return x.at < y.at;
    return x.seq < y.seq;
  }

  /// Place `k` at hole `i` after moving it toward the root / the leaves.
  void sift_up(std::size_t i, Key k);
  void sift_down(std::size_t i, Key k);
  /// Place `k` at hole `i`, sifting whichever way restores heap order.
  void resift(std::size_t i, Key k);
  /// Remove the key at `i`, filling the hole with the last key.
  void remove_at(std::size_t i);
  void place(std::size_t i, const Key& k) {
    heap_[i] = k;
    k.node->pos = i;
  }

  SlabPool<Node> pool_;
  std::vector<Key> heap_;
};

}  // namespace turret::netem
