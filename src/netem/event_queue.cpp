#include "netem/event_queue.h"

#include <algorithm>

#include "common/check.h"

namespace turret::netem {

EventQueue::~EventQueue() { clear(); }

void EventQueue::clear() {
  for (const Key& k : heap_) pool_.release(k.node);
  heap_.clear();
}

void EventQueue::sift_up(std::size_t i, Key k) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!less(k, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void EventQueue::sift_down(std::size_t i, Key k) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && less(heap_[child + 1], heap_[child])) ++child;
    if (!less(heap_[child], k)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, k);
}

void EventQueue::resift(std::size_t i, Key k) {
  if (i > 0 && less(k, heap_[(i - 1) / 2])) {
    sift_up(i, k);
  } else {
    sift_down(i, k);
  }
}

void EventQueue::remove_at(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) resift(i, last);  // else the last key was removed
}

EventQueue::Node* EventQueue::push(Event ev) {
  Node* n = acquire();
  n->ev = std::move(ev);
  link(n);
  return n;
}

void EventQueue::link(Node* n) {
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{n->ev.at, n->ev.seq, n});
}

Event EventQueue::pop() {
  Node* n = pop_node();
  Event ev = std::move(n->ev);
  release(n);
  return ev;
}

EventQueue::Node* EventQueue::pop_node() {
  TURRET_CHECK_MSG(!heap_.empty(), "pop from an empty event queue");
  Node* n = heap_.front().node;
  remove_at(0);
  return n;
}

void EventQueue::erase(Node* n) {
  remove_at(n->pos);
  pool_.release(n);
}

void EventQueue::retime(Node* n, Time at, std::uint64_t seq) {
  n->ev.at = at;
  n->ev.seq = seq;
  resift(n->pos, Key{at, seq, n});
}

std::vector<const Event*> EventQueue::sorted() const {
  std::vector<Key> keys = heap_;
  std::sort(keys.begin(), keys.end(), less);
  std::vector<const Event*> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.push_back(&k.node->ev);
  return out;
}

}  // namespace turret::netem
