// A grow-only FIFO ring.
//
// Elements live in one slot array whose capacity doubles when full and never
// shrinks, so once it covers the deepest backlog, push_back and pop_front
// allocate nothing (std::deque allocates and frees a chunk every few
// elements as a queue moves forward). A popped slot keeps a moved-from T.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"

namespace turret {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  T& front() {
    TURRET_CHECK(size_ > 0);
    return slots_[head_];
  }
  /// The i-th element from the front.
  const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  T pop_front() {
    TURRET_CHECK(size_ > 0);
    T out = std::move(slots_[head_]);
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
    return out;
  }

  /// Drop every element (releasing what they hold); keeps the capacity.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i)
      slots_[(head_ + i) & (slots_.size() - 1)] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;  // a power of two

  void grow() {
    std::vector<T> next(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    for (std::size_t i = 0; i < size_; ++i)
      next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;  ///< capacity: 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace turret
