// Slab pool: block-allocated object recycling for hot-path node types.
//
// The event queue churns through one node per scheduled event; allocating
// each from the global heap puts malloc/free on the dispatch hot path and
// scatters nodes across the address space. SlabPool carves nodes out of
// fixed-size slabs and recycles them through an intrusive free list, so
// steady-state dispatch (push/pop at a stable queue depth) performs no
// allocations at all — the pool only touches the heap when the live set
// grows past every slab it has ever carved.
//
// Lifetimes: acquire() placement-constructs a T, release() destroys it and
// returns the slot to the free list. Slabs are only freed by the pool's
// destructor, so a T* stays valid until release() — there is no compaction.
// Not thread-safe; each emulator owns its own pool (the platform's
// parallelism is one emulator per branch worker).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace turret {

template <typename T, std::size_t kSlabNodes = 256>
class SlabPool {
 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  ~SlabPool() {
    // All outstanding objects must have been released; the free list and the
    // slabs are raw storage by now.
  }

  template <typename... Args>
  T* acquire(Args&&... args) {
    if (free_ == nullptr) grow();
    Slot* s = free_;
    free_ = s->next;
    ++live_;
    return ::new (static_cast<void*>(s->storage)) T(std::forward<Args>(args)...);
  }

  void release(T* p) {
    p->~T();
    Slot* s = reinterpret_cast<Slot*>(p);
    s->next = free_;
    free_ = s;
    --live_;
  }

  /// Objects currently acquired (diagnostics / leak asserts in tests).
  std::size_t live() const { return live_; }
  /// Total slots ever carved (capacity high-water mark).
  std::size_t capacity() const { return slabs_.size() * kSlabNodes; }

 private:
  union Slot {
    Slot* next;
    alignas(T) unsigned char storage[sizeof(T)];
  };

  void grow() {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabNodes));
    Slot* slab = slabs_.back().get();
    for (std::size_t i = kSlabNodes; i-- > 0;) {
      slab[i].next = free_;
      free_ = &slab[i];
    }
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  Slot* free_ = nullptr;
  std::size_t live_ = 0;
};

}  // namespace turret
