// Content-addressed, refcounted page storage for copy-on-write snapshots.
//
// The paper's modified KVM (§IV-C) writes each KSM-shared page once into a
// shared page map; per-VM snapshots keep references. PageStore generalizes
// that map across *time* as well as across VMs: every injection point of a
// search interns its dirty pages into one store keyed by content hash, so a
// page that already exists — because another VM has it, or because an earlier
// snapshot in the same search wrote it — costs a 12-byte reference instead of
// 4 KiB. Pages are immutable and refcounted (std::shared_ptr), so decoded
// snapshots and the branches restored from them can share one physical copy;
// MemoryImage breaks sharing per page on first guest write (COW fault).
//
// Hash collisions are settled by byte comparison: pages with equal hashes but
// different content occupy successive slots of the same chain, and a PageRef
// names (hash, slot) so references stay exact even under collision.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"

namespace turret::vm {

constexpr std::size_t kPageSize = 4096;

/// One immutable 4 KiB page frame.
struct Page {
  std::array<std::uint8_t, kPageSize> bytes;
};

using PageHandle = std::shared_ptr<const Page>;

/// Stable name of a stored page: its content hash plus the slot within that
/// hash's collision chain (0 for all but pathological inputs).
struct PageRef {
  std::uint64_t hash = 0;
  std::uint32_t slot = 0;

  friend bool operator==(const PageRef& a, const PageRef& b) {
    return a.hash == b.hash && a.slot == b.slot;
  }
};

/// A whole VM image decoded as shared immutable page frames, plus the layout
/// metadata MemoryImage needs to interpret them. Branches fanned out from one
/// injection point all adopt the same PageFrames; each copies a page locally
/// only when it first writes to it.
struct PageFrames {
  std::vector<PageHandle> pages;
  /// Parallel to `pages` when the frames were decoded from a PageStore: each
  /// page's name there. Lets an adopting image re-reference clean pages in
  /// its next save without rehashing them.
  std::vector<PageRef> refs;
  std::uint32_t heap_start_pfn = 0;
  std::uint32_t heap_pages = 0;
  std::uint32_t state_bytes = 0;
};

struct PageStoreStats {
  std::uint64_t interned = 0;      ///< intern() calls
  std::uint64_t dedup_hits = 0;    ///< interns resolved to an existing page
  std::uint64_t collisions = 0;    ///< equal-hash, unequal-content pairs seen
  std::uint64_t stored_pages = 0;  ///< distinct pages currently stored
  std::uint64_t evicted = 0;       ///< pages dropped by evict_unreferenced()

  std::uint64_t stored_bytes() const { return stored_pages * kPageSize; }
};

/// The content-addressed store. Thread-safe; in the search runtime all
/// interning happens on the caller thread (snapshots are saved between
/// fan-outs), workers only resolve references, so the mutex is uncontended on
/// the hot path.
class PageStore {
 public:
  struct Interned {
    PageRef ref;
    bool inserted = false;  ///< true if this call stored a new page
    PageHandle page;
  };

  /// Intern a page (must be exactly kPageSize bytes). Returns the existing
  /// entry when identical content is already stored.
  Interned intern(BytesView content);
  /// Same, with the content hash precomputed by the caller (MemoryImage and
  /// KsmIndex already hash pages; also lets tests force collisions).
  Interned intern(BytesView content, std::uint64_t hash);

  /// Install content at an exact (hash, slot) address. The distributed
  /// runtime names pages by PageRef on the wire, so a worker must be able to
  /// place a shipped page at the same address the coordinator's store gave it
  /// — slot included, since refs inside the snapshot blob are positional.
  /// Verifies that fnv1a(content) == ref.hash and, when the slot is already
  /// occupied, that the stored bytes match; throws std::logic_error on either
  /// mismatch (a corrupted or misrouted page). Chain gaps below `slot` are
  /// filled with null handles; get()/contains() treat those as absent.
  PageHandle put(const PageRef& ref, BytesView content);

  /// Resolve a reference. Throws std::logic_error if no such page is stored —
  /// a cow snapshot decoded against the wrong store.
  PageHandle get(const PageRef& ref) const;
  bool contains(const PageRef& ref) const;

  /// Drop pages referenced by nobody but the store itself. Returns the number
  /// evicted. Call between searches; during one, decoded snapshots keep their
  /// pages alive through their own handles regardless.
  std::size_t evict_unreferenced();
  void clear();

  std::size_t size() const;
  PageStoreStats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::vector<PageHandle>> chains_;
  PageStoreStats stats_;
};

}  // namespace turret::vm
