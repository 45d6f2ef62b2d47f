// The content-addressed PageStore, MemoryImage dirty tracking / COW
// adoption, and the hardened KsmIndex (DESIGN.md §5e).
#include <gtest/gtest.h>

#include <cstring>

#include "vm/memory.h"
#include "vm/pagestore.h"
#include "vm/snapshot.h"

namespace turret::vm {
namespace {

Bytes filled_page(std::uint8_t fill) { return Bytes(kPageSize, fill); }

MemoryProfile small_profile() {
  MemoryProfile p;
  p.os_pages = 16;
  p.app_pages = 8;
  p.unique_pages = 8;
  return p;
}

// --- PageStore --------------------------------------------------------------

TEST(PageStore, InternDeduplicatesIdenticalContent) {
  PageStore store;
  const Bytes a = filled_page(0xaa);
  const auto first = store.intern(a);
  EXPECT_TRUE(first.inserted);
  const auto second = store.intern(a);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.ref, second.ref);
  EXPECT_EQ(first.page.get(), second.page.get()) << "one physical copy";
  EXPECT_EQ(store.size(), 1u);

  const auto stats = store.stats();
  EXPECT_EQ(stats.interned, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.stored_pages, 1u);
  EXPECT_EQ(stats.stored_bytes(), kPageSize);
}

TEST(PageStore, DistinctContentGetsDistinctRefs) {
  PageStore store;
  const auto a = store.intern(filled_page(1));
  const auto b = store.intern(filled_page(2));
  EXPECT_FALSE(a.ref == b.ref);
  EXPECT_EQ(store.size(), 2u);
}

TEST(PageStore, HashCollisionsSettledByByteCompare) {
  PageStore store;
  // Force both pages onto the same chain by lying about the hash.
  const auto a = store.intern(filled_page(1), /*hash=*/42);
  const auto b = store.intern(filled_page(2), /*hash=*/42);
  EXPECT_TRUE(a.inserted);
  EXPECT_TRUE(b.inserted);
  EXPECT_EQ(a.ref.hash, b.ref.hash);
  EXPECT_NE(a.ref.slot, b.ref.slot) << "colliding pages occupy distinct slots";
  EXPECT_GE(store.stats().collisions, 1u);

  // Each ref resolves to its own content.
  EXPECT_EQ(store.get(a.ref)->bytes[0], 1);
  EXPECT_EQ(store.get(b.ref)->bytes[0], 2);
  // Re-interning under the same hash still dedups.
  EXPECT_FALSE(store.intern(filled_page(2), 42).inserted);
}

TEST(PageStore, GetThrowsOnUnknownRef) {
  PageStore store;
  store.intern(filled_page(7));
  EXPECT_THROW(store.get(PageRef{999, 0}), std::logic_error);
  EXPECT_FALSE(store.contains(PageRef{999, 0}));
}

TEST(PageStore, InternRejectsWrongSize) {
  PageStore store;
  EXPECT_THROW(store.intern(Bytes(kPageSize - 1, 0)), std::logic_error);
}

TEST(PageStore, EvictsOnlyUnreferencedPages) {
  PageStore store;
  PageRef kept_ref;
  PageHandle holder;  // external reference keeps the first page alive
  {
    const auto kept = store.intern(filled_page(1));
    kept_ref = kept.ref;
    holder = kept.page;
  }
  store.intern(filled_page(2));  // nobody holds this one
  EXPECT_EQ(store.size(), 2u);

  const std::size_t evicted = store.evict_unreferenced();
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.contains(kept_ref));
  EXPECT_EQ(store.stats().evicted, 1u);

  holder.reset();
  EXPECT_EQ(store.evict_unreferenced(), 1u);
  EXPECT_EQ(store.size(), 0u);
}

// --- MemoryImage dirty tracking ---------------------------------------------

TEST(MemoryImageDirty, MaterializeStartsAllDirtyAndClearDirtyResets) {
  MemoryImage img;
  img.materialize(small_profile(), 1, to_bytes("state"));
  EXPECT_EQ(img.dirty_count(), img.page_count());
  const std::uint64_t e = img.epoch();
  img.clear_dirty();
  EXPECT_EQ(img.dirty_count(), 0u);
  EXPECT_EQ(img.epoch(), e + 1);
  EXPECT_FALSE(img.dirty(0));
  EXPECT_FALSE(img.dirty(img.page_count() + 100)) << "out of range is clean";
}

TEST(MemoryImageDirty, UpdateHeapDirtiesOnlyChangedPages) {
  MemoryImage img;
  Bytes state(3 * kPageSize, 0x11);
  img.materialize(small_profile(), 1, state);
  img.clear_dirty();

  // Change one byte in the middle heap page.
  state[kPageSize + 5] = 0x99;
  img.update_heap(state);
  EXPECT_EQ(img.dirty_count(), 1u);
  EXPECT_TRUE(img.dirty(img.heap_start_pfn() + 1));
  EXPECT_EQ(img.extract_guest_state(), state);

  // Writing identical state dirties nothing.
  img.clear_dirty();
  img.update_heap(state);
  EXPECT_EQ(img.dirty_count(), 0u);
}

TEST(MemoryImageDirty, HeapGrowsInPlaceWithoutMovingRegions) {
  MemoryImage img;
  img.materialize(small_profile(), 1, to_bytes("tiny"));
  const std::uint32_t heap_start = img.heap_start_pfn();
  const std::size_t before = img.page_count();

  Bytes big(5 * kPageSize + 17, 0x42);
  img.update_heap(big);
  EXPECT_EQ(img.heap_start_pfn(), heap_start) << "heap-last: no renumbering";
  EXPECT_GT(img.page_count(), before);
  EXPECT_EQ(img.extract_guest_state(), big);

  // Shrinking keeps capacity (pfns stay stable) but the state reads back.
  const std::size_t grown = img.page_count();
  Bytes small = to_bytes("small again");
  img.update_heap(small);
  EXPECT_EQ(img.page_count(), grown) << "capacity is sticky";
  EXPECT_EQ(img.extract_guest_state(), small);
}

// --- MemoryImage COW adoption -----------------------------------------------

std::shared_ptr<PageFrames> frames_of(const MemoryImage& img) {
  auto f = std::make_shared<PageFrames>();
  for (std::size_t p = 0; p < img.page_count(); ++p) {
    auto page = std::make_shared<Page>();
    std::memcpy(page->bytes.data(), img.page(p).data(), kPageSize);
    f->pages.push_back(std::move(page));
  }
  f->heap_start_pfn = img.heap_start_pfn();
  f->heap_pages = img.heap_pages();
  f->state_bytes = img.guest_state_bytes();
  return f;
}

TEST(MemoryImageCow, AdoptSharesPagesUntilFirstWrite) {
  MemoryImage origin;
  origin.materialize(small_profile(), 1, to_bytes("shared state"));
  const auto frames = frames_of(origin);

  MemoryImage a, b;
  a.adopt(frames);
  b.adopt(frames);
  EXPECT_TRUE(a.adopted());
  EXPECT_EQ(a.page_count(), origin.page_count());
  EXPECT_EQ(a.extract_guest_state(), to_bytes("shared state"));
  EXPECT_EQ(a.cow_faults(), 0u);
  EXPECT_EQ(a.dirty_count(), 0u) << "freshly adopted image is clean";

  // Writing into one image must not leak into its sibling or the base.
  a.set_page(0, Bytes(kPageSize, 0xee));
  EXPECT_EQ(a.cow_faults(), 1u);
  EXPECT_EQ(a.dirty_count(), 1u);
  EXPECT_EQ(a.page(0)[0], 0xee);
  EXPECT_NE(b.page(0)[0], 0xee) << "sibling still shares the original";
  EXPECT_EQ(b.cow_faults(), 0u);
  EXPECT_EQ(frames->pages[0]->bytes[0], origin.page(0)[0]);

  // Rewriting an already-copied page is not another fault.
  a.set_page(0, Bytes(kPageSize, 0xef));
  EXPECT_EQ(a.cow_faults(), 1u);
}

TEST(MemoryImageCow, UpdateHeapOnAdoptedImageFaultsOnlyChangedPages) {
  MemoryImage origin;
  Bytes state(3 * kPageSize, 0x31);
  origin.materialize(small_profile(), 1, state);
  MemoryImage branch;
  branch.adopt(frames_of(origin));

  state[0] = 0x77;  // first heap page only
  branch.update_heap(state);
  EXPECT_EQ(branch.cow_faults(), 1u);
  EXPECT_EQ(branch.dirty_count(), 1u);
  EXPECT_EQ(branch.extract_guest_state(), state);

  // flatten() must interleave overlay and base correctly.
  const Bytes flat = branch.flatten();
  ASSERT_EQ(flat.size(), branch.size_bytes());
  for (std::size_t p = 0; p < branch.page_count(); ++p) {
    EXPECT_EQ(0, std::memcmp(flat.data() + p * kPageSize,
                             branch.page(p).data(), kPageSize))
        << "page " << p;
  }
}

TEST(MemoryImageCow, HeapGrowthOnAdoptedImage) {
  MemoryImage origin;
  origin.materialize(small_profile(), 1, to_bytes("x"));
  MemoryImage branch;
  branch.adopt(frames_of(origin));
  const std::size_t before = branch.page_count();

  Bytes big(2 * kPageSize + 3, 0x55);
  branch.update_heap(big);
  EXPECT_GT(branch.page_count(), before);
  EXPECT_EQ(branch.extract_guest_state(), big);
  EXPECT_TRUE(branch.adopted()) << "growth keeps the shared base";
}

// --- KsmIndex hardening -----------------------------------------------------

TEST(KsmIndex, SafeDefaultsBeforeScan) {
  KsmIndex ksm;
  EXPECT_FALSE(ksm.scanned());
  EXPECT_FALSE(ksm.is_shared(0, 0));
  EXPECT_EQ(ksm.page_key(0, 0), 0u);
  EXPECT_TRUE(ksm.canonical().empty());
}

TEST(KsmIndex, OutOfRangeQueriesAreSafeAfterScan) {
  std::vector<MemoryImage> fleet(2);
  for (std::size_t i = 0; i < 2; ++i)
    fleet[i].materialize(small_profile(), i + 1, to_bytes("s"));
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  KsmIndex ksm;
  ksm.scan(ptrs);
  EXPECT_TRUE(ksm.scanned());
  EXPECT_FALSE(ksm.is_shared(99, 0));
  EXPECT_FALSE(ksm.is_shared(0, 99999));
  EXPECT_EQ(ksm.page_key(99, 0), 0u);
  EXPECT_EQ(ksm.page_key(0, 99999), 0u);
  // In-range OS pages are shared across the two VMs.
  EXPECT_TRUE(ksm.is_shared(0, 0));
  EXPECT_NE(ksm.page_key(0, 0), 0u);
}

// --- load_shared error paths (satellite: snapshot corruption) ---------------

std::vector<MemoryImage> make_fleet(std::size_t n) {
  std::vector<MemoryImage> fleet(n);
  for (std::size_t i = 0; i < n; ++i)
    fleet[i].materialize(small_profile(), i + 1,
                         to_bytes("state " + std::to_string(i)));
  return fleet;
}

TEST(SnapshotErrors, LoadSharedMissingResidualBlob) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  std::vector<MemoryImage> restored(3);  // one VM more than was saved
  std::vector<MemoryImage*> rp{&restored[0], &restored[1], &restored[2]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"), std::logic_error);
}

TEST(SnapshotErrors, LoadSharedTruncatedSharedMap) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  Bytes map = store.get("t.shared");
  ASSERT_FALSE(map.empty());
  map.pop_back();  // no longer a whole number of (hash, page) records
  store.put("t.shared", map);

  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadSharedMissingSharedPage) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  store.put("t.shared", Bytes{});  // drop the whole map: every ref dangles
  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadSharedTruncatedResidual) {
  auto fleet = make_fleet(2);
  std::vector<const MemoryImage*> ptrs{&fleet[0], &fleet[1]};
  MemoryBlobStore store;
  SnapshotManager::save_shared(ptrs, store, "t");

  Bytes residual = store.get("t.vm0");
  residual.resize(residual.size() / 2);
  store.put("t.vm0", residual);

  std::vector<MemoryImage> restored(2);
  std::vector<MemoryImage*> rp{&restored[0], &restored[1]};
  EXPECT_THROW(SnapshotManager::load_shared(rp, store, "t"),
               serial::SerialError);
}

TEST(SnapshotErrors, LoadPlainPageCountMismatch) {
  auto fleet = make_fleet(1);
  std::vector<const MemoryImage*> ptrs{&fleet[0]};
  MemoryBlobStore store;
  SnapshotManager::save_plain(ptrs, store, "t");

  // Bump the page count without providing the pages.
  Bytes blob = store.get("t.vm0");
  serial::Reader r(blob);
  MemoryImage scratch;
  scratch.load_meta(r);
  const std::size_t count_off = r.position();
  std::uint32_t pages;
  std::memcpy(&pages, blob.data() + count_off, 4);
  ++pages;
  std::memcpy(blob.data() + count_off, &pages, 4);
  store.put("t.vm0", blob);

  std::vector<MemoryImage> restored(1);
  std::vector<MemoryImage*> rp{&restored[0]};
  EXPECT_THROW(SnapshotManager::load_plain(rp, store, "t"),
               serial::SerialError);
}

}  // namespace
}  // namespace turret::vm
