#include "vm/pagestore.h"

#include <cstring>

#include "common/check.h"
#include "common/hash.h"

namespace turret::vm {

PageStore::Interned PageStore::intern(BytesView content) {
  return intern(content, fnv1a(content));
}

PageStore::Interned PageStore::intern(BytesView content, std::uint64_t hash) {
  TURRET_CHECK_MSG(content.size() == kPageSize,
                   "intern() requires exactly one page");
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.interned;
  std::vector<PageHandle>& chain = chains_[hash];
  for (std::size_t slot = 0; slot < chain.size(); ++slot) {
    if (std::memcmp(chain[slot]->bytes.data(), content.data(), kPageSize) ==
        0) {
      ++stats_.dedup_hits;
      return {PageRef{hash, static_cast<std::uint32_t>(slot)}, false,
              chain[slot]};
    }
    ++stats_.collisions;
  }
  auto page = std::make_shared<Page>();
  std::memcpy(page->bytes.data(), content.data(), kPageSize);
  chain.push_back(page);
  ++stats_.stored_pages;
  return {PageRef{hash, static_cast<std::uint32_t>(chain.size() - 1)}, true,
          std::move(page)};
}

PageHandle PageStore::put(const PageRef& ref, BytesView content) {
  TURRET_CHECK_MSG(content.size() == kPageSize,
                   "put() requires exactly one page");
  TURRET_CHECK_MSG(fnv1a(content) == ref.hash,
                   "put(): page content does not hash to ref.hash");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageHandle>& chain = chains_[ref.hash];
  if (chain.size() <= ref.slot) chain.resize(ref.slot + 1);
  PageHandle& slot = chain[ref.slot];
  if (slot != nullptr) {
    TURRET_CHECK_MSG(
        std::memcmp(slot->bytes.data(), content.data(), kPageSize) == 0,
        "put(): slot already holds different content for this hash");
    ++stats_.dedup_hits;
    return slot;
  }
  auto page = std::make_shared<Page>();
  std::memcpy(page->bytes.data(), content.data(), kPageSize);
  slot = page;
  ++stats_.stored_pages;
  return page;
}

PageHandle PageStore::get(const PageRef& ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chains_.find(ref.hash);
  TURRET_CHECK_MSG(it != chains_.end() && ref.slot < it->second.size() &&
                       it->second[ref.slot] != nullptr,
                   "snapshot references a page missing from the page store");
  return it->second[ref.slot];
}

bool PageStore::contains(const PageRef& ref) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = chains_.find(ref.hash);
  return it != chains_.end() && ref.slot < it->second.size() &&
         it->second[ref.slot] != nullptr;
}

std::size_t PageStore::evict_unreferenced() {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t evicted = 0;
  for (auto it = chains_.begin(); it != chains_.end();) {
    std::vector<PageHandle>& chain = it->second;
    // Only a fully unreferenced *tail* can be dropped: slots are positional
    // (PageRef names them), so an interior page must stay to keep later slots
    // valid.
    // Null handles are put()-gaps: positionally reserved but holding nothing,
    // so dropping one is not an eviction.
    while (!chain.empty() &&
           (chain.back() == nullptr || chain.back().use_count() == 1)) {
      if (chain.back() != nullptr) ++evicted;
      chain.pop_back();
    }
    if (chain.empty()) {
      it = chains_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.stored_pages -= evicted;
  stats_.evicted += evicted;
  return evicted;
}

void PageStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.evicted += stats_.stored_pages;
  stats_.stored_pages = 0;
  chains_.clear();
}

std::size_t PageStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::size_t>(stats_.stored_pages);
}

PageStoreStats PageStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace turret::vm
