// Hash-consed store of proposition sets, one per Sekitei::plan call.
//
// The SLRG is a graph over proposition sets in which "duplicate sets are
// merged", and the RG asks it for the cost of every set it generates.  The
// store gives every distinct sorted set one dense 32-bit SetId: a set is
// hashed once, when it is interned, and every later memo lookup or equality
// test is an integer operation.  The Slrg owns the store; the Rg interns its
// child sets into the same one.
//
// Sets live in an append-only arena of fixed-size blocks.  A block never
// reallocates, so a span returned by get() stays valid while later sets are
// interned, and growing the arena never holds two copies of it.  A set
// longer than a block gets a block of its own size.  The per-set records
// grow in chunks for the same reason.  The index is open addressing with
// linear probing over (hash, id) slots, doubled at half load.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "support/chunked_array.hpp"
#include "support/ids.hpp"
#include "support/sorted_vec.hpp"

namespace sekitei::core {

struct SetTag {};
using SetId = Id<SetTag>;

/// FNV-1a over the ids, then a 64-bit finalizer so that the low bits that
/// pick a slot depend on every id.
struct SortedSetHash {
  [[nodiscard]] std::uint64_t operator()(std::span<const PropId> set) const noexcept {
    std::uint64_t h = hash_sorted(set);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }
};

/// `Hash` is a parameter only so tests can force collisions.
template <class Hash = SortedSetHash>
class BasicSetStore {
 public:
  /// Ids per arena block (256 KiB).
  static constexpr std::size_t kBlock = std::size_t{1} << 16;

  /// The id of `set` (sorted, unique), adding it on first sight.
  SetId intern(std::span<const PropId> set) {
    const auto h = static_cast<std::uint32_t>(Hash{}(set));
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.id == kEmpty) {
        const SetId id(static_cast<std::uint32_t>(sets_.size()));
        sets_.push_back(append(set));
        slot = {h, id.value};
        if (2 * sets_.size() > slots_.size()) grow();
        return id;
      }
      if (slot.hash == h && std::ranges::equal(sets_[slot.id], set)) return SetId(slot.id);
    }
  }

  /// The set interned as `id`; valid for the store's lifetime.
  [[nodiscard]] std::span<const PropId> get(SetId id) const { return sets_[id.index()]; }

  /// Number of distinct sets interned so far (ids are 0 .. size()-1).
  [[nodiscard]] std::size_t size() const { return sets_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = SetId::kInvalid;
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  std::span<const PropId> append(std::span<const PropId> set) {
    if (set.empty()) return {};
    if (blocks_.empty() || blocks_.back().size() + set.size() > blocks_.back().capacity()) {
      blocks_.emplace_back().reserve(std::max(kBlock, set.size()));
    }
    std::vector<PropId>& block = blocks_.back();
    const std::size_t at = block.size();
    block.insert(block.end(), set.begin(), set.end());  // within capacity: no move
    return {block.data() + at, set.size()};
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t i = s.hash & mask;
      while (slots_[i].id != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  /// Moving the outer vector moves each block's buffer, not its contents,
  /// so spans into the blocks survive.
  std::vector<std::vector<PropId>> blocks_;
  ChunkedArray<std::span<const PropId>> sets_;  // by SetId
  std::vector<Slot> slots_ = std::vector<Slot>(1024);
};

using SetStore = BasicSetStore<>;

}  // namespace sekitei::core
