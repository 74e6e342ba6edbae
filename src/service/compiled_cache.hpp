// Sharded LRU cache of compiled problems, keyed by content fingerprint
// (model/fingerprint.hpp).  Repeated queries against the same network /
// domain / scenario skip grounding+leveling entirely and share one immutable
// CompiledProblem across worker threads — every planner phase takes the
// compiled problem by const reference and allocates its own search state, so
// concurrent reads are safe.
//
// Sharding: the key space is split over `shards` independently locked LRU
// lists, so concurrent workers touching different problems never contend on
// one mutex.  Capacity is divided evenly across shards (floor, min 1), which
// makes eviction approximate w.r.t. a single global LRU — the standard
// trade-off.  A capacity of 0 disables caching: every lookup misses and
// nothing is retained (the bench uses this to price the cache itself).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/compile.hpp"
#include "model/textio.hpp"

namespace sekitei::service {

/// An immutable compiled problem pinned together with the loaded instance it
/// points into (CompiledProblem holds raw pointers to the network/domain/
/// problem, so `source` must outlive `cp`).
struct CompiledEntry {
  std::shared_ptr<const model::LoadedProblem> source;
  model::CompiledProblem cp;
};

class CompiledProblemCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;

    [[nodiscard]] double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  using Factory = std::function<std::shared_ptr<const CompiledEntry>()>;

  explicit CompiledProblemCache(std::size_t capacity, std::size_t shards = 8);

  /// Returns the cached entry for `key`, or runs `make` and inserts its
  /// result.  The factory runs *outside* the shard lock (compilation can take
  /// tens of milliseconds; holding the lock would serialize unrelated
  /// lookups).  When two threads race on the same missing key both may
  /// compile, but only the first insert survives and both callers receive
  /// the surviving entry.  Second element: true on a cache hit.
  [[nodiscard]] std::pair<std::shared_ptr<const CompiledEntry>, bool> get_or_compile(
      std::uint64_t key, const Factory& make);

  /// Probe without a factory (counts as hit/miss; refreshes LRU position).
  [[nodiscard]] std::shared_ptr<const CompiledEntry> find(std::uint64_t key);

  /// Inserts (or replaces) an entry, evicting the shard's LRU tail if full.
  void insert(std::uint64_t key, std::shared_ptr<const CompiledEntry> entry);

  [[nodiscard]] Stats stats() const;
  void clear();

  [[nodiscard]] std::size_t capacity() const { return shards_.size() * per_shard_cap_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool enabled() const { return enabled_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, std::shared_ptr<const CompiledEntry>>> lru;
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t,
                                           std::shared_ptr<const CompiledEntry>>>::iterator>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shard_of(std::uint64_t key) {
    // Fingerprints are FNV-mixed, so the low bits are already uniform.
    return shards_[key % shards_.size()];
  }

  /// Looks `key` up in `shard` (lock held by caller), refreshing LRU order.
  [[nodiscard]] std::shared_ptr<const CompiledEntry> lookup_locked(Shard& shard,
                                                                   std::uint64_t key);
  void insert_locked(Shard& shard, std::uint64_t key,
                     std::shared_ptr<const CompiledEntry> entry);

  bool enabled_ = true;
  std::size_t per_shard_cap_ = 1;
  std::vector<Shard> shards_;
};

}  // namespace sekitei::service
