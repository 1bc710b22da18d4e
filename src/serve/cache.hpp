#pragma once

// LRU cache of per-user recommendation lists.
//
// Recommendation traffic is Zipf-skewed (the same popularity skew the
// synthetic generator plants in item degrees shows up in user queries), so a
// small hot-user cache absorbs a large share of queries without touching the
// factor shards. Entries are keyed by (user, k); any k change is a miss.
// Thread-safe; hit/miss counters feed ServeStats.
//
// Entries are additionally tagged with the model *generation* whose factors
// produced them (the engine's LiveFactorStore numbers them from 1). A hot
// swap does not pay a global clear(): bumping the cache's generation —
// explicitly via set_generation() or implicitly by a put() carrying a newer
// tag — marks older entries stale, and each stale entry is evicted lazily
// the next time it is touched (or by ordinary LRU pressure). Invalidation
// cost is thereby spread across the queries that follow the swap instead of
// spiking at swap time; a put() tagged older than the cache's generation is
// dropped, so a slow batch that was scored against a superseded snapshot can
// never poison the cache.

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/topk.hpp"
#include "util/types.hpp"

namespace cumf::serve {

class ScoreCache {
 public:
  /// capacity == 0 disables the cache (every get() is a miss, put() drops).
  explicit ScoreCache(std::size_t capacity) : capacity_(capacity) {}

  /// On hit, copies the cached list into `out` (and, when `generation_out`
  /// is given, the generation the entry was scored under), refreshes recency,
  /// and counts a hit. An entry from a superseded generation is evicted on
  /// the spot and counts as a miss (plus a stale eviction); an absent entry
  /// is a plain miss.
  bool get(idx_t user, int k, std::vector<Recommendation>* out,
           std::uint64_t* generation_out = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key(user, k));
    if (it == index_.end()) {
      ++misses_;
      return false;
    }
    if (it->second->generation != generation_) {
      entries_.erase(it->second);
      index_.erase(it);
      ++stale_evictions_;
      ++misses_;
      return false;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    *out = it->second->recs;
    if (generation_out != nullptr) *generation_out = it->second->generation;
    ++hits_;
    return true;
  }

  /// Inserts under the given generation tag. A tag newer than the cache's
  /// current generation advances it (staling older entries); a tag older is
  /// dropped without touching the cache.
  void put(idx_t user, int k, std::vector<Recommendation> recs,
           std::uint64_t generation = 0) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (generation > generation_) generation_ = generation;
    if (generation < generation_) return;  // scored against a stale snapshot
    const Key id = key(user, k);
    const auto it = index_.find(id);
    if (it != index_.end()) {
      it->second->generation = generation;
      it->second->recs = std::move(recs);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    entries_.push_front(Entry{id, generation, std::move(recs)});
    index_[id] = entries_.begin();
    if (entries_.size() > capacity_) {
      index_.erase(entries_.back().id);
      entries_.pop_back();
    }
  }

  /// Marks every entry tagged older than `generation` stale (monotonic; an
  /// older value is ignored). Stale entries are evicted lazily by get().
  void set_generation(std::uint64_t generation) {
    std::lock_guard<std::mutex> lock(mu_);
    if (generation > generation_) generation_ = generation;
  }

  [[nodiscard]] std::uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

  void invalidate(idx_t user, int k) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key(user, k));
    if (it == index_.end()) return;
    entries_.erase(it->second);
    index_.erase(it);
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    index_.clear();
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  [[nodiscard]] std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  /// Superseded-generation entries evicted on access since construction.
  [[nodiscard]] std::uint64_t stale_evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stale_evictions_;
  }

 private:
  // Full-width key: no packing, so a wider idx_t can never silently alias
  // user ids 2^32 apart (the old packed-uint64 key truncated idx_t to its
  // low 32 bits and relied on a static_assert to catch a widening).
  struct Key {
    idx_t user;
    int k;

    friend bool operator==(const Key&, const Key&) = default;
  };

  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept {
      // splitmix64 finalizer over both fields — cheap and avalanche-complete
      // regardless of idx_t's width.
      auto h = static_cast<std::uint64_t>(key.user);
      h = (h << 32) ^ static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(key.k));
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebULL;
      h ^= h >> 31;
      return static_cast<std::size_t>(h);
    }
  };

  struct Entry {
    Key id;
    std::uint64_t generation;
    std::vector<Recommendation> recs;
  };

  static Key key(idx_t user, int k) { return Key{user, k}; }

  std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> entries_;  // front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t generation_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stale_evictions_ = 0;
};

}  // namespace cumf::serve
