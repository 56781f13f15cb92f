// The lock-free-of-locking cache core (DESIGN.md §3): one hash table, one
// LRU list and one set of counters, with *no* synchronisation of its own.
// A kv_shard is always driven under exactly one lock — the sharded_store
// engine owns that lock and the shard-selection policy; this class owns only
// the memcached-1.4 data-structure semantics (chained buckets, bump-on-access
// LRU, eviction of the coldest item past the budget).
//
// Counters are single-writer relaxed-atomic cells (util/stat_cell.hpp): the
// shard lock orders the writers, so the holder is the only incrementer, and
// coordinators may *sample* them concurrently — the windows[] per-shard
// hit-rate telemetry and the server's live `stats` command both do.  The
// data structure itself (buckets, LRU) stays quiescent-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "util/stat_cell.hpp"

namespace kvstore {

// FNV-1a, the classic string hash (memcached's default family).
std::uint64_t fnv1a64(const std::string& s) noexcept;

// Plain snapshot of a shard's operation counters (exact at quiescence; a
// mid-run sample sees each counter at some recent instant).
struct kv_stats {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t evictions = 0;

  kv_stats& operator+=(const kv_stats& o) noexcept {
    gets += o.gets;
    get_hits += o.get_hits;
    sets += o.sets;
    deletes += o.deletes;
    evictions += o.evictions;
    return *this;
  }
};

// The live cells behind kv_stats, plus the resident-item count so size()
// is sampleable too.
struct kv_counters {
  cohort::stat_cell gets;
  cohort::stat_cell get_hits;
  cohort::stat_cell sets;
  cohort::stat_cell deletes;
  cohort::stat_cell evictions;
  cohort::stat_cell items;

  kv_stats snapshot() const {
    kv_stats s;
    s.gets = gets.get();
    s.get_hits = get_hits.get();
    s.sets = sets.get();
    s.deletes = deletes.get();
    s.evictions = evictions.get();
    return s;
  }
};

class kv_shard {
 public:
  // max_items == 0 disables LRU eviction.
  explicit kv_shard(std::size_t buckets = 1024, std::size_t max_items = 0)
      : buckets_(buckets != 0 ? buckets : 1),
        max_items_(max_items),
        table_(buckets_) {}

  // All mutators take the key's fnv1a64 hash so the engine hashes once for
  // both shard selection (mixed high bits) and bucket selection (low bits).

  std::optional<std::string> get(const std::string& key, std::uint64_t hash) {
    ++stats_.gets;
    item* it = find(key, hash);
    if (it == nullptr) return std::nullopt;
    ++stats_.get_hits;
    touch(it);
    return it->value;
  }

  void set(const std::string& key, std::string value, std::uint64_t hash) {
    ++stats_.sets;
    item* it = find(key, hash);
    if (it != nullptr) {
      it->value = std::move(value);
      touch(it);
      return;
    }
    lru_.push_front(item{key, std::move(value), hash, {}});
    item& fresh = lru_.front();
    fresh.lru_pos = lru_.begin();
    table_[bucket_index(hash)].push_back(&fresh);
    ++stats_.items;
    if (max_items_ != 0 && lru_.size() > max_items_) evict_oldest();
  }

  bool erase(const std::string& key, std::uint64_t hash) {
    ++stats_.deletes;
    item* it = find(key, hash);
    if (it == nullptr) return false;
    unlink(it);
    return true;
  }

  // Drop every resident item (the `flush` command).  Cumulative operation
  // counters are preserved, memcached-style; only `items` resets.
  void clear() {
    for (auto& bucket : table_) bucket.clear();
    while (!lru_.empty()) {
      lru_.pop_back();
      --stats_.items;
    }
  }

  // Sampleable live reads (relaxed cells): safe concurrently with the shard
  // holder's mutations.  Cross-counter identities are exact only at
  // quiescence.
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(stats_.items.get());
  }
  kv_stats stats() const noexcept { return stats_.snapshot(); }
  const kv_counters& counters() const noexcept { return stats_; }
  std::size_t buckets() const noexcept { return buckets_; }
  std::size_t max_items() const noexcept { return max_items_; }

  // Touch the bucket table and pre-reserve short chains so the backing pages
  // are faulted in from the calling thread (NUMA first-touch placement; the
  // engine calls this from a thread pinned to the shard's home cluster).
  void prefault() {
    for (auto& bucket : table_) bucket.reserve(4);
  }

 private:
  struct item {
    std::string key;
    std::string value;
    std::uint64_t hash;
    std::list<item>::iterator lru_pos;
  };

  std::size_t bucket_index(std::uint64_t hash) const noexcept {
    return hash % buckets_;
  }

  item* find(const std::string& key, std::uint64_t hash) {
    for (item* it : table_[bucket_index(hash)])
      if (it->key == key) return it;
    return nullptr;
  }

  void touch(item* it) {
    // Move to the LRU front (memcached's bump on access).
    lru_.splice(lru_.begin(), lru_, it->lru_pos);
    it->lru_pos = lru_.begin();
  }

  void unlink(item* it) {
    auto& bucket = table_[bucket_index(it->hash)];
    for (auto b = bucket.begin(); b != bucket.end(); ++b) {
      if (*b == it) {
        bucket.erase(b);
        break;
      }
    }
    lru_.erase(it->lru_pos);
    --stats_.items;
  }

  void evict_oldest() {
    item& victim = lru_.back();
    ++stats_.evictions;
    unlink(&victim);
  }

  std::size_t buckets_;
  std::size_t max_items_;
  std::vector<std::vector<item*>> table_;
  std::list<item> lru_;
  kv_counters stats_;
};

// Pre-generated key names ("key<i>") shared by driver threads.
std::vector<std::string> make_keyspace(std::size_t n);

}  // namespace kvstore
