// The sharded NUMA-aware kv engine (DESIGN.md §3).
//
// Layering, bottom up:
//   * kv_shard        -- hash table + LRU + counters, no locking (kv_shard.hpp)
//   * sharded_store   -- N independent shards selected by key hash, each with
//                        its own lock instance, bucket table, LRU and slice of
//                        the eviction budget.  shards == 1 reproduces the old
//                        single-cache-lock memcached architecture exactly.
//   * policy layer    -- lock choice is a registry *name*, not a template
//                        parameter at the call site: with_store() monomorphises
//                        the hot path through reg::with_lock_type (benchmarks),
//                        make_any_sharded_store() builds on the type-erased
//                        reg::any_lock (long-lived consumers like the server
//                        example).
//
// NUMA placement: with kv_config::numa_place set, each shard (its slot, lock,
// and bucket table) is constructed -- and therefore first-touched -- from a
// short-lived thread pinned to the shard's home cluster, so on a real NUMA
// box the shard's memory lands on the cluster whose threads the cohort lock
// will batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kv_shard.hpp"
#include "locks/registry.hpp"
#include "numa/topology.hpp"
#include "util/align.hpp"

namespace kvstore {

struct kv_config {
  std::size_t shards = 1;
  std::size_t buckets = 1024;  // per-shard bucket count
  // Total eviction budget; 0 = off.  Each shard gets ceil(max_items/shards),
  // so effective capacity is rounded up to a multiple of the shard count.
  std::size_t max_items = 0;
  bool numa_place = false;     // first-touch shards from their home cluster
};

// Engine over any context-style lock: every registry lock type works, and so
// does the type-erased reg::any_lock (it exposes the same lock(ctx)/unlock(ctx)
// shape).  Constructed through the policy layer below, not by spelling out a
// lock type at the call site.
template <typename Lock>
class sharded_store {
 public:
  using lock_type = Lock;

  // make_lock: () -> std::unique_ptr<Lock>, called once per shard.
  template <typename Factory>
  sharded_store(const kv_config& cfg, Factory&& make_lock) {
    const std::size_t n = cfg.shards != 0 ? cfg.shards : 1;
    const std::size_t per_shard_budget =
        cfg.max_items == 0 ? 0 : (cfg.max_items + n - 1) / n;
    const auto& topo = cohort::numa::system_topology();
    const unsigned clusters = topo.clusters() != 0 ? topo.clusters() : 1;

    shards_.resize(n);
    for (std::size_t s = 0; s < n; ++s) {
      const unsigned home = static_cast<unsigned>(s % clusters);
      auto build = [&, s, home] {
        if (cfg.numa_place) cohort::numa::pin_thread_to_cluster(topo, home);
        auto slot = std::make_unique<shard_slot>(cfg.buckets, per_shard_budget);
        slot->core.prefault();
        slot->lock = make_lock();
        slot->home_cluster = home;
        shards_[s] = std::move(slot);
      };
      if (cfg.numa_place)
        std::thread(build).join();  // sequential one-shot placement threads
      else
        build();
    }
  }

  // Per-thread acquisition state: one lock context per shard, at a stable
  // address for its whole lifetime (queue-lock contexts are identity
  // sensitive).  Must not outlive the store.
  class handle {
   public:
    handle() = default;
    handle(handle&&) noexcept = default;
    handle& operator=(handle&&) noexcept = default;

   private:
    friend class sharded_store;
    std::unique_ptr<typename Lock::context[]> ctx_;
  };

  handle make_handle() {
    handle h;
    h.ctx_ = std::make_unique<typename Lock::context[]>(shards_.size());
    // any_lock contexts are created through the owning lock; plain lock
    // contexts are ready as default-constructed.
    if constexpr (requires(Lock& l) { l.make_context(); })
      for (std::size_t s = 0; s < shards_.size(); ++s)
        h.ctx_[s] = shards_[s]->lock->make_context();
    return h;
  }

  std::optional<std::string> get(handle& h, const std::string& key) {
    const std::uint64_t hash = fnv1a64(key);
    shard_slot& s = slot_of(hash);
    guard g(*s.lock, h.ctx_[shard_index(hash)]);
    return s.core.get(key, hash);
  }

  void set(handle& h, const std::string& key, std::string value) {
    const std::uint64_t hash = fnv1a64(key);
    shard_slot& s = slot_of(hash);
    guard g(*s.lock, h.ctx_[shard_index(hash)]);
    s.core.set(key, std::move(value), hash);
  }

  bool erase(handle& h, const std::string& key) {
    const std::uint64_t hash = fnv1a64(key);
    shard_slot& s = slot_of(hash);
    guard g(*s.lock, h.ctx_[shard_index(hash)]);
    return s.core.erase(key, hash);
  }

  // Drop every resident item, one shard lock at a time (the command layer's
  // flush).  Not atomic across shards: concurrent sets may repopulate shards
  // already flushed, which matches memcached's flush_all semantics closely
  // enough for the protocol subset.
  void flush(handle& h) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      guard g(*shards_[s]->lock, h.ctx_[s]);
      shards_[s]->core.clear();
    }
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }
  unsigned home_cluster(std::size_t s) const { return shards_[s]->home_cluster; }
  std::size_t shard_of(const std::string& key) const {
    return shard_index(fnv1a64(key));
  }

  // ---- counter aggregation --------------------------------------------------
  //
  // Lock-free reads over the shards' single-writer relaxed-atomic cells
  // (util/stat_cell.hpp): safe to *sample* while operations run -- the
  // windows[] per-shard telemetry and the server's live `stats` command do
  // -- though cross-counter identities (gets == hits + misses per op count)
  // are exact only at quiescence.  The item *data* (buckets, LRU) remains
  // reachable only under the shard locks.

  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : shards_) total += s->core.size();
    return total;
  }

  kv_stats stats() const {
    kv_stats total;
    for (const auto& s : shards_) total += s->core.stats();
    return total;
  }

  const kv_shard& shard(std::size_t s) const { return shards_[s]->core; }

  // Per-shard cohort batching counters; nullopt for plain locks.  Unlike
  // the kv counters above, these are relaxed-atomic cells (cohort_counters)
  // and may be sampled mid-run -- the benchmark's windows[] telemetry does.
  std::optional<cohort::cohort_stats> lock_stats(std::size_t s) const {
    const Lock& l = *shards_[s]->lock;
    if constexpr (requires { l.stats(); }) {
      auto st = l.stats();
      if constexpr (requires { st.has_value(); })
        return st;  // any_lock already reports optional<erased_stats>
      else
        return cohort::cohort_stats(st);  // abortable_stats slices to base
    } else {
      return std::nullopt;
    }
  }

 private:
  struct alignas(cohort::cache_line_size) shard_slot {
    shard_slot(std::size_t buckets, std::size_t budget)
        : core(buckets, budget) {}
    kv_shard core;
    std::unique_ptr<Lock> lock;
    unsigned home_cluster = 0;
  };

  struct guard {
    guard(Lock& l, typename Lock::context& c) : l_(l), c_(c) { l_.lock(c_); }
    ~guard() { l_.unlock(c_); }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    Lock& l_;
    typename Lock::context& c_;
  };

  // High bits of the Fibonacci-mixed hash pick the shard; the raw hash's low
  // bits pick the bucket inside it, so the two indices stay decorrelated.
  // FNV-1a's own high bits are poorly mixed on short keys (unmixed, 10,000
  // "key:<i>" keys leave three of eight shards empty), hence the multiply.
  std::size_t shard_index(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> 32) %
           shards_.size();
  }
  shard_slot& slot_of(std::uint64_t hash) { return *shards_[shard_index(hash)]; }

  std::vector<std::unique_ptr<shard_slot>> shards_;
};

// ---- policy layer -----------------------------------------------------------

// Monomorphised dispatch: constructs a sharded_store<L> for the named registry
// lock and invokes fn(store).  Returns false for unknown lock names.  The hot
// path inside fn is fully typed -- this is what the benchmark harness uses.
template <typename Fn>
bool with_store(const std::string& lock_name, const kv_config& cfg,
                const cohort::reg::lock_params& lp, Fn&& fn) {
  return cohort::reg::with_lock_type(lock_name, lp, [&](auto factory) {
    using lock_t = typename decltype(factory())::element_type;
    sharded_store<lock_t> store(cfg, factory);
    fn(store);
  });
}

// Type-erased store for long-lived consumers that want a uniform runtime
// handle (the server example): one virtual dispatch per lock/unlock.
using any_sharded_store = sharded_store<cohort::reg::any_lock>;

// nullptr for unknown lock names.
std::unique_ptr<any_sharded_store> make_any_sharded_store(
    const std::string& lock_name, const kv_config& cfg = {},
    const cohort::reg::lock_params& lp = {});

}  // namespace kvstore
