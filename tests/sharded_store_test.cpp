// Multithreaded sharded_store consistency: concurrent get/set/erase across
// clusters, with size/eviction/hit-count invariants checked at quiescence
// (after join).  Runs under the ASan/UBSan and TSan CI jobs -- the kv engine
// mutates unsynchronised shard state under the registry locks, so a locking
// bug here is exactly what the sanitizers are pointed at.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/sharded_store.hpp"
#include "numa/topology.hpp"
#include "util/rng.hpp"

namespace kvstore {
namespace {

std::string owned_key(int t, int i) {
  return "t" + std::to_string(t) + "-" + std::to_string(i);
}

// Shard selection must spread short, sequential keys evenly: the
// benchmark keyspaces are "key:<i>", whose raw FNV-1a high bits are poorly
// mixed.  Every shard must hold within 10% of the mean, checked both by
// shard_of() and by where the items actually land.
TEST(ShardedStore, SequentialKeysBalanceAcrossShards) {
  constexpr std::size_t kKeys = 10000;
  for (const std::size_t shards : {std::size_t{4}, std::size_t{8}}) {
    bool ran = false;
    with_store("TATAS", {.shards = shards}, {}, [&](auto& store) {
      ran = true;
      auto h = store.make_handle();
      std::vector<std::size_t> by_shard_of(shards, 0);
      for (std::size_t i = 0; i < kKeys; ++i) {
        const std::string key = "key:" + std::to_string(i);
        ++by_shard_of[store.shard_of(key)];
        store.set(h, key, "v");
      }
      const double mean = static_cast<double>(kKeys) / shards;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(store.shard(s).size(), by_shard_of[s]) << "shard " << s;
        EXPECT_NEAR(static_cast<double>(by_shard_of[s]), mean, 0.1 * mean)
            << "shard " << s << " of " << shards;
      }
    });
    EXPECT_TRUE(ran);
  }
}

TEST(ShardedStoreConcurrent, DisjointWritersAcrossClusters) {
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  bool ran = false;
  with_store(
      "C-BO-MCS", {.shards = 4, .buckets = 64}, {}, [&](auto& store) {
        ran = true;
        constexpr int kThreads = 4, kKeys = 400;
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&store, t] {
            cohort::numa::set_thread_cluster(static_cast<unsigned>(t % 2));
            auto h = store.make_handle();
            for (int i = 0; i < kKeys; ++i) {
              const std::string key = owned_key(t, i);
              store.set(h, key, key + "-value");
            }
          });
        }
        for (auto& th : threads) th.join();

        EXPECT_EQ(store.size(), static_cast<std::size_t>(kThreads) * kKeys);
        auto h = store.make_handle();
        for (int t = 0; t < kThreads; ++t)
          for (int i = 0; i < kKeys; ++i) {
            const std::string key = owned_key(t, i);
            ASSERT_EQ(store.get(h, key).value(), key + "-value");
          }
        // Unique keys: resident items across shards partition the inserts.
        std::size_t resident = 0;
        for (std::size_t s = 0; s < store.shard_count(); ++s)
          resident += store.shard(s).size();
        EXPECT_EQ(resident, store.size());
      });
  EXPECT_TRUE(ran);
}

// The main consistency stress: every thread owns a key range it sets and
// erases, all threads read a shared prefilled range, and every thread counts
// its own operations.  At quiescence the store's aggregated counters must
// equal the sum of the per-thread counts -- the kv counters are plain
// non-atomic fields guarded only by the shard locks, so a lock that admits
// two threads at once loses updates and fails these identities.
TEST(ShardedStoreConcurrent, MixedGetSetEraseInvariants) {
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  bool ran = false;
  with_store(
      "C-TKT-TKT", {.shards = 4, .buckets = 64}, {}, [&](auto& store) {
        ran = true;
        const auto shared_keys = make_keyspace(256);
        {
          auto h = store.make_handle();
          for (const auto& k : shared_keys) store.set(h, k, "shared");
        }
        const std::uint64_t prefill_sets = store.stats().sets;

        constexpr int kThreads = 4, kOps = 3000;
        std::atomic<std::uint64_t> total_gets{0}, total_sets{0},
            total_erases{0}, total_erase_hits{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            cohort::numa::set_thread_cluster(static_cast<unsigned>(t % 2));
            auto h = store.make_handle();
            cohort::xorshift rng(static_cast<std::uint64_t>(t) + 7);
            std::uint64_t gets = 0, sets = 0, erases = 0, erase_hits = 0;
            for (int i = 0; i < kOps; ++i) {
              const std::uint64_t dice = rng.next_range(10);
              if (dice < 6) {
                // Shared range: never erased, so every get must hit.
                const auto& key =
                    shared_keys[rng.next_range(shared_keys.size())];
                ASSERT_TRUE(store.get(h, key).has_value());
                ++gets;
              } else if (dice < 8) {
                store.set(h, owned_key(t, static_cast<int>(rng.next_range(64))),
                          "mine");
                ++sets;
              } else {
                ++erases;
                if (store.erase(
                        h, owned_key(t, static_cast<int>(rng.next_range(64)))))
                  ++erase_hits;
              }
            }
            total_gets.fetch_add(gets);
            total_sets.fetch_add(sets);
            total_erases.fetch_add(erases);
            total_erase_hits.fetch_add(erase_hits);
          });
        }
        for (auto& th : threads) th.join();

        // Quiescent aggregation after join.
        const kv_stats agg = store.stats();
        EXPECT_EQ(agg.gets, total_gets.load());
        EXPECT_EQ(agg.get_hits, total_gets.load());  // shared range only
        EXPECT_EQ(agg.sets, prefill_sets + total_sets.load());
        EXPECT_EQ(agg.evictions, 0u);  // no budget configured

        // Residency identity: shared keys all present; each owned key is
        // present iff its last writer was a set, and the per-shard sizes sum
        // to exactly the resident count.
        auto h = store.make_handle();
        std::size_t present = 0;
        for (const auto& k : shared_keys)
          present += store.get(h, k).has_value() ? 1 : 0;
        EXPECT_EQ(present, shared_keys.size());
        std::size_t owned_present = 0;
        for (int t = 0; t < kThreads; ++t)
          for (int i = 0; i < 64; ++i)
            owned_present += store.get(h, owned_key(t, i)).has_value() ? 1 : 0;
        EXPECT_EQ(store.size(), shared_keys.size() + owned_present);

        // Per-shard cohort counters are present and sum to >= the op count
        // (each op is exactly one acquisition of one shard lock).
        std::uint64_t acquisitions = 0;
        for (std::size_t s = 0; s < store.shard_count(); ++s) {
          auto ls = store.lock_stats(s);
          ASSERT_TRUE(ls.has_value());
          acquisitions += ls->acquisitions;
        }
        // Post-join gets above are acquisitions too, hence >=.
        EXPECT_GE(acquisitions,
                  total_gets.load() + total_sets.load() + total_erases.load());
      });
  EXPECT_TRUE(ran);
}

TEST(ShardedStoreConcurrent, EvictionBudgetHeldUnderContention) {
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  // Type-erased path under contention (the server example's configuration).
  auto store = make_any_sharded_store(
      "C-BO-MCS", {.shards = 2, .buckets = 32, .max_items = 64});
  ASSERT_NE(store, nullptr);
  constexpr int kThreads = 4, kKeys = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      cohort::numa::set_thread_cluster(static_cast<unsigned>(t % 2));
      auto h = store->make_handle();
      for (int i = 0; i < kKeys; ++i)
        store->set(h, owned_key(t, i), "v");
    });
  }
  for (auto& th : threads) th.join();

  // Budget 64 over 2 shards = 32 per shard, never exceeded.
  EXPECT_LE(store->size(), 64u);
  const kv_stats agg = store->stats();
  EXPECT_EQ(agg.sets, static_cast<std::uint64_t>(kThreads) * kKeys);
  for (std::size_t s = 0; s < store->shard_count(); ++s) {
    EXPECT_LE(store->shard(s).size(), 32u);
    // Unique keys: inserts not resident must have been evicted.
    EXPECT_EQ(store->shard(s).stats().sets,
              store->shard(s).size() + store->shard(s).stats().evictions);
  }
}

// flush() walks every shard lock in turn while other handles keep reading
// and writing -- the command layer's flush_all racing live traffic.  Run on
// a fast-path cohort lock so the flusher's sweeps race both the fissile CAS
// and the cohort slow path: a flush must neither lose items it did not race
// nor corrupt the counters.
TEST(ShardedStoreConcurrent, FlushRacesConcurrentGetSet) {
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  bool ran = false;
  with_store(
      "C-BO-MCS-fp", {.shards = 4, .buckets = 64}, {},
      [&](auto& store) {
        ran = true;
        constexpr int kWriters = 3, kOps = 4000, kFlushes = 50;
        std::atomic<std::uint64_t> total_gets{0}, total_sets{0};
        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        for (int t = 0; t < kWriters; ++t) {
          threads.emplace_back([&, t] {
            cohort::numa::set_thread_cluster(static_cast<unsigned>(t % 2));
            auto h = store.make_handle();
            std::uint64_t gets = 0, sets = 0;
            for (int i = 0; i < kOps; ++i) {
              const std::string key = owned_key(t, i % 64);
              store.set(h, key, "v");
              ++sets;
              // May miss if a flush swept between the set and the get;
              // both outcomes are legal, the op just must not wedge.
              (void)store.get(h, key);
              ++gets;
            }
            total_gets.fetch_add(gets);
            total_sets.fetch_add(sets);
          });
        }
        std::thread flusher([&] {
          cohort::numa::set_thread_cluster(1);
          auto h = store.make_handle();
          for (int i = 0; i < kFlushes; ++i) {
            store.flush(h);
            std::this_thread::yield();
          }
          stop.store(true);
        });
        for (auto& th : threads) th.join();
        flusher.join();
        EXPECT_TRUE(stop.load());

        // Quiescent audit: flush preserves cumulative counters, so the op
        // totals must balance exactly despite the races.
        const kv_stats agg = store.stats();
        EXPECT_EQ(agg.gets, total_gets.load());
        EXPECT_EQ(agg.sets, total_sets.load());
        EXPECT_LE(agg.get_hits, agg.gets);
        EXPECT_EQ(agg.evictions, 0u);

        // The store still works: re-set and read back, then a final flush
        // with no concurrent writers empties it completely.
        auto h = store.make_handle();
        for (int t = 0; t < kWriters; ++t)
          store.set(h, owned_key(t, 0), "again");
        for (int t = 0; t < kWriters; ++t)
          EXPECT_EQ(store.get(h, owned_key(t, 0)).value(), "again");
        store.flush(h);
        EXPECT_EQ(store.size(), 0u);
        for (std::size_t s = 0; s < store.shard_count(); ++s)
          EXPECT_EQ(store.shard(s).size(), 0u);
      });
  EXPECT_TRUE(ran);
}

TEST(ShardedStoreConcurrent, NumaPlacedStoreSurvivesMixedLoad) {
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  bool ran = false;
  with_store(
      "C-MCS-MCS", {.shards = 2, .buckets = 64, .numa_place = true}, {},
      [&](auto& store) {
        ran = true;
        const auto keys = make_keyspace(128);
        {
          auto h = store.make_handle();
          for (const auto& k : keys) store.set(h, k, "init");
        }
        constexpr int kThreads = 4, kOps = 2000;
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
          threads.emplace_back([&, t] {
            cohort::numa::set_thread_cluster(static_cast<unsigned>(t % 2));
            auto h = store.make_handle();
            cohort::xorshift rng(static_cast<std::uint64_t>(t) + 3);
            for (int i = 0; i < kOps; ++i) {
              const auto& key = keys[rng.next_range(keys.size())];
              if (rng.next_range(10) < 9)
                ASSERT_TRUE(store.get(h, key).has_value());
              else
                store.set(h, key, "updated");
            }
          });
        }
        for (auto& th : threads) th.join();
        const kv_stats agg = store.stats();
        EXPECT_EQ(agg.get_hits, agg.gets);  // keys are never erased
        EXPECT_EQ(agg.gets + agg.sets,
                  static_cast<std::uint64_t>(kThreads) * kOps + keys.size());
        EXPECT_EQ(store.size(), keys.size());
      });
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace kvstore
