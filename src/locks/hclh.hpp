// HCLH: the hierarchical CLH lock of Luchangco, Nussbaum & Shavit
// (Euro-Par'06), as described in Herlihy & Shavit, The Art of Multiprocessor
// Programming §7.8.  One CLH-style queue per cluster plus one global queue;
// the thread at the head of a local queue (the "cluster master") splices the
// entire local queue into the global queue with a single swap.
//
// Node word layout (one atomic word so waiters have a single spin target):
//   bit 31  successor-must-wait (SMW)  set while enqueued, cleared on unlock
//   bit 30  tail-when-spliced (TWS)    set on the last node of a spliced
//                                      segment; tells its local successor it
//                                      has become the next cluster master
//   bits 0..29  cluster id (or the no-cluster marker on the global dummy)
//
// Memory management.  The original algorithm assumes GC; in C++ a spliced
// segment tail is referenced both by its *local* successor (spinning until it
// sees TWS) and by its *global* successor (spinning until SMW clears), so
// nodes carry a reference count:
//   * every node starts with one reference, owned by whoever follows it in
//     the local queue (or by the local tail slot while nothing follows);
//   * the master adds one reference to the segment tail before setting TWS,
//     owned by the global queue (its global successor, or the global tail
//     slot).
// A local successor drops its reference when it exits to become master; an
// acquirer drops the reference on the node it acquired through at unlock.
// A node returns to its owner's pool exactly when both claims are gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cohort/core.hpp"
#include "numa/topology.hpp"
#include "util/align.hpp"
#include "util/pool.hpp"
#include "util/spin.hpp"

namespace cohort {

class hclh_lock {
  struct qnode : pool_node {
    std::atomic<std::uint32_t> word{0};
    std::atomic<int> refs{0};
    node_pool<qnode>* owner = nullptr;
  };

  static constexpr std::uint32_t smw_bit = 1u << 31;
  static constexpr std::uint32_t tws_bit = 1u << 30;
  static constexpr std::uint32_t cluster_mask = tws_bit - 1;
  static constexpr std::uint32_t no_cluster = cluster_mask;

 public:
  struct context {
    qnode* mine = nullptr;  // node we enqueued this acquisition
    qnode* pred = nullptr;  // node we acquired through (unref at unlock)
  };

  explicit hclh_lock(unsigned clusters = 0)
      : clusters_(clusters != 0 ? clusters
                                : numa::system_topology().clusters()),
        local_tails_(clusters_) {
    global_tail_.store(fresh(no_cluster),  // SMW clear: lock starts free
                       std::memory_order_relaxed);
    for (auto& t : local_tails_) t->store(nullptr, std::memory_order_relaxed);
  }

  void lock(context& ctx) {
    const std::uint32_t my_cluster = numa::thread_cluster() % clusters_;
    qnode* me = fresh(smw_bit | my_cluster);
    ctx.mine = me;

    std::atomic<qnode*>& local_tail = local_tails_[my_cluster].get();
    qnode* pred = local_tail.exchange(me, std::memory_order_acq_rel);
    if (pred != nullptr) {
      if (wait_for_grant_or_cluster_master(pred)) {
        ctx.pred = pred;  // local grant: predecessor handed us the lock
        return;
      }
      // Predecessor was a spliced tail: we head the next batch.  Drop the
      // local-successor claim on it (its global successor still holds one).
      unref(pred);
    }
    // Cluster master: wait briefly so the local batch can grow, then splice
    // everything currently in the local queue into the global queue.  When
    // the global queue is free the wait could only add latency, so skip it.
    // (Acquire: the tail may have been allocated by another thread.  It
    // may also be recycled under us; pool nodes are never freed, so the
    // read is safe and at worst a stale hint.)
    if ((global_tail_.load(std::memory_order_acquire)
             ->word.load(std::memory_order_relaxed) &
         smw_bit) != 0) {
      for (int i = 0; i < combining_wait; ++i) cpu_relax();
    }
    qnode* local_last = local_tail.load(std::memory_order_acquire);
    // The global queue takes a reference on the segment tail *before* TWS
    // becomes visible, so the local successor's unref cannot free it early.
    local_last->refs.fetch_add(1, std::memory_order_relaxed);
    qnode* gpred =
        global_tail_.exchange(local_last, std::memory_order_acq_rel);
    local_last->word.fetch_or(tws_bit, std::memory_order_acq_rel);
    // Wait our turn in the global queue.
    spin_until([&] {
      return (gpred->word.load(std::memory_order_acquire) & smw_bit) == 0;
    });
    ctx.pred = gpred;
  }

  release_kind unlock(context& ctx) {
    ctx.mine->word.fetch_and(~smw_bit, std::memory_order_release);
    unref(ctx.pred);
    ctx.mine = nullptr;
    ctx.pred = nullptr;
    return release_kind::none;
  }

 private:
  static qnode* fresh(std::uint32_t word_value) {
    auto& pool = thread_local_pool<qnode>();
    qnode* n = pool.acquire();
    n->owner = &pool;
    n->word.store(word_value, std::memory_order_relaxed);
    n->refs.store(1, std::memory_order_relaxed);
    return n;
  }

  static void unref(qnode* n) {
    if (n->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      n->owner->release(n);
  }

  // Spin on pred until it either grants us the lock (true) or turns out to
  // be the tail of a spliced batch, making us the next master (false).
  static bool wait_for_grant_or_cluster_master(qnode* pred) {
    spin_wait w;
    for (;;) {
      const std::uint32_t pw = pred->word.load(std::memory_order_acquire);
      if ((pw & tws_bit) != 0) return false;
      if ((pw & smw_bit) == 0) return true;
      w.spin();
    }
  }

  static constexpr int combining_wait = 256;

  unsigned clusters_;
  // Each local tail on its own line (they are cluster-private hot spots).
  std::vector<padded<std::atomic<qnode*>>> local_tails_;
  alignas(cache_line_size) std::atomic<qnode*> global_tail_;
};

}  // namespace cohort
