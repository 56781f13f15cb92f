// The lock cohorting transformation (paper §2.1) and its fairness bound
// (§3.7).
//
// cohort_lock<G, L> turns a thread-oblivious global lock G and a
// cohort-detecting local lock L into a NUMA-aware lock: one L instance per
// cluster, one shared G.  The common path -- handing the lock to a waiting
// cluster-mate without touching G -- costs exactly one local-lock release.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "cohort/core.hpp"
#include "numa/topology.hpp"
#include "util/align.hpp"
#include "util/stat_cell.hpp"

namespace cohort {

// Releases the global lock after `limit` consecutive local handoffs (64 in
// all of the paper's experiments).  A limit of 0 disables local handoff
// entirely (every release is global); use unbounded_pass() to reproduce the
// paper's "deeply unfair" unbounded variant.
struct pass_policy {
  std::uint64_t limit = 64;
};

inline constexpr std::uint64_t unbounded_pass =
    ~static_cast<std::uint64_t>(0);

// Snapshot of a cohort lock's batching counters.  Exact at quiescence; a
// mid-run sample (the benchmark's windowed telemetry) sees each counter at
// some recent instant -- counters move independently, so cross-counter
// identities only hold exactly on a quiescent lock.
struct cohort_stats {
  std::uint64_t acquisitions = 0;    // total lock() calls completed
  std::uint64_t global_acquires = 0; // acquisitions that took the global lock
  std::uint64_t local_handoffs = 0;  // successful release_local() handoffs
  std::uint64_t handoff_failures = 0;// release_local() returned false (§3.6)
  // Fast-path accounting (fastpath.hpp); always 0 for the plain cohort
  // compositions.  At quiescence the acquisition identity is
  //   acquisitions ==
  //       fast_acquires + global_acquires + local_handoffs + handoff_failures.
  std::uint64_t fast_acquires = 0;   // took the top-level CAS, no inner lock
  std::uint64_t fissions = 0;        // attempted fast, fell into the cohort
  // Compact-lock accounting (locks/cna.hpp): waiters moved to the deferred
  // (secondary) list because a same-socket successor was preferred.  Always
  // 0 for the per-cluster cohort compositions -- they never reorder a
  // queue, they instantiate one per cluster.  Not part of the acquisition
  // identity: a deferred waiter still acquires (and is counted) later.
  std::uint64_t deferrals = 0;
  // Admission accounting (cohort/gcr.hpp); always 0 outside a gcr<Inner>
  // wrapper.  active_set and active_target are *gauges* (the instantaneous
  // set size / tuned target at sample time), parked and rotations are
  // cumulative event counters.  None participate in the acquisition
  // identity: a parked thread still acquires (and is counted) once admitted.
  std::uint64_t active_set = 0;     // threads currently admitted (gauge)
  std::uint64_t active_target = 0;  // tuned admission bound (gauge)
  std::uint64_t parked = 0;         // admission rejections that futex-parked
  std::uint64_t rotations = 0;      // fairness grants to the oldest waiter

  // Lock migrations in the paper's sense: the global lock moved between
  // clusters.  global_acquires counts them (plus the very first acquire).
  // Fast acquires never touch the global lock, so they are excluded -- the
  // batch length keeps measuring how much work one global acquire amortises.
  double avg_batch() const {
    return global_acquires == 0
               ? 0.0
               : static_cast<double>(acquisitions - fast_acquires) /
                     static_cast<double>(global_acquires);
  }

  // Aggregation across shard/arena locks (the harness samplers).
  cohort_stats& operator+=(const cohort_stats& o) {
    acquisitions += o.acquisitions;
    global_acquires += o.global_acquires;
    local_handoffs += o.local_handoffs;
    handoff_failures += o.handoff_failures;
    fast_acquires += o.fast_acquires;
    fissions += o.fissions;
    deferrals += o.deferrals;
    active_set += o.active_set;
    active_target += o.active_target;
    parked += o.parked;
    rotations += o.rotations;
    return *this;
  }
};

// The live per-cluster counters behind cohort_stats.  stat_cell
// (util/stat_cell.hpp) is the single-writer relaxed-atomic cell: only the
// current lock holder increments, coordinators sample concurrently.  Aligned to the
// destructive-interference size so a cluster's stat cells never share a
// line with the hot lock state (or another cluster's cells) they sit next
// to inside a slot: the benchmark coordinator reads these concurrently with
// the workers, and a shared line would turn every sample into cross-cluster
// invalidation traffic on the lock words.
struct alignas(destructive_interference_size) cohort_counters {
  stat_cell acquisitions;
  stat_cell global_acquires;
  stat_cell local_handoffs;
  stat_cell handoff_failures;
  stat_cell deferrals;

  cohort_stats snapshot() const {
    cohort_stats s;
    s.acquisitions = acquisitions.get();
    s.global_acquires = global_acquires.get();
    s.local_handoffs = local_handoffs.get();
    s.handoff_failures = handoff_failures.get();
    s.deferrals = deferrals.get();
    return s;
  }
  void add_into(cohort_stats& total) const {
    total.acquisitions += acquisitions.get();
    total.global_acquires += global_acquires.get();
    total.local_handoffs += local_handoffs.get();
    total.handoff_failures += handoff_failures.get();
    total.deferrals += deferrals.get();
  }
  void reset() {
    acquisitions.reset();
    global_acquires.reset();
    local_handoffs.reset();
    handoff_failures.reset();
    deferrals.reset();
  }
};

template <global_lock G, cohort_local_lock L>
class cohort_lock {
 public:
  struct context {
    typename L::context local{};
    unsigned cluster = 0;        // filled in by lock()
    release_kind acquired{};     // how the local lock was acquired
  };

  cohort_lock() : cohort_lock(pass_policy{}) {}

  explicit cohort_lock(pass_policy policy, unsigned clusters = 0)
      : policy_(policy),
        clusters_(clusters != 0 ? clusters
                                : numa::system_topology().clusters()),
        slots_(clusters_) {}

  // Locks contain atomics and cannot be copied, so per-instance tuning
  // (e.g. backoff parameters) is applied in place after construction,
  // before first use.
  G& global() noexcept { return global_; }
  template <typename F>
  void for_each_local(F&& f) {
    for (auto& s : slots_) f(s->lock);
  }

  // Non-copyable, non-movable: waiters hold pointers into the lock.
  cohort_lock(const cohort_lock&) = delete;
  cohort_lock& operator=(const cohort_lock&) = delete;

  void lock(context& ctx) {
    ctx.cluster = numa::thread_cluster() % clusters_;
    slot& s = slots_[ctx.cluster].get();
    ctx.acquired = s.lock.lock(ctx.local);
    if (ctx.acquired == release_kind::global) {
      // Previous local owner released the global lock: acquire it ourselves
      // and start a fresh batch for this cluster.
      global_.lock();
      s.batch = 0;
      ++s.stats.global_acquires;
    }
    ++s.stats.acquisitions;
  }

  // Returns how the release went: release_kind::local when the lock was
  // handed to a waiting cluster-mate (the batch continues), release_kind::
  // global when the global lock was released (the cohort drained or the
  // pass bound was reached).  The fast-path layer keys its re-engagement
  // hysteresis off consecutive global releases.
  release_kind unlock(context& ctx) {
    slot& s = slots_[ctx.cluster].get();
    if (s.batch < policy_.limit && !s.lock.alone(ctx.local)) {
      ++s.batch;
      // Count the handoff optimistically *before* the release: a successful
      // release_local transfers the lock, and any update after that instant
      // would race with the inheritor's own accounting.
      ++s.stats.local_handoffs;
      if (s.lock.release_local(ctx.local)) return release_kind::local;
      // Abortable local locks may fail the handoff (no viable successor);
      // the local lock is then already released in GLOBAL-RELEASE state and
      // we only release the global lock (§3.6).  We still hold the global
      // lock here, which orders the counter patch before the next holder's
      // updates.
      --s.stats.local_handoffs;
      ++s.stats.handoff_failures;
      global_.unlock();
      return release_kind::global;
    }
    // Cohort empty or batch bound reached: release globally.  Order per the
    // paper: global first, then the local lock in GLOBAL-RELEASE state.
    global_.unlock();
    s.lock.release_global(ctx.local);
    return release_kind::global;
  }

  unsigned clusters() const noexcept { return clusters_; }
  const pass_policy& policy() const noexcept { return policy_; }

  // Aggregated statistics: exact at quiescence, sampleable mid-run (the
  // counters are relaxed-atomic cells, so concurrent reads are race-free).
  cohort_stats stats() const {
    cohort_stats total;
    for (const auto& s : slots_) s->stats.add_into(total);
    return total;
  }

  cohort_stats cluster_stats(unsigned c) const {
    return slots_.at(c)->stats.snapshot();
  }

  void reset_stats() {
    for (auto& s : slots_) s->stats.reset();
  }

 private:
  struct slot {
    // The local lock gets the slot's leading lines to itself: waiters of
    // this cluster spin on it, and nothing below may share those lines.
    L lock{};
    // batch counts consecutive local handoffs; only ever accessed by the
    // current cohort-lock owner of this cluster, so a plain field is safe
    // (the local lock's release/acquire edges order the accesses).  Aligned
    // off the lock's tail line so owner writes never invalidate spinners.
    alignas(destructive_interference_size) std::uint64_t batch = 0;
    // Sampled concurrently by the benchmark coordinator; cohort_counters is
    // itself interference-aligned, which also pads batch out to a full line.
    cohort_counters stats{};
  };

  pass_policy policy_;
  unsigned clusters_;
  G global_;
  std::vector<padded<slot>> slots_;
};

// RAII guard for context-based locks.
template <typename Lock>
class scoped {
 public:
  explicit scoped(Lock& lock) : lock_(lock) { lock_.lock(ctx_); }
  ~scoped() { lock_.unlock(ctx_); }
  scoped(const scoped&) = delete;
  scoped& operator=(const scoped&) = delete;

 private:
  Lock& lock_;
  typename Lock::context ctx_{};
};

}  // namespace cohort
