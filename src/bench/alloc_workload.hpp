// Pieces of the "alloc" benchmark workload (DESIGN.md §4): the arena
// placement policy and mmicro's per-thread allocate/write/free loop.
// Templates over the lock type, so run_alloc_bench (alloc_workload.cpp)
// monomorphises the hot path for the lock it dispatches by registry name.
//
// This is the real-machine analogue of the paper's mmicro (Table 2): each
// thread cycles a fixed working set of live blocks, every step frees the
// slot's previous block and allocates a fresh one of a size drawn from
// [alloc_min, alloc_max], then writes its first words.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/arena.hpp"
#include "numa/topology.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace cohort::bench::alloc {

// The arenas one benchmark run allocates from.  Default: a single arena
// shared by every thread -- the paper's single-lock allocator, the lock
// being the entire point.  With per_cluster (mirroring --numa-place), one
// arena per cluster, each constructed and prefaulted -- first-touched --
// from a thread pinned to its home cluster, the allocator analogue of the
// kv store's shard placement.
template <typename Lock>
class arena_set {
 public:
  // make_lock: () -> std::unique_ptr<Lock>, called once per arena.
  template <typename Factory>
  arena_set(std::size_t bytes_per_arena, bool per_cluster,
            Factory&& make_lock) {
    const auto& topo = numa::system_topology();
    const unsigned clusters = topo.clusters() != 0 ? topo.clusters() : 1;
    const unsigned n = per_cluster ? clusters : 1;
    arenas_.resize(n);
    homes_.resize(n);
    for (unsigned a = 0; a < n; ++a) {
      homes_[a] = per_cluster ? a : 0;
      auto build = [&, a] {
        if (per_cluster) numa::pin_thread_to_cluster(topo, homes_[a]);
        arenas_[a] = std::make_unique<cohortalloc::arena<Lock>>(
            bytes_per_arena, make_lock);
        arenas_[a]->prefault();
      };
      if (per_cluster)
        std::thread(build).join();  // sequential one-shot placement threads
      else
        build();
    }
  }

  // The arena a thread on `cluster` allocates from.
  cohortalloc::arena<Lock>& for_cluster(unsigned cluster) {
    return *arenas_[arenas_.size() == 1 ? 0 : cluster % arenas_.size()];
  }

  std::size_t count() const noexcept { return arenas_.size(); }
  cohortalloc::arena<Lock>& at(std::size_t a) { return *arenas_[a]; }
  unsigned home_cluster(std::size_t a) const { return homes_[a]; }

 private:
  std::vector<std::unique_ptr<cohortalloc::arena<Lock>>> arenas_;
  std::vector<unsigned> homes_;
};

struct mmicro_params {
  std::size_t alloc_min = 64;
  std::size_t alloc_max = 256;
  std::size_t working_set = 64;
  // Size-class skew (ROADMAP "Zipfian alloc size classes"): with
  // size_zipf > 0, request sizes come from a geometric ladder of classes
  // (alloc_min, 2*alloc_min, ... up to alloc_max) weighted Zipf(size_zipf)
  // with the *smallest* class hottest -- real allocator traces are
  // small-heavy, and the mixture of rare large blocks among hot small ones
  // is what stresses arena fragmentation and batching fairness.  0 keeps
  // the historical uniform byte draw over [alloc_min, alloc_max].
  double size_zipf = 0.0;
};

// The geometric size-class ladder the Zipf draw indexes: alloc_min
// doubling up to (and always including) alloc_max.
inline std::vector<std::size_t> size_class_ladder(std::size_t alloc_min,
                                                  std::size_t alloc_max) {
  std::vector<std::size_t> classes;
  for (std::size_t s = alloc_min; s < alloc_max; s *= 2)
    classes.push_back(s);
  classes.push_back(alloc_max);
  return classes;
}

// One thread's mmicro loop state: a ring of `working_set` live blocks.
// Every block is stamped with an owner tag (derived from the thread id and
// an allocation sequence number) in its first word when allocated, and the
// tag is re-verified at free time.  If a broken lock hands the same block
// to two threads at once, they scribble each other's tags and
// tag_mismatches() goes non-zero -- the allocator's double-handout audit,
// the analogue of the cs workload's shared-line check.
//
// mmicro writes the first four words of every block; words 1..3 carry the
// tag's complement so the writes stay part of the checked pattern.
template <typename Arena>
class mmicro_worker {
 public:
  mmicro_worker(unsigned tid, const mmicro_params& p)
      : params_(p),
        slots_(p.working_set != 0 ? p.working_set : 1),
        rng_(0xa110c0000ULL + tid),
        tid_(tid) {
    if (p.size_zipf > 0.0) {
      classes_ = size_class_ladder(p.alloc_min, p.alloc_max);
      pick_class_ = cohort::zipf_sampler(classes_.size(), p.size_zipf);
    }
  }

  // One benchmark operation: recycle the next ring slot, then allocate and
  // stamp a fresh block.  Returns false when the arena is out of memory
  // (counted as a failed op by the driver).
  bool step(Arena& a) {
    slot& s = slots_[seq_ % slots_.size()];
    if (s.p != nullptr) release(a, s);
    std::size_t size;
    if (!classes_.empty()) {
      size = classes_[pick_class_(rng_)];
    } else {
      const std::size_t span = params_.alloc_max - params_.alloc_min + 1;
      size = params_.alloc_min + rng_.next_range(span);
    }
    void* p = a.allocate(size);
    ++seq_;
    if (p == nullptr) return false;
    s.p = p;
    s.size = size;
    s.tag = make_tag();
    stamp(p, size, s.tag);
    return true;
  }

  // Frees every live block; call at quiescence (after the run joins) so the
  // arena occupancy audit can require an empty heap.
  void drain(Arena& a) {
    for (slot& s : slots_)
      if (s.p != nullptr) release(a, s);
  }

  std::uint64_t tag_mismatches() const noexcept { return tag_mismatches_; }

 private:
  struct slot {
    void* p = nullptr;
    std::size_t size = 0;  // requested size; bounds the checked words
    std::uint64_t tag = 0;
  };

  std::uint64_t make_tag() const {
    return (static_cast<std::uint64_t>(tid_) << 48) ^ (seq_ * 0x9e3779b97f4a7c15ULL) ^ 1u;
  }

  static void stamp(void* p, std::size_t size, std::uint64_t tag) {
    auto* words = static_cast<std::uint64_t*>(p);
    words[0] = tag;
    const std::size_t n = size / sizeof(std::uint64_t);
    for (std::size_t i = 1; i < 4 && i < n; ++i) words[i] = ~tag;
  }

  void release(Arena& a, slot& s) {
    const auto* words = static_cast<const std::uint64_t*>(s.p);
    if (words[0] != s.tag) ++tag_mismatches_;
    const std::size_t n = s.size / sizeof(std::uint64_t);
    for (std::size_t i = 1; i < 4 && i < n; ++i)
      if (words[i] != ~s.tag) ++tag_mismatches_;
    a.deallocate(s.p);
    s.p = nullptr;
  }

  mmicro_params params_;
  std::vector<slot> slots_;
  std::vector<std::size_t> classes_;       // empty = uniform byte draw
  cohort::zipf_sampler pick_class_{1, 0};  // rebuilt when classes_ is set
  xorshift rng_;
  std::uint64_t seq_ = 0;
  std::uint64_t tag_mismatches_ = 0;
  unsigned tid_;
};

}  // namespace cohort::bench::alloc
