// The "alloc" workload: mmicro's allocate/write/free loop (paper §4.3,
// Table 2) against the real single-lock splay-tree arena, measured under
// the shared windowed skeleton.  Size class, working-set size, arena
// capacity, lock name and per-cluster arena placement are all runtime axes.
#include <memory>
#include <stdexcept>

#include "bench/alloc_workload.hpp"
#include "bench/driver.hpp"
#include "bench/workload.hpp"
#include "locks/registry.hpp"

namespace cohort::bench {

namespace {

template <typename Lock>
void run_alloc_typed(alloc::arena_set<Lock>& arenas, const bench_config& cfg,
                     bench_result& res) {
  using arena_t = cohortalloc::arena<Lock>;
  const alloc::mmicro_params params{.alloc_min = cfg.alloc_min,
                                    .alloc_max = cfg.alloc_max,
                                    .working_set = cfg.working_set,
                                    .size_zipf = cfg.alloc_size_zipf};
  const unsigned clusters = res.clusters_used != 0 ? res.clusters_used : 1;

  // Worker state outlives the worker threads: the ring of live blocks is
  // drained -- and the owner tags verified -- by the coordinator after the
  // join, so blocks still held when the run stops are not leaks.
  std::vector<std::unique_ptr<alloc::mmicro_worker<arena_t>>> workers(
      cfg.threads);

  auto make_body = [&](unsigned tid) {
    // Constructed on the worker's own thread so the ring is first-touched
    // locally; each thread allocates from its cluster's arena (one shared
    // arena unless numa_place).
    workers[tid] =
        std::make_unique<alloc::mmicro_worker<arena_t>>(tid, params);
    alloc::mmicro_worker<arena_t>* w = workers[tid].get();
    arena_t* arena = &arenas.for_cluster(tid % clusters);
    return [w, arena] { return w->step(*arena); };
  };
  // Mid-run sampler for windows[]: sums the arena locks' batching counters
  // (relaxed-atomic cells; the allocator counters stay quiescent-only).
  auto sample = [&]() -> detail::probe {
    detail::probe p;
    for (std::size_t a = 0; a < arenas.count(); ++a) {
      if (auto ls = arenas.at(a).lock_stats()) {
        p.stats += *ls;
        p.has_stats = true;
      }
    }
    return p;
  };
  const auto totals = detail::run_window(cfg, make_body, sample);

  detail::fill_window_result(res, totals);

  // Quiescence: drain every worker's live blocks, verifying owner tags.
  for (unsigned t = 0; t < cfg.threads; ++t) {
    if (workers[t] == nullptr) continue;
    workers[t]->drain(arenas.for_cluster(t % clusters));
    res.tag_mismatches += workers[t]->tag_mismatches();
  }

  // Arena occupancy/leak audit.  Everything was freed, and deallocate
  // coalesces with both physical neighbours immediately, so each arena must
  // be back to exactly one free chunk spanning its capacity with zero bytes
  // handed out; the boundary tags and the free tree must validate.  The
  // counter identities are the lock-coherence half: alloc_calls and friends
  // are plain counters bumped under the arena lock, so -- like the kv
  // counter audit -- a lock that admits two threads at once loses updates.
  res.arena_reports.resize(arenas.count());
  cohortalloc::arena_stats agg{};
  reg::erased_stats cohort_sum{};
  bool any_cohort = false;
  bool arenas_ok = true;
  for (std::size_t a = 0; a < arenas.count(); ++a) {
    arena_report& ar = res.arena_reports[a];
    ar.home_cluster = arenas.home_cluster(a);
    ar.alloc = arenas.at(a).quiescent_stats();
    ar.heap_ok = arenas.at(a).check_heap();
    if (auto ls = arenas.at(a).lock_stats()) {
      ar.has_cohort = true;
      ar.cohort = *ls;
      cohort_sum += *ls;
      any_cohort = true;
    }
    arenas_ok = arenas_ok && ar.heap_ok && ar.alloc.allocated_bytes == 0 &&
                ar.alloc.free_chunks == 1;
    agg.allocated_bytes += ar.alloc.allocated_bytes;
    agg.free_chunks += ar.alloc.free_chunks;
    agg.alloc_calls += ar.alloc.alloc_calls;
    agg.free_calls += ar.alloc.free_calls;
    agg.splits += ar.alloc.splits;
    agg.coalesces += ar.alloc.coalesces;
    agg.failures += ar.alloc.failures;
  }
  res.alloc = agg;
  res.has_cohort_stats = any_cohort;
  res.cohort = cohort_sum;

  // Every body call makes exactly one allocate() attempt: successes count
  // as ops, out-of-memory returns as timeouts, and the drain pairs every
  // success with a free.
  res.mutual_exclusion_ok =
      arenas_ok && res.tag_mismatches == 0 &&
      agg.alloc_calls == res.whole_run_ops + res.whole_run_timeouts &&
      agg.failures == res.whole_run_timeouts &&
      agg.free_calls == res.whole_run_ops;
}

}  // namespace

bench_result run_alloc_bench(const bench_config& cfg) {
  if (cfg.alloc_min < sizeof(std::uint64_t))
    throw std::invalid_argument("bench: --alloc-min must be at least 8");
  if (cfg.alloc_max < cfg.alloc_min)
    throw std::invalid_argument("bench: --alloc-max must be >= --alloc-min");
  if (cfg.working_set == 0)
    throw std::invalid_argument("bench: --working-set must be positive");
  if (cfg.alloc_size_zipf < 0.0)
    throw std::invalid_argument("bench: --size-zipf must be >= 0");
  if (cfg.arena_mb == 0)
    throw std::invalid_argument("bench: --arena-mb must be positive");
  const std::size_t bytes = cfg.arena_mb << 20;
  // Worst case every thread parks its whole working set in one arena; leave
  // 2x headroom for fragmentation and headers so OOM means a real bug, not
  // a mis-sized run.
  const std::size_t worst_live =
      2 * cfg.threads * cfg.working_set * (cfg.alloc_max + 64);
  if (bytes < worst_live)
    throw std::invalid_argument(
        "bench: arena too small for threads x working-set x alloc-max "
        "(need ~" +
        std::to_string((worst_live >> 20) + 1) + " MiB per arena)");

  bench_result res;
  res.config = cfg;
  res.clusters_used = numa::system_topology().clusters();

  const bool known = reg::with_lock_type(
      cfg.lock_name, detail::lock_params_of(cfg), [&](auto factory) {
        using lock_t = typename decltype(factory())::element_type;
        alloc::arena_set<lock_t> arenas(bytes, cfg.numa_place, factory);
        run_alloc_typed(arenas, cfg, res);
      });
  if (!known)
    throw std::invalid_argument("bench: " +
                                reg::unknown_lock_message(cfg.lock_name));
  return res;
}

}  // namespace cohort::bench
