// Shared plumbing of the two kv benchmark workloads ("kv" in-process,
// "kvnet" over loopback sockets): the mid-run counter probe and the
// post-run result fill.  Both drive the same store engine and route ops
// through the same command layer (kvstore/command.hpp); this header keeps
// their measurement and audit logic identical too.
#pragma once

#include <stdexcept>

#include "bench/driver.hpp"
#include "bench/harness.hpp"
#include "kvstore/sharded_store.hpp"

namespace cohort::bench::detail {

// Mid-run sampler: per-shard kv operation cells plus the summed shard-lock
// batching counters.  Race-free while workers (or server io threads) run --
// every constituent is a relaxed single-writer cell.
template <typename Store>
probe sample_kv_probe(const Store& store) {
  probe p;
  p.shards.resize(store.shard_count());
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const kvstore::kv_counters& c = store.shard(s).counters();
    p.shards[s].gets = c.gets.get();
    p.shards[s].get_hits = c.get_hits.get();
    if (auto ls = store.lock_stats(s)) {
      p.stats += *ls;
      p.has_stats = true;
    }
  }
  return p;
}

// Post-run (quiescent) result fill: whole-run kv totals, hit rate, the
// counter-coherence audit, and the per-shard reports.  `extra_ops` covers
// operations the measured loop did not perform itself (the prefill sets,
// plus any server-side protocol error replies for kvnet -- every completed
// op must bump exactly one kv counter under its shard lock for the audit
// to hold).
template <typename Store>
void fill_kv_result(Store& store, bench_result& res,
                    std::uint64_t extra_ops) {
  const kvstore::kv_stats agg = store.stats();
  res.kv = agg;
  res.kv_final_size = store.size();
  res.hit_rate = agg.gets != 0 ? static_cast<double>(agg.get_hits) /
                                     static_cast<double>(agg.gets)
                               : 0.0;

  // Counter-coherence audit, the kv analogue of the cs shared-line audit:
  // each completed operation bumps exactly one kv counter under its shard
  // lock, so a lock that admits two threads at once loses updates here.
  res.mutual_exclusion_ok =
      agg.gets + agg.sets + agg.deletes == res.whole_run_ops + extra_ops &&
      agg.get_hits <= agg.gets;

  res.shard_reports.resize(store.shard_count());
  reg::erased_stats sum{};
  bool any_cohort = false;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    shard_report& sr = res.shard_reports[s];
    sr.home_cluster = store.home_cluster(s);
    sr.items = store.shard(s).size();
    sr.kv = store.shard(s).stats();
    if (auto ls = store.lock_stats(s)) {
      sr.has_cohort = true;
      sr.cohort = *ls;
      sum += *ls;
      any_cohort = true;
    }
  }
  res.has_cohort_stats = any_cohort;
  res.cohort = sum;
}

// The common parameter validation of both kv workloads.
inline void validate_kv_config(const bench_config& cfg) {
  if (cfg.get_ratio < 0.0 || cfg.get_ratio > 1.0)
    throw std::invalid_argument("bench: get ratio must be in [0, 1]");
  if (cfg.shards == 0)
    throw std::invalid_argument("bench: shard count must be positive");
  if (cfg.zipf_theta < 0.0)
    throw std::invalid_argument("bench: zipf theta must be >= 0");
}

}  // namespace cohort::bench::detail
