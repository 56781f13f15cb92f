// Windowed-measurement skeleton shared by the cohort_bench workloads
// (DESIGN.md §4): thread creation, pinning, start barrier, warmup, the
// measured window bracketed by counter snapshots, a mid-run sampling loop
// feeding the windows[] telemetry, and the fairness/throughput reduction.
// A workload plugs in as a per-thread body plus a counter sampler; the
// registered workloads live in workload.hpp ("cs", "kv", "alloc").
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "numa/topology.hpp"
#include "util/align.hpp"
#include "util/stats.hpp"

namespace cohort::bench {
namespace detail {

using bench_clock = std::chrono::steady_clock;

// The lock_params a bench_config requests (shared by every workload's
// with_lock_type / make_any_sharded_store call).
inline reg::lock_params lock_params_of(const bench_config& cfg) {
  return {.clusters = cfg.clusters,
          .cohort = {.pass_limit = cfg.pass_limit},
          .fp = {.fission_limit = cfg.fission_limit,
                 .reengage_drains = cfg.reengage_drains},
          .gcr = {.min_active = cfg.gcr_min_active,
                  .max_active = cfg.gcr_max_active,
                  .rotation_interval = cfg.gcr_rotation,
                  .tune_window = cfg.gcr_tune_window}};
}

struct alignas(cache_line_size) thread_slot {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<bool> pinned{false};
};

// What a workload's mid-run sampler returns: the summed cohort batching
// counters of its locks (when they keep any), plus -- for the kv workloads
// -- each shard's operation cells, so windows[] can carry per-shard
// hit-rate over time.  Everything here must come from race-free cells
// (cohort_counters, kv_counters); unsynchronised counters stay
// quiescent-only.
struct shard_probe {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
};

// Server-side counter sample for the served workload (kvnet): the
// kv_server's per-worker cells are single-writer and safe to sum live, so
// windows[] can carry accepts/sheds/timeouts/faults over time.  Kept as a
// plain struct here (not net::server_counters) so the driver skeleton has
// no dependency on the net layer.
struct net_probe {
  bool present = false;
  std::uint64_t connections = 0;
  std::uint64_t commands = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t shed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t resets = 0;
  std::uint64_t drained = 0;
  std::uint64_t injected_faults = 0;
};

struct probe {
  bool has_stats = false;           // cohort batching counters available
  reg::erased_stats stats{};        // summed over the workload's locks
  std::vector<shard_probe> shards;  // empty for non-sharded workloads
  net_probe net{};                  // present only for served workloads
};

// One mid-run counter sample, taken by the coordinator while the workers
// run.  Thread op counters are atomics and the probe reads relaxed
// single-writer cells, so sampling is race-free.
struct window_sample {
  double t_s = 0.0;            // seconds since the start barrier opened
  std::uint64_t ops = 0;       // completed ops, summed over threads
  std::uint64_t timeouts = 0;
  probe counters{};
};

struct window_totals {
  unsigned pinned_threads = 0;
  double elapsed_s = 0.0;                     // actual measured-window length
  std::vector<std::uint64_t> window_ops;      // per thread, window only
  std::uint64_t window_timeouts = 0;
  std::uint64_t whole_run_ops = 0;            // warmup + window + tail
  std::uint64_t whole_run_timeouts = 0;
  std::vector<window_sample> samples;         // start, warmup end, ..., close
  std::size_t warmup_boundary = 0;  // samples index where the window opened
};

// Runs cfg.threads workers against a workload body.  make_body(tid) is
// invoked on the worker's own thread (after pinning / cluster assignment)
// and must return a callable `bool ()` performing exactly one operation:
// true counts as a completed op, false as a timeout (or failed allocation).
// Bodies run in a do-while, so every worker attempts at least one operation
// even if the window elapses while it is descheduled.
//
// sample_counters() is called by the coordinator at every snapshot point --
// concurrently with the workers -- and must return a `probe`: the summed
// cohort batching counters of the workload's locks (has_stats == false when
// the lock type keeps none) and, for sharded workloads, the per-shard
// operation cells.  Implementations must only touch race-free state: the
// cohort_counters and kv_counters cells qualify, unsynchronised workload
// counters do not.
template <typename MakeBody, typename SampleCounters>
window_totals run_window(const bench_config& cfg, MakeBody&& make_body,
                         SampleCounters&& sample_counters) {
  const auto& topo = numa::system_topology();
  const unsigned clusters = topo.clusters();

  std::vector<thread_slot> slots(cfg.threads);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<unsigned> ready{0};

  auto worker = [&](unsigned tid) {
    // One CPU per thread, round-robin within the cluster (slot = how many
    // cluster-mates precede this thread): an oversubscribed run stacks
    // threads on CPUs deterministically instead of letting the scheduler
    // migrate the surplus, which is what makes collapse curves repeatable.
    if (cfg.pin)
      slots[tid].pinned.store(
          numa::pin_thread_to_cpu_slot(topo, tid % clusters, tid / clusters),
          std::memory_order_relaxed);
    else
      numa::set_thread_cluster(tid % clusters);

    auto body = make_body(tid);

    ready.fetch_add(1, std::memory_order_release);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

    std::uint64_t ops = 0;
    std::uint64_t timeouts = 0;
    do {
      if (body())
        ++ops;
      else
        ++timeouts;
      // Publish progress so the coordinator can snapshot mid-run.
      slots[tid].ops.store(ops, std::memory_order_relaxed);
      slots[tid].timeouts.store(timeouts, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_relaxed));
  };

  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) threads.emplace_back(worker, t);
  while (ready.load(std::memory_order_acquire) != cfg.threads)
    std::this_thread::yield();

  // Snapshot schedule, as offsets from the start barrier: the warmup end
  // and the window close are mandatory (they bracket the measured window
  // exactly); snap_windows > 0 adds interior samples every
  // duration / snap_windows seconds, during warmup and the window alike.
  const double period =
      cfg.snap_windows > 0 ? cfg.duration_s / cfg.snap_windows : 0.0;
  std::vector<double> marks;
  std::size_t warmup_boundary = 0;  // index into samples, where samples[0]=t0
  if (cfg.warmup_s > 0.0) {
    if (period > 0.0)
      for (double t = period; t < cfg.warmup_s - 0.5 * period; t += period)
        marks.push_back(t);
    marks.push_back(cfg.warmup_s);
    warmup_boundary = marks.size();  // samples index = marks index + 1
  }
  if (period > 0.0)
    for (unsigned k = 1; k < cfg.snap_windows; ++k)
      marks.push_back(cfg.warmup_s + k * period);
  marks.push_back(cfg.warmup_s + cfg.duration_s);

  window_totals w;
  w.warmup_boundary = warmup_boundary;
  std::vector<std::uint64_t> warm_ops(cfg.threads);
  std::vector<std::uint64_t> warm_timeouts(cfg.threads);
  std::vector<std::uint64_t> end_ops(cfg.threads);
  std::vector<std::uint64_t> end_timeouts(cfg.threads);

  const auto start = bench_clock::now();
  auto take_sample = [&](std::vector<std::uint64_t>* ops_out,
                         std::vector<std::uint64_t>* timeouts_out) {
    window_sample s;
    s.t_s = std::chrono::duration<double>(bench_clock::now() - start).count();
    for (unsigned t = 0; t < cfg.threads; ++t) {
      const std::uint64_t o = slots[t].ops.load(std::memory_order_relaxed);
      const std::uint64_t to =
          slots[t].timeouts.load(std::memory_order_relaxed);
      s.ops += o;
      s.timeouts += to;
      if (ops_out != nullptr) (*ops_out)[t] = o;
      if (timeouts_out != nullptr) (*timeouts_out)[t] = to;
    }
    s.counters = sample_counters();
    w.samples.push_back(std::move(s));
  };

  go.store(true, std::memory_order_release);
  take_sample(warmup_boundary == 0 ? &warm_ops : nullptr,
              warmup_boundary == 0 ? &warm_timeouts : nullptr);
  for (std::size_t m = 0; m < marks.size(); ++m) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<bench_clock::duration>(
                    std::chrono::duration<double>(marks[m])));
    const bool opens_window = m + 1 == warmup_boundary;
    const bool closes_window = m + 1 == marks.size();
    take_sample(opens_window ? &warm_ops : closes_window ? &end_ops : nullptr,
                opens_window      ? &warm_timeouts
                : closes_window ? &end_timeouts
                                  : nullptr);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  w.elapsed_s = w.samples.back().t_s - w.samples[warmup_boundary].t_s;
  w.window_ops.resize(cfg.threads);
  for (unsigned t = 0; t < cfg.threads; ++t) {
    w.window_ops[t] = end_ops[t] - warm_ops[t];
    w.window_timeouts += end_timeouts[t] - warm_timeouts[t];
    if (slots[t].pinned.load(std::memory_order_relaxed)) ++w.pinned_threads;
    // Post-join counters cover warmup and the tail after the window closed.
    w.whole_run_ops += slots[t].ops.load(std::memory_order_relaxed);
    w.whole_run_timeouts += slots[t].timeouts.load(std::memory_order_relaxed);
  }
  return w;
}

// Fills the window-derived fields of a bench_result (throughput, fairness,
// per-thread ops, timeouts, pinning, whole-run totals, windows[]).
inline void fill_window_result(bench_result& res, const window_totals& w) {
  res.pinned_threads = w.pinned_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  res.online_cpus = hw == 0 ? 1 : hw;
  res.elapsed_s = w.elapsed_s;
  res.per_thread_ops = w.window_ops;
  res.timeouts = w.window_timeouts;
  res.whole_run_ops = w.whole_run_ops;
  res.whole_run_timeouts = w.whole_run_timeouts;
  res.total_ops = 0;
  std::vector<double> per_thread(w.window_ops.size());
  for (std::size_t t = 0; t < w.window_ops.size(); ++t) {
    res.total_ops += w.window_ops[t];
    per_thread[t] = static_cast<double>(w.window_ops[t]);
  }
  res.throughput_ops_s =
      res.elapsed_s > 0.0 ? static_cast<double>(res.total_ops) / res.elapsed_s
                          : 0.0;
  const summary fair = summarize(per_thread);
  res.fairness_cv = fair.mean > 0.0 ? fair.stddev / fair.mean : 0.0;

  // Consecutive samples become telemetry windows.  Counter cells move
  // independently, so a window's acquisitions can momentarily run ahead of
  // its ops; the deltas are still exact over any quiescent boundary.
  res.windows.clear();
  for (std::size_t i = 1; i < w.samples.size(); ++i) {
    const window_sample& a = w.samples[i - 1];
    const window_sample& b = w.samples[i];
    bench_window win;
    win.t0_s = a.t_s;
    win.t1_s = b.t_s;
    win.warmup = i <= w.warmup_boundary;
    win.ops = b.ops - a.ops;
    win.timeouts = b.timeouts - a.timeouts;
    const double dt = win.t1_s - win.t0_s;
    win.throughput_ops_s =
        dt > 0.0 ? static_cast<double>(win.ops) / dt : 0.0;
    if (a.counters.has_stats && b.counters.has_stats) {
      win.has_cohort = true;
      win.acquisitions =
          b.counters.stats.acquisitions - a.counters.stats.acquisitions;
      win.global_acquires = b.counters.stats.global_acquires -
                            a.counters.stats.global_acquires;
      win.fast_acquires =
          b.counters.stats.fast_acquires - a.counters.stats.fast_acquires;
      win.fissions = b.counters.stats.fissions - a.counters.stats.fissions;
      win.deferrals =
          b.counters.stats.deferrals - a.counters.stats.deferrals;
      // Admission telemetry: the set size and tuned target are gauges
      // (their value *at* the closing sample), park/rotation events are
      // deltas like every other counter.
      win.active_set = b.counters.stats.active_set;
      win.active_target = b.counters.stats.active_target;
      win.parked = b.counters.stats.parked - a.counters.stats.parked;
      win.rotations =
          b.counters.stats.rotations - a.counters.stats.rotations;
      // Batch length counts only the slow (cohort) acquisitions a global
      // acquire amortises; fast acquires bypass the global lock entirely.
      const std::uint64_t slow = win.acquisitions - win.fast_acquires;
      win.mean_batch = win.global_acquires > 0
                           ? static_cast<double>(slow) /
                                 static_cast<double>(win.global_acquires)
                           : static_cast<double>(slow);
    }
    if (a.counters.net.present && b.counters.net.present) {
      win.has_net = true;
      win.net_connections =
          b.counters.net.connections - a.counters.net.connections;
      win.net_commands = b.counters.net.commands - a.counters.net.commands;
      win.net_protocol_errors =
          b.counters.net.protocol_errors - a.counters.net.protocol_errors;
      win.net_shed = b.counters.net.shed - a.counters.net.shed;
      win.net_timeouts = b.counters.net.timeouts - a.counters.net.timeouts;
      win.net_resets = b.counters.net.resets - a.counters.net.resets;
      win.net_drained = b.counters.net.drained - a.counters.net.drained;
      win.net_injected_faults =
          b.counters.net.injected_faults - a.counters.net.injected_faults;
    }
    // Per-shard hit-rate deltas (kv workloads): both samples must have seen
    // the same shard set.
    if (!b.counters.shards.empty() &&
        a.counters.shards.size() == b.counters.shards.size()) {
      win.shards.resize(b.counters.shards.size());
      for (std::size_t s = 0; s < b.counters.shards.size(); ++s) {
        shard_window& sw = win.shards[s];
        sw.gets = b.counters.shards[s].gets - a.counters.shards[s].gets;
        sw.get_hits =
            b.counters.shards[s].get_hits - a.counters.shards[s].get_hits;
        // Cells move independently; clamp transient hits > gets.
        if (sw.get_hits > sw.gets) sw.get_hits = sw.gets;
        sw.hit_rate = sw.gets > 0 ? static_cast<double>(sw.get_hits) /
                                        static_cast<double>(sw.gets)
                                  : 0.0;
      }
    }
    res.windows.push_back(std::move(win));
  }
}

}  // namespace detail
}  // namespace cohort::bench
