// Real-thread benchmark harness for the registry locks.
//
// This is the repository's real-hardware counterpart of the simulated LBench
// (sim/apps/lbench.*): N OS threads, pinned round-robin across the NUMA
// clusters of the discovered topology, drive a workload against one lock
// configuration.  Workloads are registered by name in bench/workload.hpp --
// the paper's three evaluation applications ("cs", "kv", "alloc", DESIGN.md
// §4) -- and share the windowed-measurement skeleton (bench/driver.hpp).
//
// Measured outputs follow the paper's evaluation: throughput, fairness as
// the per-thread op-count CV (Figure 5), timeouts for abortable locks
// (Figure 6), and the cohort batch lengths that explain the speedups (§3.7)
// -- per shard for the kv workload, per arena for the allocator, and as
// windowed snapshots (windows[]) over time for every workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/arena.hpp"
#include "bench/json.hpp"
#include "kvstore/kv_shard.hpp"
#include "locks/registry.hpp"

namespace cohort::bench {

struct bench_config {
  std::string workload = "cs";  // a bench/workload.hpp registry name
  std::string lock_name = "C-BO-MCS";
  unsigned threads = 4;
  double duration_s = 1.0;   // measured window
  double warmup_s = 0.1;     // settle time before the window opens
  unsigned clusters = 0;     // 0 = discovered topology
  std::uint64_t pass_limit = 64;  // cohort may-pass-local bound
  // Fast-path hysteresis knobs for the -fp locks (cohort/fastpath.hpp);
  // 0 = resolve through the registry default chain (COHORT_FISSION_LIMIT /
  // COHORT_REENGAGE_DRAINS env, then the compiled 8/4).
  std::uint32_t fission_limit = 0;
  std::uint32_t reengage_drains = 0;
  // Admission knobs for the gcr- locks (cohort/gcr.hpp); 0 = resolve through
  // the registry default chain (COHORT_GCR_* env, then the compiled policy;
  // max_active additionally defaults to the online CPU count).
  std::uint32_t gcr_min_active = 0;
  std::uint32_t gcr_max_active = 0;
  std::uint32_t gcr_rotation = 0;
  std::uint32_t gcr_tune_window = 0;
  // Pin threads to CPUs of their cluster, one CPU each round-robin, so an
  // oversubscribed run (threads > online CPUs) stacks threads on CPUs
  // deterministically instead of leaving placement to the scheduler.
  bool pin = true;
  // Telemetry windows over the measured interval: the coordinator samples
  // the op and cohort-batch counters snap_windows times per measured run
  // (and at the same cadence during warmup), emitting windows[] in every
  // record.  0 = boundary samples only (one warmup + one measured window).
  unsigned snap_windows = 8;
  // > 0: abortable locks acquire with bounded patience and count timeouts;
  // non-abortable locks ignore it.  ("cs" workload only.)
  std::uint64_t patience_us = 0;

  // "cs" workload parameters.
  unsigned cs_work = 4;      // shared cache lines written per critical section
  unsigned non_cs_work = 64; // private RNG steps between critical sections

  // "kv" workload parameters.
  std::size_t shards = 1;          // independent shards (1 = single cache lock)
  std::size_t kv_buckets = 1024;   // hash buckets per shard
  std::size_t kv_max_items = 0;    // total eviction budget (0 = no eviction)
  double get_ratio = 0.9;          // fraction of ops that are gets
  std::size_t keyspace = 10'000;   // distinct keys (prefilled before the run)
  std::size_t value_bytes = 64;    // payload size per value
  // Key-skew exponent: keys are drawn Zipf(theta) over the keyspace (hot
  // keys first).  0 = uniform.  Hot keys concentrate contention on one
  // shard, which is exactly what stresses fast-path disengagement.
  double zipf_theta = 0.0;
  // Shared by kv and alloc: first-touch each shard (kv) or arena (alloc) on
  // its home cluster, and give the allocator one arena per cluster.
  bool numa_place = false;

  // "kvnet" workload parameters (kv parameters above apply too): the same
  // mix, but served over loopback sockets by the in-process net front-end.
  unsigned net_io_threads = 2;  // server event-loop threads
  bool net_pin_io = false;      // pin server workers to clusters
  // Fault plan for the io_ops seam ("seed=42,short_read=0.1,..."; see
  // net/fault.hpp).  Empty = COHORT_NET_FAULT_* env, which defaults to no
  // faults.
  std::string net_fault_spec;
  // Server hardening knobs (net/server.hpp; 0 = feature off / unlimited).
  std::uint32_t net_idle_timeout_ms = 0;
  std::uint32_t net_conn_lifetime_ms = 0;
  std::uint64_t net_max_requests = 0;
  unsigned net_max_conns = 0;          // per worker; excess is shed
  std::uint32_t net_drain_deadline_ms = 2000;
  // Client resilience: per-op deadline and transient-failure retry budget
  // (net/client.hpp).
  std::uint32_t net_op_timeout_ms = 0;
  unsigned net_retries = 0;

  // "alloc" workload parameters (mmicro's allocate/write/free loop).
  std::size_t alloc_min = 64;     // smallest request size, bytes
  std::size_t alloc_max = 256;    // largest request size, bytes
  std::size_t working_set = 64;   // live blocks each thread cycles through
  std::size_t arena_mb = 64;      // capacity per arena, MiB
  // Size-class skew: > 0 draws sizes from a geometric ladder of classes
  // over [alloc_min, alloc_max] with Zipf(theta) weights, smallest class
  // hottest (real allocator traces are small-heavy).  0 keeps the uniform
  // byte draw.
  double alloc_size_zipf = 0.0;
};

// Post-run snapshot of one shard ("kv" workload): its kv counters plus its
// lock's cohort batching counters when the lock keeps them.
struct shard_report {
  unsigned home_cluster = 0;
  std::size_t items = 0;       // resident items at quiescence
  kvstore::kv_stats kv{};
  bool has_cohort = false;
  reg::erased_stats cohort{};
};

// Post-run snapshot of one arena ("alloc" workload): its allocator counters
// (read after the drain, so allocated_bytes != 0 is a leak) plus its lock's
// cohort batching counters when the lock keeps them.
struct arena_report {
  unsigned home_cluster = 0;
  cohortalloc::arena_stats alloc{};
  bool heap_ok = false;        // boundary tags + free-tree invariants held
  bool has_cohort = false;
  reg::erased_stats cohort{};
};

// Per-shard slice of one telemetry window ("kv"/"kvnet" workloads): the
// shard's get/hit deltas over the interval, sampled live from the shard's
// kv_counters cells.
struct shard_window {
  std::uint64_t gets = 0;
  std::uint64_t get_hits = 0;
  double hit_rate = 0.0;
};

// One telemetry window: the interval between two mid-run counter samples
// (bench/driver.hpp).  Windows tile the run from the start barrier to the
// close of the measured interval; `warmup` windows precede the measured
// one, so warmup-vs-steady-state batching dynamics are visible per record.
struct bench_window {
  double t0_s = 0.0;           // window bounds, seconds since the run start
  double t1_s = 0.0;
  bool warmup = false;         // entirely inside the warmup phase
  std::uint64_t ops = 0;       // completed operations inside the window
  std::uint64_t timeouts = 0;
  double throughput_ops_s = 0.0;
  // Cohort batching deltas across all of the workload's locks; absent
  // (has_cohort == false) for plain locks.
  bool has_cohort = false;
  std::uint64_t acquisitions = 0;
  std::uint64_t global_acquires = 0;
  // Fast-path deltas (always 0 for non-fp cohort locks): acquisitions that
  // took only the top-level CAS, and fast attempts that fissioned into the
  // cohort slow path.  Together with global_acquires these show the
  // engage/disengage dynamics over time.
  std::uint64_t fast_acquires = 0;
  std::uint64_t fissions = 0;
  // Compact-lock deltas (locks/cna.hpp; always 0 for per-cluster cohort
  // compositions): waiters parked on the deferred remote list this window.
  std::uint64_t deferrals = 0;
  // Admission telemetry (cohort/gcr.hpp; always 0 outside gcr- locks).
  // active_set / active_target are *gauges* sampled at the window close;
  // parked / rotations are event deltas over the window -- together they
  // are the live trace of the admission state machine the tuner drives.
  std::uint64_t active_set = 0;
  std::uint64_t active_target = 0;
  std::uint64_t parked = 0;
  std::uint64_t rotations = 0;
  // Mean batch length inside this window: slow acquisitions per global
  // acquire (fast acquires never touch the global lock and are excluded).
  // When the window saw acquisitions but no migration, the batch outlasted
  // the window and the count is a lower bound.
  double mean_batch = 0.0;
  // Server-side deltas over this window (kvnet only; has_net == false
  // otherwise): accepts, answered commands, and the robustness events --
  // sheds, timeout evictions, resets, drain closes, injected faults.
  bool has_net = false;
  std::uint64_t net_connections = 0;
  std::uint64_t net_commands = 0;
  std::uint64_t net_protocol_errors = 0;
  std::uint64_t net_shed = 0;
  std::uint64_t net_timeouts = 0;
  std::uint64_t net_resets = 0;
  std::uint64_t net_drained = 0;
  std::uint64_t net_injected_faults = 0;
  // Per-shard hit-rate over this window (kv workloads; empty otherwise).
  std::vector<shard_window> shards;
};

struct bench_result {
  bench_config config;

  unsigned clusters_used = 0;
  unsigned pinned_threads = 0;  // threads whose CPU affinity call succeeded
  // Online CPU count at run time; threads / online_cpus > 1 is an
  // oversubscribed run (the JSON record carries the ratio).
  unsigned online_cpus = 0;
  double elapsed_s = 0.0;       // actual measured-window length

  std::uint64_t total_ops = 0;  // completed operations in the window
  // Completed operations over the whole run (warmup + window + tail).
  // Every worker performs at least one attempt, so with infinite patience
  // this is >= threads -- the liveness signal even when a heavily loaded
  // host deschedules the workers for the entire measured window.  (With
  // patience_us > 0 an attempt may time out and count in timeouts instead,
  // so check whole_run_ops + timeouts in that mode.)
  std::uint64_t whole_run_ops = 0;
  double throughput_ops_s = 0.0;
  std::vector<std::uint64_t> per_thread_ops;
  // Population stddev of per-thread ops divided by the mean (0 = perfectly
  // fair); Figure 5 reports this as a percentage.
  double fairness_cv = 0.0;
  std::uint64_t timeouts = 0;   // failed acquisitions/allocs in the window
  std::uint64_t whole_run_timeouts = 0;  // same, over the whole run

  // Windowed counter snapshots (warmup + measured), every workload.
  std::vector<bench_window> windows;

  // Whole-run (warmup included) cohort statistics; absent for plain locks.
  // For the kv workload this is the sum over all shard locks.
  bool has_cohort_stats = false;
  reg::erased_stats cohort{};

  // Lock-coherence audit; what it checks is per workload (the registry
  // descriptor's `audit` string names it).  "cs": every critical section
  // increments each shared line once, and after the run all lines must
  // equal the whole-run acquisition count.  "kv": every operation bumps
  // exactly one unsynchronised kv counter under its shard lock, so at
  // quiescence gets + sets must equal whole-run ops plus the prefill sets
  // (a broken lock loses counter updates).  "alloc": after the post-join
  // drain every arena must be back to one fully coalesced free chunk with
  // zero bytes outstanding, alloc/free counter identities must hold against
  // whole-run ops, and no block may ever have been handed to two threads at
  // once (owner tags).
  bool mutual_exclusion_ok = false;

  // "kv" workload outputs (whole run, read at quiescence after join).
  kvstore::kv_stats kv{};
  std::size_t kv_final_size = 0;
  double hit_rate = 0.0;
  std::vector<shard_report> shard_reports;

  // "alloc" workload outputs (whole run, read after the post-join drain).
  cohortalloc::arena_stats alloc{};     // summed over all arenas
  std::uint64_t tag_mismatches = 0;     // double-handout detections
  std::vector<arena_report> arena_reports;

  // "kvnet" workload outputs: server-side counters after the drain.  With
  // no fault plan the audit requires protocol_errors == 0 and one answered
  // command per client op; with faults active, retried ops may execute
  // more than once, so the audit relaxes to bounded inequalities (see
  // run_kvnet_bench).  In both cases the close-reason identity
  //   connections == shed + closed + timeouts + resets + drained
  // must hold exactly.
  std::uint64_t net_connections = 0;
  std::uint64_t net_commands = 0;
  std::uint64_t net_protocol_errors = 0;
  std::uint64_t net_closed = 0;
  std::uint64_t net_shed = 0;
  std::uint64_t net_timeouts = 0;
  std::uint64_t net_resets = 0;
  std::uint64_t net_drained = 0;
  std::uint64_t net_injected_faults = 0;
  std::uint64_t net_client_retries = 0;  // summed over all client conns
  bool net_drain_clean = false;  // drain() finished before its deadline
};

// Installs a topology honouring cfg.clusters: the discovered topology
// as-is (clusters == 0), its first `clusters` nodes, or a synthetic
// topology when the host has fewer nodes than requested.  Returns the
// cluster count in effect.
unsigned install_topology(unsigned clusters);

// Runs one measured repetition of cfg against the named registry lock,
// dispatching cfg.workload through the workload registry (workload.hpp).
// Throws std::invalid_argument for unknown lock names, unknown workloads,
// or out-of-range parameters; the what() string lists the registered names.
bench_result run_bench(const bench_config& cfg);

// One machine-readable trajectory record.
json to_json(const bench_result& r);

// Human-readable one-line summary.
std::string to_text(const bench_result& r);

}  // namespace cohort::bench
