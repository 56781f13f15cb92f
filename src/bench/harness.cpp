#include "bench/harness.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench/driver.hpp"
#include "bench/workload.hpp"
#include "numa/topology.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace cohort::bench {

namespace {

// Shared state the "cs" critical section mutates.  Non-atomic on purpose: the
// lock under test is the only thing ordering these writes, so a broken lock
// shows up as a mutual-exclusion failure (and as a TSan report in the
// sanitizer CI job).
struct cs_data {
  std::vector<padded<std::uint64_t>> lines;
};

// Compiler sink for the private think-time loop.  The RNG state is dead
// after the body returns, so without an observable use gcc deletes the
// whole non_cs_work loop -- but only for the lock types it can fully
// inline, silently zeroing the think time for some locks and not others
// and invalidating every cross-lock comparison at a given non_cs_work.
inline void consume(std::uint64_t v) { asm volatile("" : : "r"(v)); }

template <typename Lock>
bench_result run_cs_typed(Lock& lock, const bench_config& cfg) {
  bench_result res;
  res.config = cfg;
  res.clusters_used = numa::system_topology().clusters();

  cs_data shared;
  shared.lines.resize(std::max(1u, cfg.cs_work));

  const bool use_patience = [&] {
    if (cfg.patience_us == 0) return false;
    return requires(Lock& l, typename Lock::context& c, deadline d) {
      l.try_lock(c, d);
    } || requires(Lock& l, deadline d) { l.try_lock(d); };
  }();
  const std::chrono::microseconds patience(cfg.patience_us);

  auto make_body = [&](unsigned tid) {
    // Queue-lock contexts are identity-sensitive, so the body keeps its
    // context at a stable heap address instead of inside the closure.
    return [&lock, &shared, &cfg, use_patience, patience,
            ctx = std::make_unique<typename Lock::context>(),
            rng = xorshift(0x9e3779b9u + tid)]() mutable {
      bool acquired = true;
      if (use_patience) {
        if constexpr (requires(Lock& l, typename Lock::context& c,
                               deadline d) { l.try_lock(c, d); })
          acquired = lock.try_lock(*ctx, deadline_after(patience));
        else if constexpr (requires(Lock& l, deadline d) { l.try_lock(d); })
          acquired = lock.try_lock(deadline_after(patience));
        else
          lock.lock(*ctx);
      } else {
        lock.lock(*ctx);
      }
      if (acquired) {
        for (auto& line : shared.lines) ++line.get();
        lock.unlock(*ctx);
      }
      // Private think time between critical sections; folded into a sink
      // the compiler must materialise so every step actually runs.
      std::uint64_t sink = 0;
      for (unsigned i = 0; i < cfg.non_cs_work; ++i) sink ^= rng.next();
      consume(sink);
      return acquired;
    };
  };
  // Mid-run sampler for windows[]: cohort batch counters are relaxed-atomic
  // cells, so this is safe to call while the workers run.
  auto sample = [&]() -> detail::probe {
    detail::probe p;
    if constexpr (requires(const Lock& l) { l.stats(); }) {
      p.has_stats = true;
      p.stats = reg::erased_stats(lock.stats());
    }
    return p;
  };
  const auto totals = detail::run_window(cfg, make_body, sample);

  detail::fill_window_result(res, totals);

  // Whole-run totals for the mutual-exclusion audit: the measured window is
  // a slice of the run, so the lines are checked against the final
  // (post-join) counters, which cover warmup and the tail after the window
  // closed.
  res.mutual_exclusion_ok = true;
  for (const auto& line : shared.lines)
    if (line.get() != res.whole_run_ops) res.mutual_exclusion_ok = false;

  if constexpr (requires(const Lock& l) { l.stats(); }) {
    res.has_cohort_stats = true;
    res.cohort = lock.stats();  // abortable_stats slices to the base
  }
  return res;
}

}  // namespace

unsigned install_topology(unsigned clusters) {
  if (clusters == 0) return numa::system_topology().clusters();
  numa::topology t = numa::topology::discover();
  if (t.clusters() >= clusters)
    t.cpus.resize(clusters);
  else
    t = numa::topology::synthetic(clusters);
  numa::set_system_topology(t);
  return clusters;
}

bench_result run_cs_bench(const bench_config& cfg) {
  bench_result res;
  const bool known = reg::with_lock_type(
      cfg.lock_name,
      detail::lock_params_of(cfg),
      [&](auto factory) {
        auto lock = factory();
        res = run_cs_typed(*lock, cfg);
      });
  if (!known)
    throw std::invalid_argument("bench: " +
                                reg::unknown_lock_message(cfg.lock_name));
  return res;
}

bench_result run_bench(const bench_config& cfg) {
  if (cfg.threads == 0)
    throw std::invalid_argument("bench: thread count must be positive");
  const workload_info* w = find_workload(cfg.workload);
  if (w == nullptr)
    throw std::invalid_argument("bench: unknown workload '" + cfg.workload +
                                "' (registered: " + workload_names_joined() +
                                ")");
  install_topology(cfg.clusters);
  return w->run(cfg);
}

namespace {

json cohort_to_json(const reg::erased_stats& s) {
  json cs = json::object();
  cs.set("acquisitions", s.acquisitions);
  cs.set("global_acquires", s.global_acquires);
  cs.set("local_handoffs", s.local_handoffs);
  cs.set("handoff_failures", s.handoff_failures);
  cs.set("fast_acquires", s.fast_acquires);
  cs.set("fissions", s.fissions);
  cs.set("deferrals", s.deferrals);
  cs.set("active_set", s.active_set);
  cs.set("active_target", s.active_target);
  cs.set("parked", s.parked);
  cs.set("rotations", s.rotations);
  cs.set("avg_batch", s.avg_batch());
  return cs;
}

}  // namespace

json to_json(const bench_result& r) {
  const bool kv =
      r.config.workload == "kv" || r.config.workload == "kvnet";
  const bool kvnet = r.config.workload == "kvnet";
  const bool alloc = r.config.workload == "alloc";
  json rec = json::object();
  // Record-shape version for downstream plotting: 1 = original records,
  // 2 = policy-ladder lock telemetry, 3 = net robustness keys
  // (net.{closed,shed,timeouts,resets,drained,injected_faults,
  // client_retries,drain_clean} and a "net" delta object in kvnet
  // windows[]), 4 = the policy-ladder lock deleted with its schema-2 keys
  // (cohort.{policy_switches,current_policy} in the whole-run block and in
  // windows[], per_shard[].{current_policy,policy_switches}, the ladder's
  // knob echo).  Bump on any key change.
  rec.set("schema_version", static_cast<std::uint64_t>(4));
  rec.set("workload", r.config.workload);
  rec.set("lock", r.config.lock_name);
  rec.set("threads", r.config.threads);
  rec.set("clusters", r.clusters_used);
  rec.set("pinned_threads", r.pinned_threads);
  rec.set("online_cpus", r.online_cpus);
  // threads / online CPUs: > 1 means the run was oversubscribed (the
  // regime the gcr- admission layer exists for).
  rec.set("oversubscription",
          r.online_cpus > 0 ? static_cast<double>(r.config.threads) /
                                  static_cast<double>(r.online_cpus)
                            : 0.0);
  rec.set("duration_s", r.config.duration_s);
  rec.set("warmup_s", r.config.warmup_s);
  rec.set("elapsed_s", r.elapsed_s);
  if (kv) {
    rec.set("shards", static_cast<std::uint64_t>(r.config.shards));
    rec.set("buckets", static_cast<std::uint64_t>(r.config.kv_buckets));
    rec.set("max_items", static_cast<std::uint64_t>(r.config.kv_max_items));
    rec.set("get_ratio", r.config.get_ratio);
    rec.set("keyspace", static_cast<std::uint64_t>(r.config.keyspace));
    rec.set("value_bytes", static_cast<std::uint64_t>(r.config.value_bytes));
    rec.set("zipf_theta", r.config.zipf_theta);
    rec.set("numa_place", r.config.numa_place);
    if (kvnet) {
      rec.set("io_threads", r.config.net_io_threads);
      rec.set("net_pin_io", r.config.net_pin_io);
      if (!r.config.net_fault_spec.empty())
        rec.set("net_fault", r.config.net_fault_spec);
      rec.set("net_idle_timeout_ms", r.config.net_idle_timeout_ms);
      rec.set("net_max_conns", r.config.net_max_conns);
      rec.set("net_op_timeout_ms", r.config.net_op_timeout_ms);
      rec.set("net_retries", r.config.net_retries);
      rec.set("net_drain_deadline_ms", r.config.net_drain_deadline_ms);
    }
  } else if (alloc) {
    rec.set("alloc_min", static_cast<std::uint64_t>(r.config.alloc_min));
    rec.set("alloc_max", static_cast<std::uint64_t>(r.config.alloc_max));
    rec.set("size_zipf", r.config.alloc_size_zipf);
    rec.set("working_set", static_cast<std::uint64_t>(r.config.working_set));
    rec.set("arena_mb", static_cast<std::uint64_t>(r.config.arena_mb));
    rec.set("arenas", static_cast<std::uint64_t>(r.arena_reports.size()));
    rec.set("numa_place", r.config.numa_place);
  } else {
    rec.set("cs_work", r.config.cs_work);
    rec.set("non_cs_work", r.config.non_cs_work);
    // Bounded patience only exists on the cs path; kv/alloc records omit it
    // so a configured-but-unused value cannot read as "ran with zero
    // timeouts".
    rec.set("patience_us", r.config.patience_us);
  }
  // Tuning knobs are recorded only when the lock's registry descriptor says
  // it honours them, so a record can never claim a pass_limit for a lock
  // that has no such bound (and vice versa for the -fp hysteresis).
  {
    const reg::lock_descriptor* desc = reg::find_lock(r.config.lock_name);
    if (desc == nullptr || desc->uses_pass_limit)
      rec.set("pass_limit", r.config.pass_limit);
    if (desc == nullptr || desc->uses_fp_knobs) {
      // The values in effect, resolved through flag -> env -> compiled
      // default.
      const fastpath_policy fpp = reg::effective_fastpath(
          {.fp = {.fission_limit = r.config.fission_limit,
                  .reengage_drains = r.config.reengage_drains}});
      rec.set("fission_limit", fpp.fission_limit);
      rec.set("reengage_drains", fpp.reengage_drains);
    }
    if (desc != nullptr && desc->uses_gcr_knobs) {
      const gcr_policy gp = reg::effective_gcr(
          {.gcr = {.min_active = r.config.gcr_min_active,
                   .max_active = r.config.gcr_max_active,
                   .rotation_interval = r.config.gcr_rotation,
                   .tune_window = r.config.gcr_tune_window}});
      rec.set("gcr_min_active", gp.min_active);
      // 0 = resolved to the online CPU count inside the combinator.
      rec.set("gcr_max_active", gp.max_active);
      rec.set("gcr_rotation", gp.rotation_interval);
      rec.set("gcr_tune_window", gp.tune_window);
    }
  }
  rec.set("total_ops", r.total_ops);
  rec.set("whole_run_ops", r.whole_run_ops);
  rec.set("throughput_ops_s", r.throughput_ops_s);
  rec.set("fairness_cv", r.fairness_cv);
  rec.set("timeouts", r.timeouts);
  rec.set("mutual_exclusion_ok", r.mutual_exclusion_ok);
  if (kv) {
    rec.set("hit_rate", r.hit_rate);
    json kvs = json::object();
    kvs.set("gets", r.kv.gets);
    kvs.set("get_hits", r.kv.get_hits);
    kvs.set("sets", r.kv.sets);
    kvs.set("deletes", r.kv.deletes);
    kvs.set("evictions", r.kv.evictions);
    kvs.set("final_size", static_cast<std::uint64_t>(r.kv_final_size));
    rec.set("kv", std::move(kvs));
  }
  if (kvnet) {
    json net = json::object();
    net.set("connections", r.net_connections);
    net.set("commands", r.net_commands);
    net.set("protocol_errors", r.net_protocol_errors);
    net.set("closed", r.net_closed);
    net.set("shed", r.net_shed);
    net.set("timeouts", r.net_timeouts);
    net.set("resets", r.net_resets);
    net.set("drained", r.net_drained);
    net.set("injected_faults", r.net_injected_faults);
    net.set("client_retries", r.net_client_retries);
    net.set("drain_clean", r.net_drain_clean);
    rec.set("net", std::move(net));
  }
  json ops = json::array();
  for (std::uint64_t v : r.per_thread_ops) ops.push(v);
  rec.set("per_thread_ops", std::move(ops));
  if (kv) {
    json per_shard = json::array();
    for (std::size_t s = 0; s < r.shard_reports.size(); ++s) {
      const shard_report& sr = r.shard_reports[s];
      json sh = json::object();
      sh.set("shard", static_cast<std::uint64_t>(s));
      sh.set("home_cluster", sr.home_cluster);
      sh.set("items", static_cast<std::uint64_t>(sr.items));
      sh.set("gets", sr.kv.gets);
      sh.set("get_hits", sr.kv.get_hits);
      sh.set("sets", sr.kv.sets);
      sh.set("deletes", sr.kv.deletes);
      sh.set("evictions", sr.kv.evictions);
      if (sr.has_cohort) sh.set("cohort", cohort_to_json(sr.cohort));
      per_shard.push(std::move(sh));
    }
    rec.set("per_shard", std::move(per_shard));
  }
  if (alloc) {
    json al = json::object();
    al.set("alloc_calls", static_cast<std::uint64_t>(r.alloc.alloc_calls));
    al.set("free_calls", static_cast<std::uint64_t>(r.alloc.free_calls));
    al.set("failed_allocs", static_cast<std::uint64_t>(r.alloc.failures));
    al.set("splits", static_cast<std::uint64_t>(r.alloc.splits));
    al.set("coalesces", static_cast<std::uint64_t>(r.alloc.coalesces));
    // Bytes still handed out after the post-join drain: any non-zero value
    // is a leak and fails the audit.
    al.set("leak_bytes", static_cast<std::uint64_t>(r.alloc.allocated_bytes));
    al.set("tag_mismatches", r.tag_mismatches);
    rec.set("alloc", std::move(al));
    json per_arena = json::array();
    for (std::size_t a = 0; a < r.arena_reports.size(); ++a) {
      const arena_report& ar = r.arena_reports[a];
      json aj = json::object();
      aj.set("arena", static_cast<std::uint64_t>(a));
      aj.set("home_cluster", ar.home_cluster);
      aj.set("alloc_calls", static_cast<std::uint64_t>(ar.alloc.alloc_calls));
      aj.set("free_calls", static_cast<std::uint64_t>(ar.alloc.free_calls));
      aj.set("failed_allocs", static_cast<std::uint64_t>(ar.alloc.failures));
      aj.set("splits", static_cast<std::uint64_t>(ar.alloc.splits));
      aj.set("coalesces", static_cast<std::uint64_t>(ar.alloc.coalesces));
      aj.set("free_chunks", static_cast<std::uint64_t>(ar.alloc.free_chunks));
      aj.set("leak_bytes",
             static_cast<std::uint64_t>(ar.alloc.allocated_bytes));
      aj.set("heap_ok", ar.heap_ok);
      if (ar.has_cohort) aj.set("cohort", cohort_to_json(ar.cohort));
      per_arena.push(std::move(aj));
    }
    rec.set("per_arena", std::move(per_arena));
  }
  if (r.has_cohort_stats) rec.set("cohort", cohort_to_json(r.cohort));
  rec.set("avg_batch", r.has_cohort_stats ? r.cohort.avg_batch() : 0.0);
  // Batch-length telemetry over time: one entry per snapshot interval, the
  // warmup windows first, tiling the run up to the measured-window close.
  json windows = json::array();
  for (const bench_window& w : r.windows) {
    json wj = json::object();
    wj.set("t0_s", w.t0_s);
    wj.set("t1_s", w.t1_s);
    wj.set("warmup", w.warmup);
    wj.set("ops", w.ops);
    wj.set("throughput_ops_s", w.throughput_ops_s);
    if (w.timeouts != 0) wj.set("timeouts", w.timeouts);
    if (w.has_cohort) {
      json cj = json::object();
      cj.set("acquisitions", w.acquisitions);
      cj.set("global_acquires", w.global_acquires);
      cj.set("fast_acquires", w.fast_acquires);
      cj.set("fissions", w.fissions);
      cj.set("deferrals", w.deferrals);
      cj.set("active_set", w.active_set);
      cj.set("active_target", w.active_target);
      cj.set("parked", w.parked);
      cj.set("rotations", w.rotations);
      cj.set("mean_batch", w.mean_batch);
      wj.set("cohort", std::move(cj));
    }
    // Served-path deltas over time (kvnet): accepts, answered commands,
    // and the robustness events inside this window.
    if (w.has_net) {
      json nj = json::object();
      nj.set("connections", w.net_connections);
      nj.set("commands", w.net_commands);
      nj.set("protocol_errors", w.net_protocol_errors);
      nj.set("shed", w.net_shed);
      nj.set("timeouts", w.net_timeouts);
      nj.set("resets", w.net_resets);
      nj.set("drained", w.net_drained);
      nj.set("injected_faults", w.net_injected_faults);
      wj.set("net", std::move(nj));
    }
    // Per-shard hit-rate over time (kv workloads): one entry per shard.
    if (!w.shards.empty()) {
      json per_shard = json::array();
      for (const shard_window& sw : w.shards) {
        json sj = json::object();
        sj.set("gets", sw.gets);
        sj.set("get_hits", sw.get_hits);
        sj.set("hit_rate", sw.hit_rate);
        per_shard.push(std::move(sj));
      }
      wj.set("per_shard", std::move(per_shard));
    }
    windows.push(std::move(wj));
  }
  rec.set("windows", std::move(windows));
  return rec;
}

std::string to_text(const bench_result& r) {
  char buf[256];
  if (r.config.workload == "alloc") {
    std::snprintf(
        buf, sizeof(buf),
        "alloc %-12s threads=%-3u arenas=%-2zu %12.0f ops/s  cv=%5.1f%%  "
        "batch=%6.2f%s%s",
        r.config.lock_name.c_str(), r.config.threads, r.arena_reports.size(),
        r.throughput_ops_s, 100.0 * r.fairness_cv,
        r.has_cohort_stats ? r.cohort.avg_batch() : 0.0,
        r.timeouts > 0 ? "  (failed allocs)" : "",
        r.mutual_exclusion_ok ? "" : "  [ARENA AUDIT FAILED]");
  } else if (r.config.workload == "kv" || r.config.workload == "kvnet") {
    std::snprintf(
        buf, sizeof(buf),
        "%-5s %-12s threads=%-3u shards=%-3zu %12.0f ops/s  hit=%5.1f%%  "
        "cv=%5.1f%%  batch=%6.2f%s",
        r.config.workload.c_str(), r.config.lock_name.c_str(),
        r.config.threads, r.config.shards, r.throughput_ops_s,
        100.0 * r.hit_rate, 100.0 * r.fairness_cv,
        r.has_cohort_stats ? r.cohort.avg_batch() : 0.0,
        r.mutual_exclusion_ok ? "" : "  [COUNTER AUDIT FAILED]");
  } else {
    std::snprintf(
        buf, sizeof(buf),
        "%-12s threads=%-3u  %12.0f ops/s  cv=%5.1f%%  batch=%6.2f%s%s",
        r.config.lock_name.c_str(), r.config.threads, r.throughput_ops_s,
        100.0 * r.fairness_cv,
        r.has_cohort_stats ? r.cohort.avg_batch() : 0.0,
        r.timeouts > 0 ? "  (timeouts)" : "",
        r.mutual_exclusion_ok ? "" : "  [MUTEX VIOLATION]");
  }
  return buf;
}

}  // namespace cohort::bench
