// cohort_bench: real-thread benchmark CLI over the registry locks and the
// registry workloads.
//
//   cohort_bench --lock C-BO-MCS --threads 8 --duration 1 --json
//   cohort_bench --all --threads 4 --duration 0.2 --json   # full registry
//   cohort_bench --workload kv --shards 4 --get-ratio 0.9 --json
//   cohort_bench --workload alloc --numa-place --json
//   cohort_bench --list                                    # lock names
//   cohort_bench --list-workloads                          # workload names
//
// Workloads come from the bench/workload.hpp registry (the paper's three
// evaluation applications: cs, kv, alloc); the usage text, the
// --list-workloads listing and the name validation all enumerate the
// descriptors, so those stay in sync automatically -- only the per-flag
// option parsing below needs a hand-written branch per new flag.  Emits one
// JSON record per
// (lock, repetition) -- a single object for one run, a JSON array otherwise
// -- shaped for the BENCH_*.json trajectory files (see
// scripts/run_bench_matrix.sh).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "bench/workload.hpp"
#include "locks/registry.hpp"
#include "numa/topology.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --workload W      %s (default cs)\n"
      "  --lock NAME       lock to drive (default C-BO-MCS); repeatable\n"
      "  --all             run every registry lock\n"
      "  --list            print the registry lock names and exit\n"
      "  --list-locks [FAMILY]\n"
      "                    print the full lock descriptors (family, caps,\n"
      "                    honoured knobs), optionally one family only,\n"
      "                    and exit\n"
      "  --list-workloads  print the registered workloads and their flags\n"
      "  --threads N       worker threads (default 4)\n"
      "  --duration S      measured seconds per run (default 1.0)\n"
      "  --warmup S        warmup seconds before measuring (default 0.1)\n"
      "  --windows N       telemetry windows over the measured run\n"
      "                    (default 8; 0 = boundary samples only)\n"
      "  --reps N          repetitions per lock (default 1)\n"
      "  --clusters N      override cluster count (default: discovered)\n"
      "  --pass-limit N    cohort may-pass-local bound (default 64)\n"
      "  --fission-limit N   -fp fast-path disengage threshold (default:\n"
      "                      COHORT_FISSION_LIMIT env, else 8)\n"
      "  --reengage-drains N -fp re-engage threshold (default:\n"
      "                      COHORT_REENGAGE_DRAINS env, else 4)\n"
      "  --gcr-min-active N  gcr- tuner floor (default:\n"
      "                      COHORT_GCR_MIN_ACTIVE env, else 1)\n"
      "  --gcr-max-active N  gcr- tuner ceiling (default:\n"
      "                      COHORT_GCR_MAX_ACTIVE env, else online CPUs)\n"
      "  --gcr-rotation N    gcr- releases between fairness rotations\n"
      "                      (default: COHORT_GCR_ROTATION env, else 1024)\n"
      "  --gcr-tune-window N gcr- releases per hysteresis tuning window\n"
      "                      (default: COHORT_GCR_TUNE_WINDOW env, else 8192)\n"
      "  --net-host H      server address for --smoke/--drive (default\n"
      "                    127.0.0.1)\n"
      "  --net-port P      server port for --smoke/--drive (required)\n"
      "  --no-pin          skip CPU pinning\n"
      "  --json            emit JSON instead of a text summary\n",
      argv0, cohort::bench::workload_names_joined().c_str());
  for (const auto& w : cohort::bench::all_workloads()) {
    std::fprintf(stderr, "workload %s -- %s\n", w.name, w.summary);
    for (const auto& f : w.flags)
      std::fprintf(stderr, "  %-17s [%s] %s\n", f.flag, w.name, f.help);
  }
}

// One descriptor per line, machine-greppable:
//   name<TAB>family<TAB>cap,cap,...<TAB>knob,knob<TAB>summary
// scripts/run_bench_matrix.sh awks this to cross-check sweep coverage.
// A non-empty family filter prints only that family; unknown families fail
// listing the valid ones (mirroring the unknown-lock diagnostic).
int list_locks(const std::string& family) {
  if (!family.empty()) {
    bool known = false;
    std::string families;
    for (const auto& d : cohort::reg::all_locks()) {
      const std::string f = cohort::reg::to_string(d.family);
      if (f == family) known = true;
      if (families.find(f) == std::string::npos) {
        if (!families.empty()) families += ", ";
        families += f;
      }
    }
    if (!known) {
      std::fprintf(stderr, "unknown lock family '%s' (families: %s)\n",
                   family.c_str(), families.c_str());
      return 2;
    }
  }
  for (const auto& d : cohort::reg::all_locks()) {
    if (!family.empty() && family != cohort::reg::to_string(d.family))
      continue;
    std::string caps;
    auto cap = [&](bool on, const char* name) {
      if (!on) return;
      if (!caps.empty()) caps += ",";
      caps += name;
    };
    cap(d.caps.abortable, "abortable");
    cap(d.caps.fp_composable, "fp_composable");
    cap(d.caps.cluster_aware, "cluster_aware");
    cap(d.caps.reports_batch_stats, "reports_batch_stats");
    if (caps.empty()) caps = "-";
    std::string knobs;
    if (d.uses_pass_limit) knobs += "pass_limit";
    if (d.uses_fp_knobs) {
      if (!knobs.empty()) knobs += ",";
      knobs += "fp";
    }
    if (d.uses_gcr_knobs) {
      if (!knobs.empty()) knobs += ",";
      knobs += "gcr";
    }
    if (knobs.empty()) knobs = "-";
    std::printf("%s\t%s\t%s\t%s\t%s\n", d.name.c_str(),
                cohort::reg::to_string(d.family), caps.c_str(), knobs.c_str(),
                d.summary.c_str());
  }
  return 0;
}

void list_workloads() {
  for (const auto& w : cohort::bench::all_workloads()) {
    std::printf("%s -- %s\n", w.name, w.summary);
    std::printf("  audit: %s\n", w.audit);
    for (const auto& f : w.flags)
      std::printf("  %-17s %s\n", f.flag, f.help);
  }
}

bool parse_unsigned(const char* s, unsigned long long& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && out >= 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  cohort::bench::bench_config cfg;
  std::vector<std::string> locks;
  unsigned reps = 1;
  bool run_all = false;
  bool emit_json = false;
  bool smoke = false;
  bool drive = false;
  std::string net_host = "127.0.0.1";
  unsigned long long net_port = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    unsigned long long n = 0;
    double d = 0.0;
    if (arg == "--lock") {
      locks.emplace_back(next());
    } else if (arg == "--workload") {
      cfg.workload = next();
      // Fail fast, listing the registered names -- never default silently.
      if (!cohort::bench::is_workload_name(cfg.workload)) {
        std::fprintf(stderr,
                     "%s: unknown workload '%s' (registered: %s; see "
                     "--list-workloads)\n",
                     argv[0], cfg.workload.c_str(),
                     cohort::bench::workload_names_joined().c_str());
        return 2;
      }
    } else if (arg == "--all") {
      run_all = true;
    } else if (arg == "--list") {
      for (const auto& name : cohort::reg::all_lock_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else if (arg == "--list-locks") {
      // Optional family filter: consume the next argv unless it is a flag.
      std::string family;
      if (i + 1 < argc && argv[i + 1][0] != '-') family = argv[++i];
      return list_locks(family);
    } else if (arg == "--list-workloads") {
      list_workloads();
      return 0;
    } else if (arg == "--threads" && parse_unsigned(next(), n) && n > 0) {
      cfg.threads = static_cast<unsigned>(n);
    } else if (arg == "--duration" && parse_double(next(), d)) {
      cfg.duration_s = d;
    } else if (arg == "--warmup" && parse_double(next(), d)) {
      cfg.warmup_s = d;
    } else if (arg == "--cs-work" && parse_unsigned(next(), n)) {
      cfg.cs_work = static_cast<unsigned>(n);
    } else if (arg == "--non-cs-work" && parse_unsigned(next(), n)) {
      cfg.non_cs_work = static_cast<unsigned>(n);
    } else if (arg == "--shards" && parse_unsigned(next(), n) && n > 0) {
      cfg.shards = static_cast<std::size_t>(n);
    } else if (arg == "--get-ratio" && parse_double(next(), d) && d <= 1.0) {
      cfg.get_ratio = d;
    } else if (arg == "--zipf" && parse_double(next(), d)) {
      cfg.zipf_theta = d;
    } else if (arg == "--keyspace" && parse_unsigned(next(), n) && n > 0) {
      cfg.keyspace = static_cast<std::size_t>(n);
    } else if (arg == "--value-bytes" && parse_unsigned(next(), n)) {
      cfg.value_bytes = static_cast<std::size_t>(n);
    } else if (arg == "--buckets" && parse_unsigned(next(), n) && n > 0) {
      cfg.kv_buckets = static_cast<std::size_t>(n);
    } else if (arg == "--max-items" && parse_unsigned(next(), n)) {
      cfg.kv_max_items = static_cast<std::size_t>(n);
    } else if (arg == "--numa-place") {
      cfg.numa_place = true;
    } else if (arg == "--io-threads" && parse_unsigned(next(), n) && n > 0) {
      cfg.net_io_threads = static_cast<unsigned>(n);
    } else if (arg == "--net-pin") {
      cfg.net_pin_io = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--drive") {
      drive = true;
    } else if (arg == "--net-fault") {
      cfg.net_fault_spec = next();
    } else if (arg == "--net-idle-ms" && parse_unsigned(next(), n)) {
      cfg.net_idle_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--net-lifetime-ms" && parse_unsigned(next(), n)) {
      cfg.net_conn_lifetime_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--net-max-requests" && parse_unsigned(next(), n)) {
      cfg.net_max_requests = n;
    } else if (arg == "--net-max-conns" && parse_unsigned(next(), n)) {
      cfg.net_max_conns = static_cast<unsigned>(n);
    } else if (arg == "--net-op-timeout-ms" && parse_unsigned(next(), n)) {
      cfg.net_op_timeout_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--net-retries" && parse_unsigned(next(), n)) {
      cfg.net_retries = static_cast<unsigned>(n);
    } else if (arg == "--net-drain-ms" && parse_unsigned(next(), n) && n > 0) {
      cfg.net_drain_deadline_ms = static_cast<std::uint32_t>(n);
    } else if (arg == "--net-host") {
      net_host = next();
    } else if (arg == "--net-port" && parse_unsigned(next(), n) &&
               n <= 65535) {
      net_port = n;
    } else if (arg == "--fission-limit" && parse_unsigned(next(), n) &&
               n > 0) {
      cfg.fission_limit = static_cast<std::uint32_t>(n);
    } else if (arg == "--reengage-drains" && parse_unsigned(next(), n) &&
               n > 0) {
      cfg.reengage_drains = static_cast<std::uint32_t>(n);
    } else if (arg == "--gcr-min-active" && parse_unsigned(next(), n) &&
               n > 0) {
      cfg.gcr_min_active = static_cast<std::uint32_t>(n);
    } else if (arg == "--gcr-max-active" && parse_unsigned(next(), n) &&
               n > 0) {
      cfg.gcr_max_active = static_cast<std::uint32_t>(n);
    } else if (arg == "--gcr-rotation" && parse_unsigned(next(), n) && n > 0) {
      cfg.gcr_rotation = static_cast<std::uint32_t>(n);
    } else if (arg == "--gcr-tune-window" && parse_unsigned(next(), n) &&
               n > 0) {
      cfg.gcr_tune_window = static_cast<std::uint32_t>(n);
    } else if (arg == "--size-zipf" && parse_double(next(), d)) {
      cfg.alloc_size_zipf = d;
    } else if (arg == "--alloc-min" && parse_unsigned(next(), n) && n > 0) {
      cfg.alloc_min = static_cast<std::size_t>(n);
    } else if (arg == "--alloc-max" && parse_unsigned(next(), n) && n > 0) {
      cfg.alloc_max = static_cast<std::size_t>(n);
    } else if (arg == "--working-set" && parse_unsigned(next(), n) && n > 0) {
      cfg.working_set = static_cast<std::size_t>(n);
    } else if (arg == "--arena-mb" && parse_unsigned(next(), n) && n > 0) {
      cfg.arena_mb = static_cast<std::size_t>(n);
    } else if (arg == "--windows" && parse_unsigned(next(), n)) {
      cfg.snap_windows = static_cast<unsigned>(n);
    } else if (arg == "--reps" && parse_unsigned(next(), n) && n > 0) {
      reps = static_cast<unsigned>(n);
    } else if (arg == "--clusters" && parse_unsigned(next(), n)) {
      cfg.clusters = static_cast<unsigned>(n);
    } else if (arg == "--pass-limit" && parse_unsigned(next(), n)) {
      cfg.pass_limit = n;
    } else if (arg == "--patience-us" && parse_unsigned(next(), n)) {
      cfg.patience_us = n;
    } else if (arg == "--no-pin") {
      cfg.pin = false;
    } else if (arg == "--json") {
      emit_json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: bad argument '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  if (smoke) {
    // Scripted protocol exchange against an externally started server --
    // the CI loopback smoke job's client half.
    if (cfg.workload != "kvnet") {
      std::fprintf(stderr, "%s: --smoke requires --workload kvnet\n",
                   argv[0]);
      return 2;
    }
    if (net_port == 0) {
      std::fprintf(stderr, "%s: --smoke requires --net-port\n", argv[0]);
      return 2;
    }
    return cohort::bench::run_kvnet_smoke(
        net_host, static_cast<std::uint16_t>(net_port));
  }

  if (drive) {
    // Sustained best-effort load against an externally started server that
    // may shed, stall, or die mid-run -- the chaos script's client half.
    if (cfg.workload != "kvnet") {
      std::fprintf(stderr, "%s: --drive requires --workload kvnet\n",
                   argv[0]);
      return 2;
    }
    if (net_port == 0) {
      std::fprintf(stderr, "%s: --drive requires --net-port\n", argv[0]);
      return 2;
    }
    return cohort::bench::run_kvnet_drive(
        net_host, static_cast<std::uint16_t>(net_port), cfg);
  }

  if (run_all)
    locks = cohort::reg::all_lock_names();
  else if (locks.empty())
    locks.push_back(cfg.lock_name);

  for (const auto& name : locks) {
    if (!cohort::reg::is_lock_name(name)) {
      std::fprintf(stderr, "%s: %s\n", argv[0],
                   cohort::reg::unknown_lock_message(name).c_str());
      return 2;
    }
  }

  std::vector<cohort::bench::json> records;
  bool all_ok = true;
  for (const auto& name : locks) {
    cfg.lock_name = name;
    for (unsigned r = 0; r < reps; ++r) {
      cohort::bench::bench_result res;
      try {
        res = cohort::bench::run_bench(cfg);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
      }
      if (!res.mutual_exclusion_ok) all_ok = false;
      if (emit_json)
        records.push_back(cohort::bench::to_json(res));
      else
        std::printf("%s\n", cohort::bench::to_text(res).c_str());
    }
  }

  if (emit_json) {
    if (records.size() == 1) {
      std::printf("%s\n", records.front().dump(2).c_str());
    } else {
      cohort::bench::json arr = cohort::bench::json::array();
      for (auto& r : records) arr.push(std::move(r));
      std::printf("%s\n", arr.dump(2).c_str());
    }
  }
  if (!all_ok) {
    std::fprintf(stderr, "%s: mutual-exclusion audit FAILED\n", argv[0]);
    return 1;
  }
  return 0;
}
