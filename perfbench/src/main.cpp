// The repository benchmark's driver program:
//
//   perfbench --workload <kvnet-uniform|kv-hot|sim-numa> --seed N
//             --seconds S --trace <0|1>
//
// Prints one JSON line of run facts ({"info": ...}), then the result line
// {"correct", "attempted", "failed", "metrics"}.  Failed output checks go to
// stderr and make the exit code 1; bad arguments exit 2.  perfbench/run.py
// builds this program and wraps it with provenance.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

usage process_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  usage u;
  u.cpu_s =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) {
    if (c < 0 || static_cast<unsigned>(c) >= online_cpus()) return false;
    CPU_SET(c, &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

void spin_until(std::int64_t t_ns) {
  while (now_ns() < t_ns) __builtin_ia32_pause();
}

}  // namespace perfbench

namespace {

int usage_error(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <kvnet-uniform|kv-hot|sim-numa> "
               "--seed N --seconds S --trace <0|1>\n",
               why);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::options o;
  std::string trace;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage_error(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") trace = v;
      else return usage_error(("unknown option " + a).c_str());
    } catch (const std::exception&) {
      return usage_error(("bad value for " + a).c_str());
    }
  }
  if (trace != "0" && trace != "1")
    return usage_error("--trace must be 0 or 1");
  o.trace = trace == "1";
  if (!(o.seconds > 0 && o.seconds <= 600))
    return usage_error("--seconds must be in (0, 600]");

  perfbench::result r;
  try {
    if (o.workload == "kvnet-uniform") r = perfbench::run_kvnet_uniform(o);
    else if (o.workload == "kv-hot") r = perfbench::run_kv_hot(o);
    else if (o.workload == "sim-numa") r = perfbench::run_sim_numa(o);
    else return usage_error(("unknown workload " + o.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const auto& [name, value, unit] : r.metrics)
    r.check(std::isfinite(value), name + " is not finite");
  for (const auto& p : r.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());

  std::string info = "{\"info\": {\"workload\": " + json_string(o.workload) +
                     ", \"seed\": " + std::to_string(o.seed) +
                     ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : r.info) info += ", " + json_string(k) + ": " + v;
  std::printf("%s}}\n", info.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : r.metrics) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    out += (first ? "" : ", ") + json_string(name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  return r.correct ? 0 : 1;
}
