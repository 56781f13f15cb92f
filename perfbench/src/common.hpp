// Shared plumbing for the repository benchmark: command-line options, the
// result record every workload fills, the benchmark's own seeded RNG and
// Zipf sampler (kept here, not borrowed from src/util, so a change to the
// program cannot change the load it is measured by), a mergeable latency
// histogram, and process-level probes (getrusage, CPU pinning).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // (name, value, unit), printed in insertion order.
  std::vector<std::tuple<std::string, double, std::string>> metrics;
  // Provenance/config facts, already JSON-encoded values.
  std::vector<std::pair<std::string, std::string>> info;
  // One line per failed output check; printed to stderr.
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.emplace_back(std::move(name), value, std::move(unit));
  }
  void note(std::string key, std::string json_value) {
    info.emplace_back(std::move(key), std::move(json_value));
  }
  // Records a failed output check; the run reports correct=false.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    problems.push_back(what);
  }
};

// Phase lengths for a run of `seconds`: a warm-up, then either the closed
// and open loops (0.6 / 0.4), or, traced, an untraced closed loop followed
// by the traced closed and open loops, a third each.
struct phases {
  double warm, closed, open;
};

inline phases split(double seconds, bool trace) {
  const double warm = std::min(1.0, 0.1 * seconds);
  if (trace) return {warm, seconds / 3, seconds / 3};
  return {warm, 0.6 * seconds, 0.4 * seconds};
}

result run_kvnet_uniform(const options& o);
result run_kv_hot(const options& o);
result run_sim_numa(const options& o);

// ---- time -------------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// ---- seeded inputs ----------------------------------------------------------

inline std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class rng {
 public:
  explicit rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return splitmix64(s_); }
  // Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

// Rank sampler over [0, n): P(rank r) proportional to 1/(r+1)^theta.
// theta 0 is uniform.
class zipf {
 public:
  zipf(std::size_t n, double theta) : cdf_(n) {
    double sum = 0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(rng& g) const {
    const double u = g.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

// ---- latency histogram ------------------------------------------------------

// Log-linear buckets over nanoseconds: exact below 128 ns, then 64
// sub-buckets per power of two (under 1.6% relative width).  Percentiles
// interpolate linearly inside a bucket, so they are continuous in the data
// rather than snapped to bucket edges.  Not thread-safe: one writer, read
// after the writer is joined (or serialised by the lock being timed).
class histogram {
 public:
  void record(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    ++counts_[index(v)];
    ++n_;
    sum_ += static_cast<double>(v);
  }

  void merge(const histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }

  // q in [0, 1]; 0 for an empty histogram.
  double quantile(double q) const {
    if (n_ == 0) return 0;
    const double rank = q * static_cast<double>(n_);
    double cum = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (cum + c >= rank) {
        const double frac = std::clamp((rank - cum) / c, 0.0, 1.0);
        return lower(i) + frac * width(i);
      }
      cum += c;
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr unsigned kLinear = 128;  // exact buckets 0..127
  static constexpr unsigned kSubBits = 6;   // 64 sub-buckets per octave
  static constexpr unsigned kMaxExp = 42;   // ~73 minutes
  static constexpr std::size_t kBuckets =
      kLinear + (kMaxExp - 7 + 1) * (1u << kSubBits);

  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
    if (e > kMaxExp) return kBuckets - 1;
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return kLinear + (e - 7) * (1u << kSubBits) + sub;
  }
  static double lower(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t k = i - kLinear;
    const unsigned e = 7 + static_cast<unsigned>(k >> kSubBits);
    const std::uint64_t sub = k & ((1u << kSubBits) - 1);
    return static_cast<double>(((1ull << kSubBits) + sub) << (e - kSubBits));
  }
  static double width(std::size_t i) {
    if (i < kLinear) return 1.0;
    const unsigned e = 7 + static_cast<unsigned>((i - kLinear) >> kSubBits);
    return static_cast<double>(1ull << (e - kSubBits));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

// Latencies of one load phase, split into equal windows by completion
// time.  Results are the median over windows, so a burst of outside load on
// a shared machine moves one window rather than the reported figure.
class phase_record {
 public:
  phase_record(std::int64_t start_ns, std::int64_t window_ns,
               std::size_t windows)
      : start_(start_ns), window_(window_ns), windows_(windows) {}

  // Drops samples completing outside [start, start + windows * window).
  void record(std::int64_t end_ns, std::int64_t latency_ns) {
    if (end_ns < start_) return;
    const auto w = static_cast<std::size_t>((end_ns - start_) / window_);
    if (w < windows_.size()) windows_[w].record(latency_ns);
  }

  void merge(const phase_record& o) {
    for (std::size_t w = 0; w < windows_.size(); ++w)
      windows_[w].merge(o.windows_[w]);
  }

  histogram all() const {
    histogram h;
    for (const auto& w : windows_) h.merge(w);
    return h;
  }

  struct summary {
    double ops_s = 0;    // median window throughput
    double p50_us = 0;   // median window p50
    double tail_us = 0;  // median window tail quantile
    std::uint64_t samples = 0;
  };
  summary summarize(double tail_q) const;

 private:
  std::int64_t start_;
  std::int64_t window_;
  std::vector<histogram> windows_;
};

// Median of a sample (0 when empty).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Coefficient of variation (stddev / mean) of per-thread op counts.
inline double cv(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double mean = 0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  if (mean == 0) return 0;
  double var = 0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  return std::sqrt(var) / mean;
}

inline phase_record::summary phase_record::summarize(double tail_q) const {
  std::vector<double> ops, p50, tail;
  summary s;
  for (const auto& w : windows_) {
    ops.push_back(static_cast<double>(w.count()) /
                  (static_cast<double>(window_) * 1e-9));
    p50.push_back(w.quantile(0.50) * 1e-3);
    tail.push_back(w.quantile(tail_q) * 1e-3);
    s.samples += w.count();
  }
  s.ops_s = median(ops);
  s.p50_us = median(p50);
  s.tail_us = median(tail);
  return s;
}

// ---- process probes ---------------------------------------------------------

struct usage {
  double cpu_s = 0;            // user + system, all threads
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary
};
usage process_usage();
double peak_rss_mb();
unsigned online_cpus();

// Restricts the calling thread to the given CPUs; false when impossible
// (fewer CPUs online, or sched_setaffinity refused).
bool pin_to(const std::vector<int>& cpus);

// Spin until the steady clock reaches t_ns.
void spin_until(std::int64_t t_ns);

}  // namespace perfbench
