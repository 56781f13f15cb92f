// Workload-level tests: lbench / kvsim / mallocsim sanity, determinism, and
// the headline ordering properties the paper's figures rest on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/apps/kvsim.hpp"
#include "sim/apps/lbench.hpp"
#include "sim/apps/mallocsim.hpp"
#include "sim/locks/registry.hpp"

namespace sim {
namespace {

lbench_params quick_lbench(unsigned threads) {
  lbench_params p;
  p.threads = threads;
  p.warmup_ns = 100'000;
  p.duration_ns = 1'000'000;
  return p;
}

class LbenchLocks : public ::testing::TestWithParam<std::string> {};

TEST_P(LbenchLocks, ProducesThroughputAndSaneCounters) {
  const auto r = run_lbench(GetParam(), quick_lbench(16));
  EXPECT_GT(r.throughput_per_sec, 0.0);
  EXPECT_GT(r.total_ops, 0u);
  EXPECT_GE(r.l2_misses_per_cs, 0.0);
  EXPECT_LE(r.migrations_per_cs, 1.0);
  EXPECT_EQ(r.per_thread_ops.size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Fig2, LbenchLocks,
                         ::testing::ValuesIn(fig2_lock_names()));

TEST(Lbench, UnknownLockIsReported) {
  EXPECT_LT(run_lbench("no-such-lock", quick_lbench(2)).throughput_per_sec,
            0.0);
  EXPECT_LT(run_lbench_abortable("MCS", quick_lbench(2)).throughput_per_sec,
            0.0);  // MCS is not in the abortable registry
}

TEST(Lbench, DeterministicRuns) {
  const auto a = run_lbench("C-BO-MCS", quick_lbench(32));
  const auto b = run_lbench("C-BO-MCS", quick_lbench(32));
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_DOUBLE_EQ(a.l2_misses_per_cs, b.l2_misses_per_cs);
}

TEST(Lbench, CohortMigratesLessThanMcs) {
  // The paper's core claim, as a property: at high contention cohort locks
  // migrate across clusters far less often than MCS.
  const auto mcs = run_lbench("MCS", quick_lbench(32));
  const auto cohort = run_lbench("C-TKT-MCS", quick_lbench(32));
  EXPECT_LT(cohort.migrations_per_cs * 4, mcs.migrations_per_cs);
  EXPECT_LT(cohort.l2_misses_per_cs * 2, mcs.l2_misses_per_cs);
}

TEST(Lbench, BatchRespectsPassLimit) {
  auto p = quick_lbench(32);
  p.pass_limit = 4;
  const auto r = run_lbench("C-BO-MCS", p);
  EXPECT_LE(r.avg_batch, 5.0 + 1e-9);
}

TEST(Lbench, UnboundedCohortOutscalesBounded) {
  // §4.1.1: removing the handoff bound buys ~10% throughput at high load
  // (at the cost of gross unfairness).
  auto bounded = quick_lbench(64);
  auto unbounded = quick_lbench(64);
  unbounded.pass_limit = ~std::uint64_t{0};
  const auto rb = run_lbench("C-TKT-MCS", bounded);
  const auto ru = run_lbench("C-TKT-MCS", unbounded);
  EXPECT_GE(ru.throughput_per_sec, rb.throughput_per_sec * 0.99);
}

TEST(LbenchAbortable, AbortRatesAreLowAtModeratePatience) {
  auto p = quick_lbench(32);
  p.patience_ns = 400'000;
  for (const auto& name : fig6_lock_names()) {
    const auto r = run_lbench_abortable(name, p);
    EXPECT_GT(r.total_ops, 0u) << name;
    EXPECT_LT(r.abort_rate, 0.25) << name;
  }
}

TEST(LbenchAbortable, TinyPatienceProducesAborts) {
  auto p = quick_lbench(32);
  p.patience_ns = 300;
  const auto r = run_lbench_abortable("A-CLH", p);
  EXPECT_GT(r.abort_rate, 0.0);
}

// ---- kvsim -------------------------------------------------------------------

kv_params quick_kv(unsigned threads, double get_ratio) {
  kv_params p;
  p.threads = threads;
  p.get_ratio = get_ratio;
  p.warmup_ns = 100'000;
  p.duration_ns = 2'000'000;
  return p;
}

TEST(KvSim, RunsForAllTable1Locks) {
  for (const auto& name : table1_lock_names()) {
    const auto r = run_kv(name, quick_kv(8, 0.5));
    EXPECT_GT(r.ops_per_sec, 0.0) << name;
  }
}

TEST(KvSim, WriteHeavyFavoursNumaAwareLocks) {
  const auto mcs = run_kv("MCS", quick_kv(32, 0.1));
  const auto cohort = run_kv("C-TKT-MCS", quick_kv(32, 0.1));
  EXPECT_GT(cohort.ops_per_sec, mcs.ops_per_sec);
}

TEST(KvSim, ReadHeavyNarrowsTheGap) {
  const auto mcs = run_kv("MCS", quick_kv(32, 0.9));
  const auto cohort = run_kv("C-TKT-MCS", quick_kv(32, 0.9));
  const auto mcs_w = run_kv("MCS", quick_kv(32, 0.1));
  const auto cohort_w = run_kv("C-TKT-MCS", quick_kv(32, 0.1));
  const double read_gap = cohort.ops_per_sec / mcs.ops_per_sec;
  const double write_gap = cohort_w.ops_per_sec / mcs_w.ops_per_sec;
  EXPECT_GT(write_gap, read_gap * 0.98);
}

TEST(KvSim, Deterministic) {
  const auto a = run_kv("C-BO-MCS", quick_kv(16, 0.5));
  const auto b = run_kv("C-BO-MCS", quick_kv(16, 0.5));
  EXPECT_EQ(a.total_ops, b.total_ops);
}

// ---- mallocsim ----------------------------------------------------------------

malloc_params quick_malloc(unsigned threads) {
  malloc_params p;
  p.threads = threads;
  p.warmup_ns = 100'000;
  p.duration_ns = 2'000'000;
  return p;
}

TEST(MallocSim, RunsForAllTable2Locks) {
  for (const auto& name : table2_lock_names()) {
    const auto r = run_malloc(name, quick_malloc(8));
    EXPECT_GT(r.pairs_per_ms, 0.0) << name;
  }
}

TEST(MallocSim, CohortRecyclesBlocksLocally) {
  const auto mcs = run_malloc("MCS", quick_malloc(32));
  const auto cohort = run_malloc("C-BO-MCS", quick_malloc(32));
  EXPECT_GT(cohort.pairs_per_ms, mcs.pairs_per_ms);
  EXPECT_LT(cohort.l2_misses_per_pair, mcs.l2_misses_per_pair);
}

TEST(MallocSim, Deterministic) {
  const auto a = run_malloc("C-TKT-TKT", quick_malloc(16));
  const auto b = run_malloc("C-TKT-TKT", quick_malloc(16));
  EXPECT_EQ(a.total_pairs, b.total_pairs);
}


// ---- golden counts --------------------------------------------------------

// The simulated model, pinned.  The engine is deterministic, so a change to
// the engine alone (event queue, scheduling, frame allocation) must leave
// every count below identical; any reordering of same-tick events shows up
// here.  A change to the memory model, a lock or a workload moves these on
// purpose: re-record them from the new code and say so in the change.
struct golden_lbench {
  const char* lock;
  unsigned threads;
  std::uint64_t total_ops;
  double migrations_per_cs;
  double l2_misses_per_cs;
  std::vector<std::uint64_t> per_thread_ops;
};

const std::vector<golden_lbench>& golden_lbench_runs() {
  static const std::vector<golden_lbench> runs = {
    {"MCS", 16, 1575, 0.84888888888888892, 7.6387301587301586,
     {99, 98, 99, 99, 99, 98, 98, 98, 99, 98, 99, 98, 98, 99, 97, 99}},
    {"MCS", 64, 1593, 0.83605527638190957, 7.5106783919597992,
     {24, 25, 24, 24, 25, 25, 25, 26, 25, 25, 25, 25, 25, 25, 25, 25, 25,
      25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
      25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
      25, 25, 24, 25, 24, 25, 25, 25, 25, 24, 25, 24, 24}},
    {"HBO", 16, 1846, 0.48645720476706394, 4.9962080173347783,
     {70, 135, 112, 138, 77, 120, 109, 154, 97, 151, 126, 112, 101, 124,
      111, 109}},
    {"HBO", 64, 3208, 0.079177057356608474, 3.1499376558603491,
     {1, 2, 196, 2, 2, 2, 196, 3, 6, 9, 176, 2, 6, 3, 192, 2, 8, 5, 183,
      1, 6, 2, 192, 4, 2, 4, 194, 6, 7, 1, 191, 2, 4, 5, 190, 4, 1, 5,
      179, 3, 2, 1, 201, 7, 3, 3, 191, 1, 0, 0, 188, 3, 4, 3, 206, 1, 1,
      1, 181, 7, 3, 7, 195, 0}},
    {"FC-MCS", 16, 1486, 0.88088829071332431, 7.9266487213997312,
     {93, 92, 93, 93, 93, 94, 94, 93, 93, 91, 93, 92, 93, 93, 93, 93}},
    {"FC-MCS", 64, 4119, 0.11699029126213592, 1.0536407766990292,
     {65, 66, 67, 63, 65, 63, 68, 63, 65, 63, 67, 61, 64, 63, 66, 63, 65,
      66, 67, 63, 65, 65, 66, 63, 65, 64, 65, 63, 66, 64, 64, 63, 64, 64,
      65, 62, 64, 64, 65, 63, 65, 64, 67, 63, 64, 64, 65, 61, 64, 66, 66,
      62, 64, 64, 66, 62, 65, 64, 65, 64, 64, 65, 65, 63}},
    {"C-BO-BO", 16, 1769, 0.33898305084745761, 4.9694915254237291,
     {113, 118, 110, 103, 115, 128, 105, 96, 115, 117, 103, 101, 114, 126,
      104, 101}},
    {"C-BO-BO", 64, 3669, 0.013900245298446443, 1.2215862632869992,
     {75, 63, 52, 38, 73, 64, 52, 50, 74, 66, 53, 41, 67, 67, 54, 40, 72,
      55, 52, 39, 79, 58, 52, 42, 72, 62, 43, 42, 71, 63, 51, 45, 72, 63,
      53, 54, 75, 57, 51, 39, 73, 62, 54, 46, 78, 64, 53, 44, 79, 61, 51,
      41, 68, 60, 50, 45, 79, 65, 45, 43, 75, 52, 50, 40}},
    {"C-BO-MCS", 16, 2837, 0.27167019027484146, 2.8139534883720931,
     {163, 197, 179, 174, 168, 193, 177, 175, 163, 189, 178, 174, 161,
      194, 179, 173}},
    {"C-BO-MCS", 64, 4421, 0.023529411764705882, 1.0361990950226245,
     {103, 67, 45, 61, 103, 68, 45, 62, 102, 68, 44, 61, 101, 69, 44, 62,
      101, 71, 45, 64, 103, 70, 47, 63, 103, 66, 42, 63, 103, 70, 43, 62,
      102, 70, 42, 63, 100, 69, 42, 62, 102, 70, 44, 63, 101, 67, 43, 60,
      103, 72, 43, 61, 101, 65, 44, 59, 102, 68, 44, 63, 101, 71, 43, 60}},
  };
  return runs;
}

TEST(GoldenCounts, Lbench) {
  for (const auto& g : golden_lbench_runs()) {
    const auto r = run_lbench(g.lock, quick_lbench(g.threads));
    SCOPED_TRACE(std::string(g.lock) + " t" + std::to_string(g.threads));
    EXPECT_EQ(r.total_ops, g.total_ops);
    EXPECT_EQ(r.per_thread_ops, g.per_thread_ops);
    EXPECT_EQ(r.migrations_per_cs, g.migrations_per_cs);
    EXPECT_EQ(r.l2_misses_per_cs, g.l2_misses_per_cs);
  }
}

TEST(GoldenCounts, KvSim) {
  const auto r = run_kv("C-BO-MCS", quick_kv(16, 0.5));
  EXPECT_EQ(r.total_ops, 805u);
  EXPECT_EQ(r.ops_per_sec, 402500.0);
  EXPECT_EQ(r.l2_misses_per_op, 2.2062111801242237);
}

TEST(GoldenCounts, MallocSim) {
  const auto r = run_malloc("C-TKT-TKT", quick_malloc(16));
  EXPECT_EQ(r.total_pairs, 1780u);
  EXPECT_EQ(r.pairs_per_ms, 890.0);
  EXPECT_EQ(r.l2_misses_per_pair, 5.356741573033708);
}

}  // namespace
}  // namespace sim
