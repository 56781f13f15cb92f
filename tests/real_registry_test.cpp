// Real-lock registry tests: every canonical name constructs through both
// dispatch layers, round-trips lock/unlock under 4 threads with mutual
// exclusion intact, and unknown names are rejected.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "locks/registry.hpp"
#include "numa/topology.hpp"

namespace cohort::reg {
namespace {

class RealRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    numa::set_system_topology(numa::topology::synthetic(2));
    numa::reset_round_robin_for_test();
  }
};

TEST_F(RealRegistryTest, NameListsAreConsistent) {
  EXPECT_FALSE(all_lock_names().empty());
  for (const auto& name : all_lock_names()) EXPECT_TRUE(is_lock_name(name));
  for (const auto& name : cohort_lock_names()) EXPECT_TRUE(is_lock_name(name));
  for (const auto& name : abortable_lock_names())
    EXPECT_TRUE(is_lock_name(name));
}

TEST_F(RealRegistryTest, DescriptorsCoverEveryName) {
  // One descriptor per canonical name, same order, find_lock agrees.
  ASSERT_EQ(all_locks().size(), all_lock_names().size());
  for (std::size_t i = 0; i < all_locks().size(); ++i) {
    const lock_descriptor& d = all_locks()[i];
    EXPECT_EQ(d.name, all_lock_names()[i]);
    EXPECT_EQ(find_lock(d.name), &d);
    EXPECT_FALSE(d.summary.empty()) << d.name;
    ASSERT_TRUE(static_cast<bool>(d.make)) << d.name;
    // The descriptor factory is the same path make_lock takes.
    auto lock = d.make({.clusters = 2});
    ASSERT_NE(lock, nullptr) << d.name;
    EXPECT_EQ(lock->name(), d.name);
  }
  EXPECT_EQ(find_lock("NOPE"), nullptr);
}

TEST_F(RealRegistryTest, NameListsMatchDescriptorCaps) {
  // cohort_lock_names / abortable_lock_names are capability filters over the
  // descriptors -- membership must match the flags exactly.
  for (const auto& d : all_locks()) {
    bool in_cohort = false;
    for (const auto& n : cohort_lock_names())
      if (n == d.name) in_cohort = true;
    EXPECT_EQ(in_cohort, d.caps.reports_batch_stats) << d.name;
    bool in_abortable = false;
    for (const auto& n : abortable_lock_names())
      if (n == d.name) in_abortable = true;
    EXPECT_EQ(in_abortable, d.caps.abortable) << d.name;
  }
}

TEST_F(RealRegistryTest, KnobFlagsMatchFamilies) {
  for (const auto& d : all_locks()) {
    // The fast-path hysteresis knobs are honoured by the -fp composites, by
    // gcr wrappers whose INNER is an -fp composite (the knobs pass through
    // the gate to the wrapped lock).
    const bool fp_inner =
        d.name.size() > 3 && d.name.rfind("-fp") == d.name.size() - 3;
    EXPECT_EQ(d.uses_fp_knobs, d.family == lock_family::fp_composite ||
                                   (d.family == lock_family::gcr && fp_inner))
        << d.name;
    // Exactly the gcr wrappers honour the admission knobs, and an admission
    // gate must never be offered as a fissile inner (a fast path outside the
    // gate would bypass admission entirely).
    EXPECT_EQ(d.uses_gcr_knobs, d.family == lock_family::gcr) << d.name;
    if (d.family == lock_family::gcr) {
      EXPECT_FALSE(d.caps.fp_composable) << d.name;
      EXPECT_TRUE(d.caps.reports_batch_stats) << d.name;
    }
    // Cohort compositions honour pass_limit; plain and queue locks must not
    // claim to.
    if (d.family == lock_family::cohort) {
      EXPECT_TRUE(d.uses_pass_limit) << d.name;
    }
    if (d.family == lock_family::plain || d.family == lock_family::queue) {
      EXPECT_FALSE(d.uses_pass_limit) << d.name;
      EXPECT_FALSE(d.caps.fp_composable) << d.name;
      EXPECT_FALSE(d.caps.reports_batch_stats) << d.name;
    }
    // A composite must not itself be offered as a fast-path inner.
    if (d.family == lock_family::fp_composite) {
      EXPECT_FALSE(d.caps.fp_composable) << d.name;
    }
    // Compact locks keep batch stats by design.
    if (d.family == lock_family::compact) {
      EXPECT_TRUE(d.caps.reports_batch_stats) << d.name;
      EXPECT_TRUE(d.caps.fp_composable) << d.name;
    }
  }
}

TEST_F(RealRegistryTest, UnlockReportsReleaseKind) {
  // The unified unlock contract: plain and queue locks report none; every
  // solo release of a batching lock reports global (the lock drained --
  // nobody was waiting).
  for (const auto& d : all_locks()) {
    auto lock = d.make({.clusters = 2});
    ASSERT_NE(lock, nullptr) << d.name;
    auto ctx = lock->make_context();
    lock->lock(ctx);
    const release_kind k = lock->unlock(ctx);
    if (d.caps.reports_batch_stats)
      EXPECT_EQ(k, release_kind::global) << d.name;
    else
      EXPECT_EQ(k, release_kind::none) << d.name;
  }
}

TEST_F(RealRegistryTest, UnknownNamesAreRejected) {
  for (const auto* bad : {"", "mcs", "C-BO", "C-BO-MCS ", "NOPE"}) {
    EXPECT_FALSE(is_lock_name(bad)) << bad;
    EXPECT_EQ(make_lock(bad), nullptr) << bad;
    EXPECT_FALSE(with_lock_type(bad, {}, [](auto) {})) << bad;
  }
}

TEST_F(RealRegistryTest, UnknownNameSuggestionsAreClose) {
  // Case-insensitive prefix match: "c-bo" surfaces the C-BO-* entries.
  const auto pre = suggest_lock_names("c-bo");
  ASSERT_FALSE(pre.empty());
  for (const auto& n : pre) EXPECT_EQ(n.substr(0, 4), "C-BO") << n;
  // A one-edit typo lands on the canonical name first.
  const auto typo = suggest_lock_names("reciprocatng");
  ASSERT_FALSE(typo.empty());
  EXPECT_EQ(typo[0], "reciprocating");
  const auto swapped = suggest_lock_names("C-BO-MSC");
  ASSERT_FALSE(swapped.empty());
  EXPECT_EQ(swapped[0], "C-BO-MCS");
  // Garbage earns no candidates, and the message still points at the list.
  EXPECT_TRUE(suggest_lock_names("qqqqqqqqqqqq").empty());
  const std::string msg = unknown_lock_message("reciprocatng");
  EXPECT_NE(msg.find("unknown lock 'reciprocatng'"), std::string::npos);
  EXPECT_NE(msg.find("'reciprocating'"), std::string::npos);
  EXPECT_NE(unknown_lock_message("qqqqqqqqqqqq").find("--list-locks"),
            std::string::npos);
  // Suggestions never invent names.
  for (const auto& n : suggest_lock_names("gcr-")) EXPECT_TRUE(is_lock_name(n));
}

TEST_F(RealRegistryTest, EveryNameConstructs) {
  for (const auto& name : all_lock_names()) {
    auto lock = make_lock(name, {.clusters = 2, .cohort = {.pass_limit = 16}});
    ASSERT_NE(lock, nullptr) << name;
    EXPECT_EQ(lock->name(), name);
    // Solo round trip.
    auto ctx = lock->make_context();
    lock->lock(ctx);
    lock->unlock(ctx);
  }
}

TEST_F(RealRegistryTest, AbortableFlagMatchesNameList) {
  for (const auto& name : all_lock_names()) {
    auto lock = make_lock(name);
    ASSERT_NE(lock, nullptr) << name;
    bool expected = false;
    for (const auto& a : abortable_lock_names())
      if (a == name) expected = true;
    EXPECT_EQ(lock->abortable(), expected) << name;
  }
}

TEST_F(RealRegistryTest, CohortLocksExposeStats) {
  for (const auto& name : cohort_lock_names()) {
    auto lock = make_lock(name, {.clusters = 2});
    ASSERT_NE(lock, nullptr) << name;
    ASSERT_TRUE(lock->stats().has_value()) << name;
    auto ctx = lock->make_context();
    for (int i = 0; i < 10; ++i) {
      lock->lock(ctx);
      lock->unlock(ctx);
    }
    const auto s = *lock->stats();
    EXPECT_EQ(s.acquisitions, 10u) << name;
    // Solo acquisitions either took the global lock or -- for the -fp
    // variants -- the top-level fast path; never a local handoff.
    EXPECT_EQ(s.global_acquires + s.fast_acquires, 10u) << name;
    EXPECT_EQ(s.local_handoffs, 0u) << name;
    if (s.fast_acquires == 0) {
      EXPECT_GT(s.avg_batch(), 0.0) << name;
    } else {
      // A solo fast-path lock may never touch the global lock at all.
      EXPECT_EQ(s.fast_acquires, 10u) << name;
    }
  }
}

TEST_F(RealRegistryTest, EveryCohortCompositionHasAFastPathVariant) {
  // The fast-path build must cover every fissile-composable lock: a
  // composition added to the registry without its "-fp" twin fails here,
  // not in a downstream latency comparison.  (Keyed on fp_composable, not
  // cohort_lock_names: gcr wrappers report batch stats but deliberately
  // refuse fissile composition.)
  for (const auto& d : all_locks()) {
    if (!d.caps.fp_composable) continue;
    EXPECT_TRUE(is_lock_name(d.name + "-fp")) << d.name;
  }
}

TEST_F(RealRegistryTest, EveryGcrTwinWrapsARegisteredBase) {
  // gcr- names are strictly twins: stripping the prefix must land on a
  // registered lock, and the expected admission-worthy set is covered both
  // ways (every expected base has its gcr- twin; no stray gcr- entries).
  const std::vector<std::string> expected = {
      "gcr-TATAS",        "gcr-C-BO-MCS",      "gcr-C-MCS-MCS",
      "gcr-cna",          "gcr-reciprocating", "gcr-C-BO-MCS-fp",
      "gcr-C-MCS-MCS-fp", "gcr-cna-fp",        "gcr-reciprocating-fp"};
  std::vector<std::string> found;
  for (const auto& d : all_locks()) {
    if (d.family != lock_family::gcr) continue;
    found.push_back(d.name);
    ASSERT_GT(d.name.size(), 4u) << d.name;
    EXPECT_EQ(d.name.substr(0, 4), "gcr-") << d.name;
    EXPECT_TRUE(is_lock_name(d.name.substr(4)))
        << d.name << " wraps an unregistered base";
  }
  EXPECT_EQ(found, expected);
}

TEST_F(RealRegistryTest, EveryNameRoundTripsUnderFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  for (const auto& name : all_lock_names()) {
    auto lock = make_lock(name, {.clusters = 2});
    ASSERT_NE(lock, nullptr) << name;
    long counter = 0;  // non-atomic: the lock is the only synchronisation
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        numa::set_thread_cluster(static_cast<unsigned>(t));
        auto ctx = lock->make_context();
        for (int i = 0; i < kIters; ++i) {
          lock->lock(ctx);
          ++counter;
          lock->unlock(ctx);
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter, static_cast<long>(kThreads) * kIters) << name;
  }
}

TEST_F(RealRegistryTest, AbortableLocksTimeOutWhileHeld) {
  for (const auto& name : abortable_lock_names()) {
    auto lock = make_lock(name, {.clusters = 2});
    ASSERT_NE(lock, nullptr) << name;
    auto holder = lock->make_context();
    lock->lock(holder);
    std::thread waiter([&] {
      numa::set_thread_cluster(1);
      auto ctx = lock->make_context();
      EXPECT_FALSE(lock->try_lock_for(ctx, std::chrono::milliseconds(5)))
          << name;
    });
    waiter.join();
    lock->unlock(holder);
    // The lock must still work after the timeout.
    auto ctx = lock->make_context();
    EXPECT_TRUE(lock->try_lock_for(ctx, std::chrono::milliseconds(100)))
        << name;
    lock->unlock(ctx);
  }
}

TEST_F(RealRegistryTest, HarnessSmokeRunsEveryLock) {
  bench::bench_config cfg;
  cfg.threads = 4;
  cfg.duration_s = 0.02;
  cfg.warmup_s = 0.005;
  cfg.clusters = 2;
  cfg.pin = false;
  for (const auto& name : all_lock_names()) {
    cfg.lock_name = name;
    const auto res = bench::run_bench(cfg);
    EXPECT_TRUE(res.mutual_exclusion_ok) << name;
    // total_ops (the measured window) can legitimately be 0 on a heavily
    // oversubscribed host; whole-run ops are guaranteed by construction.
    EXPECT_GE(res.whole_run_ops, static_cast<std::uint64_t>(cfg.threads))
        << name;
    const auto rec = bench::to_json(res);
    const std::string dumped = rec.dump();
    EXPECT_NE(dumped.find("\"lock\":\"" + name + "\""), std::string::npos);
    EXPECT_NE(dumped.find("throughput_ops_s"), std::string::npos);
  }
  EXPECT_THROW(bench::run_bench(bench::bench_config{.lock_name = "NOPE"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace cohort::reg
