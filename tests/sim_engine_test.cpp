// Engine and memory-model tests: virtual-time semantics, coherence-state
// transitions, miss counting, waiting (including the lost-wakeup regression)
// and determinism.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/memory.hpp"
#include "sim/task.hpp"

namespace sim {
namespace {

config test_cfg() {
  config c;
  c.clusters = 4;
  return c;
}

TEST(Engine, DelayAdvancesVirtualTime) {
  engine eng(test_cfg());
  auto& t = eng.add_thread(0);
  eng.spawn([](thread_ctx& th) -> task<void> {
    co_await th.eng->delay(1000);
    co_await th.eng->delay(500);
  }(t));
  eng.run();
  EXPECT_EQ(eng.now(), 1500u);
}

TEST(Engine, EventsFireInTimeThenInsertionOrder) {
  engine eng(test_cfg());
  std::vector<int> order;
  auto mk = [&order, &eng](int id, tick d) -> task<void> {
    co_await eng.delay(d);
    order.push_back(id);
  };
  auto& t = eng.add_thread(0);
  (void)t;
  eng.spawn(mk(1, 100));
  eng.spawn(mk(2, 50));
  eng.spawn(mk(3, 100));  // same time as 1, spawned later
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

TEST(Engine, HardStopBoundsRun) {
  engine eng(test_cfg());
  auto& t = eng.add_thread(0);
  eng.spawn([](thread_ctx& th) -> task<void> {
    for (;;) co_await th.eng->delay(1000);
  }(t));
  eng.run(10'000);
  EXPECT_LE(eng.now(), 10'000u);
}

// ---- calendar queue edges ----------------------------------------------------

// An event scheduled from far away (the heap) and one scheduled later from
// near by (a bucket) for the same tick fire in scheduling order.
TEST(Engine, FarEventFiresBeforeNearEventOnSameTick) {
  engine eng(test_cfg());
  const tick due = engine::near_window + 1000;
  std::vector<std::pair<int, tick>> fired;
  auto near_by = [&]() -> task<void> {
    co_await eng.delay(2000);
    co_await eng.delay(due - 2000);  // near: scheduled at 2000
    fired.emplace_back(2, eng.now());
  };
  auto far_away = [&]() -> task<void> {
    co_await eng.delay(due);  // far: scheduled at 0
    fired.emplace_back(1, eng.now());
  };
  eng.spawn(near_by());
  eng.spawn(far_away());
  eng.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, tick>>{{1, due}, {2, due}}));
}

// One tick inside the near window goes to a bucket (which, from a
// non-aligned now(), wraps round the ring); exactly at the edge goes to the
// heap.  Both land on their exact tick, and a bucket event for the edge
// tick fires after the heap event scheduled before it.
TEST(Engine, EventsLandExactlyAtNearWindowEdges) {
  engine eng(test_cfg());
  constexpr tick w = engine::near_window;
  std::vector<std::pair<int, tick>> fired;
  auto mk = [&](int id, tick first, tick then) -> task<void> {
    co_await eng.delay(first);
    co_await eng.delay(then);
    fired.emplace_back(id, eng.now());
  };
  eng.spawn(mk(1, 3000, w - 1));  // bucket, one tick inside the window
  eng.spawn(mk(2, 3000, w));      // heap, exactly at the edge
  eng.spawn(mk(3, 3001, w - 1));  // bucket, same tick as 2
  eng.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, tick>>{
                       {1, 3000 + w - 1}, {2, 3000 + w}, {3, 3000 + w}}));
}

// A lone coroutine continues inline (no other event is queued), but never
// past the run's hard stop; the next run() picks up where it stopped.
TEST(Engine, InlineContinuationRespectsHardStop) {
  engine eng(test_cfg());
  auto& t = eng.add_thread(0);
  std::vector<tick> delays;
  eng.spawn([](thread_ctx& th, std::vector<tick>& seen) -> task<void> {
    for (;;) {
      co_await th.eng->delay(100);
      seen.push_back(th.eng->now());
    }
  }(t, delays));
  eng.run(1050);
  EXPECT_EQ(eng.now(), 1000u);
  ASSERT_EQ(delays.size(), 10u);
  eng.run(2000);
  EXPECT_EQ(eng.now(), 2000u);
  ASSERT_EQ(delays.size(), 20u);
  for (std::size_t i = 0; i < delays.size(); ++i)
    EXPECT_EQ(delays[i], 100 * (i + 1));

  // Memory accesses take the same path: local hits every local_hit ns.
  engine eng2(test_cfg());
  auto& t2 = eng2.add_thread(0);
  atom b(eng2, 0);
  std::vector<tick> accesses;
  eng2.spawn([](thread_ctx& th, atom& x,
                std::vector<tick>& seen) -> task<void> {
    for (;;) {
      co_await x.fetch_add(th, 1);
      seen.push_back(th.eng->now());
    }
  }(t2, b, accesses));
  const tick cold = eng2.cfg().cold_miss, hit = eng2.cfg().local_hit;
  eng2.run(cold + 10 * hit + hit / 2);
  EXPECT_EQ(b.peek(), 11u);
  eng2.run(cold + 20 * hit);
  EXPECT_EQ(b.peek(), 21u);
  ASSERT_EQ(accesses.size(), 21u);
  for (std::size_t i = 0; i < accesses.size(); ++i)
    EXPECT_EQ(accesses[i], cold + hit * i);
}

TEST(EngineDeathTest, SchedulingInThePastAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "asserts are compiled out (NDEBUG)";
#endif
  EXPECT_DEATH(
      {
        engine eng(test_cfg());
        eng.spawn([](engine& e) -> task<void> { co_await e.delay(1000); }(eng));
        eng.run();
        eng.schedule_resume(500, std::noop_coroutine());
      },
      "past");
}

TEST(Memory, AtomOpsHaveSequentialSemantics) {
  engine eng(test_cfg());
  auto& t = eng.add_thread(0);
  atom a(eng, 5);
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    EXPECT_EQ(co_await x.load(th), 5u);
    co_await x.store(th, 7);
    EXPECT_EQ(co_await x.exchange(th, 9), 7u);
    EXPECT_EQ(co_await x.fetch_add(th, 3), 9u);
    auto r1 = co_await x.cas(th, 12, 20);
    EXPECT_TRUE(r1.ok);
    auto r2 = co_await x.cas(th, 12, 30);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.old_value, 20u);
  }(t, a));
  eng.run();
  EXPECT_EQ(a.peek(), 20u);
}

TEST(Memory, LocalHitVsRemoteMissCosts) {
  engine eng(test_cfg());
  auto& t0 = eng.add_thread(0);
  auto& t1 = eng.add_thread(1);
  atom a(eng, 0);
  // t0 writes (cold), then re-writes (local hit).  t1 then writes: a
  // coherence miss served remotely.
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    co_await x.store(th, 1);
    co_await x.store(th, 2);
  }(t0, a));
  eng.run();
  EXPECT_EQ(eng.memstats.cold_misses, 1u);
  EXPECT_EQ(eng.memstats.coherence_misses, 0u);
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    co_await x.store(th, 3);
  }(t1, a));
  eng.run();
  EXPECT_EQ(eng.memstats.coherence_misses, 1u);
}

TEST(Memory, ReadSharingThenInvalidationFanOut) {
  engine eng(test_cfg());
  auto& t0 = eng.add_thread(0);
  auto& t1 = eng.add_thread(1);
  auto& t2 = eng.add_thread(2);
  atom a(eng, 0);
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    co_await x.store(th, 1);
  }(t0, a));
  eng.run();
  // Two remote readers -> 2 coherence misses; line becomes Shared.
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    (void)co_await x.load(th);
  }(t1, a));
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    (void)co_await x.load(th);
  }(t2, a));
  eng.run();
  EXPECT_EQ(eng.memstats.coherence_misses, 2u);
  // A reader in the owning cluster hits locally.
  auto& t0b = eng.add_thread(0);
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    (void)co_await x.load(th);
  }(t0b, a));
  eng.run();
  EXPECT_EQ(eng.memstats.coherence_misses, 2u);
}

TEST(Memory, WaitUntilWokenByWrite) {
  engine eng(test_cfg());
  auto& waiter = eng.add_thread(0);
  auto& writer = eng.add_thread(1);
  atom a(eng, 0);
  std::uint64_t observed = 0;
  eng.spawn([](thread_ctx& th, atom& x, std::uint64_t& out) -> task<void> {
    out = co_await x.wait_until(
        th, [](std::uint64_t v, std::uint64_t) { return v == 42; }, 0);
  }(waiter, a, observed));
  eng.spawn([](thread_ctx& th, atom& x) -> task<void> {
    co_await th.eng->delay(5000);
    co_await x.store(th, 41);  // spurious wake: pred still false
    co_await th.eng->delay(5000);
    co_await x.store(th, 42);
  }(writer, a));
  eng.run();
  EXPECT_EQ(observed, 42u);
  EXPECT_GE(eng.now(), 10'000u);
}

TEST(Memory, WaitUntilForTimesOut) {
  engine eng(test_cfg());
  auto& waiter = eng.add_thread(0);
  atom a(eng, 0);
  bool timed_out = false;
  eng.spawn([](thread_ctx& th, atom& x, bool& out) -> task<void> {
    auto r = co_await x.wait_until_for(
        th, [](std::uint64_t v, std::uint64_t) { return v == 1; }, 0, 3000);
    out = !r.has_value();
  }(waiter, a, timed_out));
  eng.run();
  EXPECT_TRUE(timed_out);
  EXPECT_GE(eng.now(), 3000u);
}

// Regression: a waiter that loads a stale value and registers while a write
// is in flight must still be woken (wakes fire at write *completion*).
// Ping-pong would hang (engine would drain with a suspended waiter) if the
// wake were scheduled at issue time.
TEST(Memory, PingPongNeverLosesWakeups) {
  engine eng(test_cfg());
  auto& t0 = eng.add_thread(0);
  auto& t1 = eng.add_thread(1);
  atom a(eng, 0);
  int rounds0 = 0, rounds1 = 0;
  auto pinger = [](thread_ctx& th, atom& x, std::uint64_t mine,
                   std::uint64_t other, int& rounds) -> task<void> {
    for (int i = 0; i < 2000; ++i) {
      co_await x.wait_until(
          th, [](std::uint64_t v, std::uint64_t want) { return v == want; },
          mine);
      co_await x.store(th, other);
      ++rounds;
    }
  };
  eng.spawn(pinger(t0, a, 0, 1, rounds0));
  eng.spawn(pinger(t1, a, 1, 0, rounds1));
  eng.run();
  EXPECT_EQ(rounds0, 2000);
  EXPECT_EQ(rounds1, 2000);
}

TEST(Memory, InterconnectQueuesUnderBurst) {
  engine eng(test_cfg());
  // 8 remote transfers issued back-to-back occupy the channel serially.
  const tick t0 = 1000;
  tick last = 0;
  for (int i = 0; i < 8; ++i) last = eng.interconnect_transfer(t0);
  // The 8th transfer starts after 7 service slots of queueing.
  EXPECT_GE(last, t0 + 7 * eng.cfg().interconnect_service +
                      eng.cfg().remote_wire);
  EXPECT_EQ(eng.interconnect_busy_time(),
            8 * eng.cfg().interconnect_service);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    engine eng(test_cfg());
    auto& t0 = eng.add_thread(0);
    auto& t1 = eng.add_thread(2);
    auto a = std::make_unique<atom>(eng, 0);
    auto worker = [](thread_ctx& th, atom& x) -> task<void> {
      for (int i = 0; i < 500; ++i) {
        co_await x.fetch_add(th, 1);
        co_await th.eng->delay(th.rng.next_range(100) + 1);
      }
    };
    eng.spawn(worker(t0, *a));
    eng.spawn(worker(t1, *a));
    eng.run();
    return std::pair<tick, std::uint64_t>{eng.now(),
                                          eng.memstats.coherence_misses};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Memory, DatalineChargesWithoutValue) {
  engine eng(test_cfg());
  auto& t0 = eng.add_thread(0);
  auto& t1 = eng.add_thread(1);
  dataline d(eng);
  eng.spawn([](thread_ctx& th, dataline& dl) -> task<void> {
    co_await dl.write(th);
    co_await dl.read(th);
  }(t0, d));
  eng.run();
  const auto before = eng.memstats.coherence_misses;
  eng.spawn([](thread_ctx& th, dataline& dl) -> task<void> {
    co_await dl.write(th);
  }(t1, d));
  eng.run();
  EXPECT_EQ(eng.memstats.coherence_misses, before + 1);
}

}  // namespace
}  // namespace sim
