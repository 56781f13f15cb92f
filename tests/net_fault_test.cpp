// The fault-injection seam and the server/client robustness machinery
// (DESIGN.md §10): spec/env parsing, seam install/restore, and -- over real
// loopback sockets -- EMFILE accept backoff, slowloris eviction, overload
// shedding, request caps, graceful and forced drain, client retry, and a
// seeded chaos soak asserting the close-reason accounting identity.  Runs
// under the ASan/UBSan and TSan CI jobs: the injected faults hammer every
// error path the sanitizers can see.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/command.hpp"
#include "net/client.hpp"
#include "net/fault.hpp"
#include "net/io_ops.hpp"
#include "net/server.hpp"
#include "numa/topology.hpp"
#include "util/rng.hpp"

namespace cohort::net {
namespace {

using kvstore::cmd_status;

// Restore the real io_ops table no matter how a test exits.
struct fault_guard {
  explicit fault_guard(const fault_plan& plan) { install_fault_plan(plan); }
  ~fault_guard() { clear_fault_plan(); }
};

struct server_fixture {
  std::unique_ptr<kvstore::any_sharded_store> store;
  std::unique_ptr<kv_server> server;

  explicit server_fixture(server_config cfg = {}) {
    numa::set_system_topology(numa::topology::synthetic(2));
    store = kvstore::make_any_sharded_store("C-TKT-TKT", {.shards = 2});
    if (cfg.io_threads == 0) cfg.io_threads = 2;
    server = std::make_unique<kv_server>(*store, cfg);
    std::string err;
    if (!server->start(&err)) throw std::runtime_error(err);
  }
  ~server_fixture() {
    if (server) server->stop();
  }
};

// connections == shed + closed + timeouts + resets + drained: every
// accepted socket must land in exactly one close-reason bucket.
::testing::AssertionResult accounted(const server_counters& sc) {
  const std::uint64_t sum =
      sc.shed + sc.closed + sc.timeouts + sc.resets + sc.drained;
  if (sc.connections == sum) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "connections=" << sc.connections << " != shed=" << sc.shed
         << " + closed=" << sc.closed << " + timeouts=" << sc.timeouts
         << " + resets=" << sc.resets << " + drained=" << sc.drained;
}

// ---- plan parsing and the seam ----------------------------------------------

TEST(FaultPlan, SpecParses) {
  fault_plan p;
  std::string err;
  ASSERT_TRUE(parse_fault_spec(
      "seed=42,short_read=0.25,short_write=0.5,eintr=0.1,eagain=0.05,"
      "reset=0.01,emfile=0.02,stall=0.03,stall_us=500",
      &p, &err))
      << err;
  EXPECT_EQ(p.seed, 42u);
  EXPECT_DOUBLE_EQ(p.short_read, 0.25);
  EXPECT_DOUBLE_EQ(p.short_write, 0.5);
  EXPECT_DOUBLE_EQ(p.eintr, 0.1);
  EXPECT_DOUBLE_EQ(p.eagain, 0.05);
  EXPECT_DOUBLE_EQ(p.reset, 0.01);
  EXPECT_DOUBLE_EQ(p.emfile, 0.02);
  EXPECT_DOUBLE_EQ(p.stall, 0.03);
  EXPECT_EQ(p.stall_us, 500u);
  EXPECT_TRUE(p.active());
}

TEST(FaultPlan, BadSpecsAreRejectedAndLeaveOutputUntouched) {
  fault_plan p;
  p.seed = 7;
  std::string err;
  EXPECT_FALSE(parse_fault_spec("bogus_key=1", &p, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse_fault_spec("short_read=1.5", &p, &err));  // p > 1
  EXPECT_FALSE(parse_fault_spec("short_read=abc", &p, &err));
  EXPECT_FALSE(parse_fault_spec("short_read", &p, &err));  // no '='
  EXPECT_FALSE(parse_fault_spec("stall_us=0", &p, &err));  // below clamp
  EXPECT_EQ(p.seed, 7u);             // untouched on every failure
  EXPECT_FALSE(p.active());
}

TEST(FaultPlan, EmptySpecIsInactive) {
  fault_plan p;
  std::string err;
  ASSERT_TRUE(parse_fault_spec("", &p, &err)) << err;
  EXPECT_FALSE(p.active());
}

TEST(FaultPlan, EnvBuildsPlan) {
  ::setenv("COHORT_NET_FAULT_SEED", "9", 1);
  ::setenv("COHORT_NET_FAULT_RESET", "0.125", 1);
  ::setenv("COHORT_NET_FAULT_STALL_US", "250", 1);
  const fault_plan p = fault_plan_from_env();
  ::unsetenv("COHORT_NET_FAULT_SEED");
  ::unsetenv("COHORT_NET_FAULT_RESET");
  ::unsetenv("COHORT_NET_FAULT_STALL_US");
  EXPECT_EQ(p.seed, 9u);
  EXPECT_DOUBLE_EQ(p.reset, 0.125);
  EXPECT_EQ(p.stall_us, 250u);
  EXPECT_TRUE(p.active());
  EXPECT_FALSE(fault_plan_from_env().active());  // env cleared
}

TEST(FaultPlan, SeamInstallsAndRestores) {
  const io_ops* real = &io();
  EXPECT_EQ(real, &real_io_ops());
  fault_plan p;
  p.reset = 0.5;
  {
    fault_guard g(p);
    EXPECT_NE(&io(), &real_io_ops());
    EXPECT_DOUBLE_EQ(current_fault_plan().reset, 0.5);
  }
  EXPECT_EQ(&io(), &real_io_ops());
  EXPECT_FALSE(current_fault_plan().active());
}

TEST(FaultPlan, InactivePlanInstallsNothing) {
  install_fault_plan(fault_plan{});  // all-zero probabilities
  EXPECT_EQ(&io(), &real_io_ops());
}

// ---- fault injection over live sockets --------------------------------------

TEST(FaultInject, ShortIoNeverCorruptsData) {
  // Aggressive truncation on both directions: every transfer may be cut to
  // a random prefix, yet the byte streams must reassemble exactly -- the
  // injector only shortens, it never corrupts.
  server_fixture f;
  fault_plan p;
  p.seed = 11;
  p.short_read = 0.6;
  p.short_write = 0.6;
  fault_guard g(p);

  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port())) << cl.last_error();
  std::string blob;
  cohort::xorshift rng(23);
  for (int i = 0; i < 20000; ++i)
    blob.push_back(static_cast<char>(rng.next() & 0xff));
  ASSERT_EQ(cl.set("blob", blob), cmd_status::stored) << cl.last_error();
  std::string out;
  ASSERT_EQ(cl.get("blob", &out), cmd_status::hit) << cl.last_error();
  EXPECT_EQ(out, blob);
  cl.quit();
  const fault_counters& fc = fault_stats();
  EXPECT_GT(fc.short_reads.load() + fc.short_writes.load(), 0u);
}

TEST(FaultInject, EmfileAcceptBackoffRecovers) {
  // An fd-exhaustion storm on accept must not kill the accept loop: while
  // the plan is live new connections starve; once it clears, the parked
  // backoff expires and the very same listener serves again.
  server_config cfg;
  cfg.io_threads = 1;
  server_fixture f(cfg);

  {
    fault_plan p;
    p.seed = 3;
    p.emfile = 1.0;
    fault_guard g(p);
    // TCP-level connect lands in the backlog, but accept4 fails with
    // EMFILE every time, so no reply ever comes.
    memcache_client starved(client_config{.op_timeout_ms = 200});
    if (starved.connect("127.0.0.1", f.server->port())) {
      std::string ver;
      EXPECT_FALSE(starved.version(&ver));
    }
    EXPECT_GT(fault_stats().emfiles.load(), 0u);
  }

  // Plan cleared: the next op must go through (the accept backoff is
  // capped, so recovery is bounded, not wedged).
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port())) << cl.last_error();
  EXPECT_EQ(cl.set("after", "storm"), cmd_status::stored) << cl.last_error();
  cl.quit();
}

// ---- timeouts, shedding, caps -----------------------------------------------

TEST(Harden, SlowlorisIdleConnectionIsEvicted) {
  server_config cfg;
  cfg.idle_timeout_ms = 60;
  server_fixture f(cfg);

  // The read deadline only bounds the test on failure; eviction lands
  // far sooner.
  memcache_client cl(client_config{.op_timeout_ms = 10000});
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  ASSERT_EQ(cl.set("k", "v"), cmd_status::stored);
  // Go silent well past the idle deadline: the wheel must evict us.
  std::string line;
  EXPECT_FALSE(cl.read_line(&line));  // server closed: EOF or reset

  // Eventually-consistent counter read: eviction happens on the sweep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->counters().timeouts == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const server_counters sc = f.server->counters();
  EXPECT_EQ(sc.timeouts, 1u);
  f.server->stop();
  EXPECT_TRUE(accounted(f.server->counters()));
}

TEST(Harden, LifetimeCapEvictsBusyConnection) {
  // Unlike idle eviction, a lifetime cap fires even while the connection
  // is actively making requests.
  server_config cfg;
  cfg.max_conn_lifetime_ms = 80;
  server_fixture f(cfg);

  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool evicted = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cl.set("k", "v") != cmd_status::stored) {
      evicted = true;
      break;
    }
  }
  EXPECT_TRUE(evicted);
  EXPECT_GE(f.server->counters().timeouts, 1u);
  f.server->stop();
  EXPECT_TRUE(accounted(f.server->counters()));
}

TEST(Harden, OverCapConnectionsAreShed) {
  server_config cfg;
  cfg.io_threads = 1;
  cfg.max_conns_per_worker = 1;
  server_fixture f(cfg);

  memcache_client first;
  ASSERT_TRUE(first.connect("127.0.0.1", f.server->port()));
  ASSERT_EQ(first.set("k", "v"), cmd_status::stored);  // accepted + live

  // Over the cap: the server answers SERVER_ERROR busy and closes.
  memcache_client second;
  ASSERT_TRUE(second.connect("127.0.0.1", f.server->port()));
  EXPECT_EQ(second.set("x", "y"), cmd_status::error);
  EXPECT_EQ(second.last_error(), "server busy (shed)");

  // The survivor is untouched.
  std::string out;
  EXPECT_EQ(first.get("k", &out), cmd_status::hit);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->counters().shed == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const server_counters sc = f.server->counters();
  EXPECT_EQ(sc.shed, 1u);
  EXPECT_EQ(sc.connections, 2u);  // shed sockets still count as accepted
  first.quit();
  f.server->stop();
  EXPECT_TRUE(accounted(f.server->counters()));
}

TEST(Harden, ShedIsTransientForARetryingClient) {
  server_config cfg;
  cfg.io_threads = 1;
  cfg.max_conns_per_worker = 1;
  server_fixture f(cfg);

  auto first = std::make_unique<memcache_client>();
  ASSERT_TRUE(first->connect("127.0.0.1", f.server->port()));
  ASSERT_EQ(first->set("k", "v"), cmd_status::stored);

  // The retrying client gets shed while `first` holds the only slot...
  memcache_client second(client_config{.max_retries = 20});
  ASSERT_TRUE(second.connect("127.0.0.1", f.server->port()));
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    first->quit();
    first.reset();  // slot freed mid-retry
  });
  // ...but its bounded backoff-and-reconnect lands once the slot frees.
  EXPECT_EQ(second.set("x", "y"), cmd_status::stored) << second.last_error();
  EXPECT_GT(second.retries(), 0u);
  release.join();
  second.quit();
}

TEST(Harden, RequestCapClosesConnectionAfterReply) {
  server_config cfg;
  cfg.max_requests_per_conn = 3;
  server_fixture f(cfg);

  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  EXPECT_EQ(cl.set("a", "1"), cmd_status::stored);
  EXPECT_EQ(cl.set("b", "2"), cmd_status::stored);
  // The capth request is still answered...
  EXPECT_EQ(cl.set("c", "3"), cmd_status::stored);
  // ...then the server closes; the next op fails on a dead transport.
  EXPECT_EQ(cl.set("d", "4"), cmd_status::error);

  f.server->stop();
  const server_counters sc = f.server->counters();
  EXPECT_GE(sc.closed, 1u);  // request-cap close is a normal close
  EXPECT_TRUE(accounted(sc));
}

// ---- drain ------------------------------------------------------------------

TEST(Drain, GracefulDrainFlushesBufferedReplies) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  const std::string value(64 * 1024, 'd');
  ASSERT_EQ(cl.set("big", value), cmd_status::stored);

  // A pipelined burst whose replies (~1.3 MB) far exceed the socket
  // buffer, unread: at drain time the server still owes us most of them.
  constexpr int kGets = 20;
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get big\r\n";
  ASSERT_TRUE(cl.send_raw(burst));
  // Let the worker read and parse the burst before the drain begins --
  // drain only promises to finish what the server has already taken in.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::atomic<bool> clean{false};
  std::thread drainer([&] { clean.store(f.server->drain()); });

  const std::string header = "VALUE big 0 " + std::to_string(value.size());
  int complete = 0;
  for (int i = 0; i < kGets; ++i) {
    std::string line, data;
    if (!cl.read_line(&line)) break;
    ASSERT_EQ(line, header) << "reply " << i;
    ASSERT_TRUE(cl.read_exact(value.size() + 2, &data));
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "END");
    ++complete;
  }
  std::string extra;
  EXPECT_FALSE(cl.read_line(&extra));  // server closed after the flush
  drainer.join();

  EXPECT_EQ(complete, kGets);  // nothing the server had taken in was lost
  EXPECT_TRUE(clean.load());
  const server_counters sc = f.server->counters();
  EXPECT_EQ(sc.drained, 1u);
  EXPECT_TRUE(accounted(sc));
}

TEST(Drain, DeadlineForcesStuckConnectionsClosed) {
  server_config cfg;
  cfg.drain_deadline_ms = 100;
  server_fixture f(cfg);
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  const std::string value(64 * 1024, 'f');
  ASSERT_EQ(cl.set("big", value), cmd_status::stored);

  // Burst, then never read: ~50 MB of replies dwarf what the loopback
  // socket buffers can absorb, so with no reader the flush can't
  // complete and the deadline must force the close.
  std::string burst;
  for (int i = 0; i < 800; ++i) burst += "get big\r\n";
  ASSERT_TRUE(cl.send_raw(burst));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto t0 = std::chrono::steady_clock::now();
  const bool clean = f.server->drain();
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(clean);
  // Bounded: the deadline plus scheduling slack, not a hang.
  EXPECT_LT(took, std::chrono::seconds(5));
  const server_counters sc = f.server->counters();
  EXPECT_EQ(sc.drained, 1u);
  EXPECT_TRUE(accounted(sc));
}

TEST(Drain, IdleServerDrainsImmediatelyAndStopStaysIdempotent) {
  server_fixture f;
  EXPECT_TRUE(f.server->drain());
  EXPECT_FALSE(f.server->running());
  f.server->stop();  // after drain: no-op
  EXPECT_TRUE(accounted(f.server->counters()));
}

// ---- the chaos soak ---------------------------------------------------------

TEST(Chaos, SeededSoakKeepsAccountingExact) {
  // Everything at once: short I/O, EINTR/EAGAIN storms, resets, stalls,
  // accept failures on the server plus timeouts, retries, and reconnects
  // on the clients -- then a graceful drain.  The invariants: the server
  // never crashes or wedges, every accepted connection lands in exactly
  // one close-reason bucket, the plan demonstrably fired, and the store
  // answered exactly one kv op per answered command.
  server_config cfg;
  cfg.io_threads = 2;
  cfg.idle_timeout_ms = 500;
  cfg.max_requests_per_conn = 200;
  cfg.max_conns_per_worker = 8;
  server_fixture f(cfg);

  fault_plan p;
  p.seed = 20120225;  // the paper's conference date, for luck
  p.short_read = 0.05;
  p.short_write = 0.05;
  p.eintr = 0.02;
  p.eagain = 0.005;
  p.reset = 0.01;
  p.emfile = 0.02;
  p.stall = 0.01;
  p.stall_us = 200;
  fault_guard g(p);

  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> ok_ops{0};
  std::atomic<std::uint64_t> failed_ops{0};
  std::atomic<std::uint64_t> retries{0};
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(600);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      memcache_client cl(
          client_config{.op_timeout_ms = 300, .max_retries = 5});
      (void)cl.connect("127.0.0.1", f.server->port());
      cohort::xorshift rng(911 + t);
      while (std::chrono::steady_clock::now() < deadline) {
        const std::string key = "c" + std::to_string(t) + "-" +
                                std::to_string(rng.next_range(64));
        cmd_status st;
        switch (rng.next_range(3)) {
          case 0:
            st = cl.set(key, "v");
            break;
          case 1:
            st = cl.get(key, nullptr);
            break;
          default:
            st = cl.del(key);
            break;
        }
        if (st == cmd_status::error)
          ++failed_ops;
        else
          ++ok_ops;
      }
      retries += cl.retries();
      cl.close();
    });
  }
  for (auto& th : threads) th.join();

  const bool clean = f.server->drain();
  (void)clean;  // stuck flushes under a hostile plan are legitimate
  const server_counters sc = f.server->counters();

  EXPECT_TRUE(accounted(sc));
  EXPECT_GT(ok_ops.load(), 0u);  // made real progress under fire
  EXPECT_GT(sc.injected_faults, 0u);
  // Answered commands bound the client view from both sides.
  EXPECT_GE(sc.commands, ok_ops.load());
  EXPECT_LE(sc.commands, ok_ops.load() + failed_ops.load() + retries.load());
  // Truncation and resets never fabricate bytes, so the server must not
  // have seen malformed requests beyond attempts that died mid-send.
  EXPECT_LE(sc.protocol_errors, failed_ops.load() + retries.load());
  // The store executed exactly one kv op per answered command.
  const kvstore::kv_stats ks = f.store->stats();
  EXPECT_EQ(ks.gets + ks.sets + ks.deletes, sc.commands);
}

}  // namespace
}  // namespace cohort::net
