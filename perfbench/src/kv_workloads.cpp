// The two real-thread workloads.  Both build their inputs (keys, payloads,
// per-thread op streams) from the seed before anything is timed, then drive
// the store only through its public surfaces: command_executor in process,
// memcache_client against an in-process kv_server.
//
// Each run has the same shape: set-up (timed, repeated; the last one is
// kept), a short warm-up, a closed loop (each thread issues its next op when
// the previous returns), then an open loop at a fixed offered rate, timed
// from each send's due time.  The traced run replaces the shard locks with
// timed_lock decorators and adds an untraced closed loop first, so the
// tracing overhead is measured in the same process.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "kvstore/command.hpp"
#include "kvstore/sharded_store.hpp"
#include "locks/registry.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "numa/topology.hpp"
#include "timed_lock.hpp"

namespace perfbench {
namespace {

using kvstore::any_sharded_store;
using kvstore::cmd_status;

constexpr std::size_t kKeys = 100'000;
constexpr std::size_t kValueBytes = 64;
constexpr unsigned kClusters = 2;
constexpr std::uint32_t kSetBit = 1u << 31;
constexpr std::size_t kOpsPerThread = 1u << 20;  // cycled when exhausted
constexpr std::int64_t kWindowNs = 100'000'000;

// Keys with their payloads; Zipf rank r names key rank_to_key[r], a seeded
// permutation, so which keys are hot (and which shard and bucket they hash
// to) changes with the seed.
struct keyspace {
  std::vector<std::string> keys;
  std::vector<std::string> payloads;  // payloads[i] belongs to keys[i]
  std::vector<std::uint32_t> rank_to_key;
};

keyspace make_keyspace(std::uint64_t seed) {
  keyspace ks;
  rng g(seed ^ 0x6b65797370616365ull);
  ks.keys.reserve(kKeys);
  ks.payloads.reserve(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    ks.keys.push_back("key:" + std::to_string(i));
    std::string v(kValueBytes, 'a');
    for (char& c : v) c = static_cast<char>('a' + g.below(26));
    ks.payloads.push_back(std::move(v));
  }
  ks.rank_to_key.resize(kKeys);
  std::iota(ks.rank_to_key.begin(), ks.rank_to_key.end(), 0u);
  for (std::size_t i = kKeys - 1; i > 0; --i)
    std::swap(ks.rank_to_key[i], ks.rank_to_key[g.below(i + 1)]);
  return ks;
}

// One thread's op stream: key index in the low bits, kSetBit for a set.
std::vector<std::uint32_t> make_ops(const keyspace& ks, const zipf& pick,
                                    double set_frac, std::uint64_t seed) {
  rng g(seed);
  std::vector<std::uint32_t> ops(kOpsPerThread);
  for (auto& op : ops) {
    op = ks.rank_to_key[pick(g)];
    if (g.unit() < set_frac) op |= kSetBit;
  }
  return ops;
}

std::vector<std::vector<std::uint32_t>> make_streams(const keyspace& ks,
                                                     double theta,
                                                     double set_frac,
                                                     unsigned threads,
                                                     std::uint64_t seed) {
  const zipf pick(kKeys, theta);
  std::vector<std::vector<std::uint32_t>> s;
  std::uint64_t sm = seed;
  for (unsigned t = 0; t < threads; ++t)
    s.push_back(make_ops(ks, pick, set_frac, splitmix64(sm)));
  return s;
}

// Two synthetic clusters.  With four CPUs they are laid over real CPUs
// {0,1} and {2,3} so threads can be pinned; otherwise they are id-only.
bool install_topology() {
  if (online_cpus() >= 4) {
    cohort::numa::topology t;
    t.cpus = {{0, 1}, {2, 3}};
    cohort::numa::set_system_topology(t);
    return true;
  }
  cohort::numa::set_system_topology(cohort::numa::topology::synthetic(2));
  return false;
}

enum class outcome { ok, failed, wrong };

// When each phase starts and ends; all threads share it, so no barrier is
// needed beyond waiting for `start`.
struct plan {
  std::int64_t start = 0, measure = 0, closed_end = 0, open_end = 0;
  std::size_t closed_windows = 1, open_windows = 1;
  double open_rate = 0;  // total offered ops/s across threads; 0 = no open loop

  static plan make(double warm_s, double closed_s, double open_s,
                   double open_rate) {
    plan p;
    p.start = now_ns() + 20'000'000;
    p.measure = p.start + to_ns(warm_s);
    p.closed_end = p.measure + to_ns(closed_s);
    p.open_end = p.closed_end + to_ns(open_s);
    p.closed_windows = std::max<std::size_t>(
        1, static_cast<std::size_t>((p.closed_end - p.measure) / kWindowNs));
    p.open_windows = std::max<std::size_t>(
        1, static_cast<std::size_t>((p.open_end - p.closed_end) / kWindowNs));
    p.open_rate = open_rate;
    return p;
  }
  std::int64_t closed_window() const {
    return std::max<std::int64_t>(
        1, (closed_end - measure) / static_cast<std::int64_t>(closed_windows));
  }
  std::int64_t open_window() const {
    return std::max<std::int64_t>(
        1, (open_end - closed_end) / static_cast<std::int64_t>(open_windows));
  }
};

// What one load thread records; load_result adds the merged totals.
struct thread_out {
  phase_record closed, open;
  std::uint64_t ops = 0, failed = 0, wrong = 0;
  std::uint64_t open_sent = 0, open_late = 0;

  explicit thread_out(const plan& p)
      : closed(p.measure, p.closed_window(), p.closed_windows),
        open(p.closed_end, p.open_window(), p.open_windows) {}

  void merge(const thread_out& o) {
    closed.merge(o.closed);
    open.merge(o.open);
    ops += o.ops;
    failed += o.failed;
    wrong += o.wrong;
    open_sent += o.open_sent;
    open_late += o.open_late;
  }
};

// One load thread: warm-up and closed loop until closed_end, then the open
// loop.  `op(code)` issues one op and reports its outcome.  A send counts
// as late when it starts a whole inter-send period after its due time.
template <typename Op>
void drive(const plan& p, unsigned tid, unsigned threads,
           const std::vector<std::uint32_t>& ops, thread_out& out, Op&& op) {
  std::size_t next = 0;
  auto issue = [&] {
    const outcome r = op(ops[next]);
    if (++next == ops.size()) next = 0;
    ++out.ops;
    if (r == outcome::failed) ++out.failed;
    if (r == outcome::wrong) ++out.wrong;
  };
  spin_until(p.start);
  for (std::int64_t t0 = now_ns(); t0 < p.closed_end;) {
    issue();
    const std::int64_t t1 = now_ns();
    out.closed.record(t1, t1 - t0);
    t0 = t1;
  }
  if (p.open_rate <= 0) return;
  const double period = 1e9 * threads / p.open_rate;
  const double phase = period * tid / threads;
  for (std::uint64_t k = 0;; ++k) {
    const double offset = phase + period * static_cast<double>(k);
    const std::int64_t due = p.closed_end + static_cast<std::int64_t>(offset);
    if (due >= p.open_end) break;
    spin_until(due);
    const std::int64_t t0 = now_ns();
    ++out.open_sent;
    if (static_cast<double>(t0 - due) > period) ++out.open_late;
    issue();
    const std::int64_t t1 = now_ns();
    out.open.record(t1, t1 - due);
  }
}

// Store and lock counters, sampled live (both are single-writer cells, safe
// to read while the load runs).
struct counters {
  kvstore::kv_stats kv;
  std::uint64_t acquisitions = 0, global_acquires = 0, fast_acquires = 0;
};

counters sample(const any_sharded_store& store) {
  counters c;
  c.kv = store.stats();
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    if (const auto l = store.lock_stats(s)) {
      c.acquisitions += l->acquisitions;
      c.global_acquires += l->global_acquires;
      c.fast_acquires += l->fast_acquires;
    }
  return c;
}

kvstore::kv_stats operator-(const kvstore::kv_stats& a,
                            const kvstore::kv_stats& b) {
  kvstore::kv_stats d;
  d.gets = a.gets - b.gets;
  d.get_hits = a.get_hits - b.get_hits;
  d.sets = a.sets - b.sets;
  d.deletes = a.deletes - b.deletes;
  d.evictions = a.evictions - b.evictions;
  return d;
}

counters operator-(const counters& a, const counters& b) {
  counters d;
  d.kv = a.kv - b.kv;
  d.acquisitions = a.acquisitions - b.acquisitions;
  d.global_acquires = a.global_acquires - b.global_acquires;
  d.fast_acquires = a.fast_acquires - b.fast_acquires;
  return d;
}

// Everything the load threads reported, merged.
struct load_result : thread_out {
  using thread_out::thread_out;
  counters in_closed;  // counter deltas over the measured closed loop
  std::vector<double> per_thread_closed;
  usage cpu;  // process CPU time and context switches over the run
  double wall_s = 0;
};

// Runs `threads` load threads against `store`, each calling make_op(t) once
// for its op functor.  With `pin`, thread t is pinned to CPU t and its
// synthetic cluster is t / 2; otherwise only the cluster id is set.  The
// calling thread samples the store's counters at the closed loop's edges.
template <typename MakeOp>
load_result run_load(const plan& p, unsigned threads, bool pin,
                     const std::vector<std::vector<std::uint32_t>>& streams,
                     const any_sharded_store& store, MakeOp&& make_op) {
  std::vector<std::unique_ptr<thread_out>> outs;
  for (unsigned t = 0; t < threads; ++t)
    outs.push_back(std::make_unique<thread_out>(p));
  const usage u0 = process_usage();
  load_result r(p);
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        if (pin)
          cohort::numa::pin_thread_to_cpu_slot(cohort::numa::system_topology(),
                                               t / 2, t % 2);
        else
          cohort::numa::set_thread_cluster(t / 2);
        auto op = make_op(t);
        drive(p, t, threads, streams[t], *outs[t], op);
      });
    auto at = [](std::int64_t t) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now_ns()));
    };
    at(p.measure);
    const counters c0 = sample(store);
    at(p.closed_end);
    r.in_closed = sample(store) - c0;
  }
  const usage u1 = process_usage();
  for (const auto& o : outs) {
    r.merge(*o);
    r.per_thread_closed.push_back(
        static_cast<double>(o->closed.all().count()));
  }
  r.cpu.cpu_s = u1.cpu_s - u0.cpu_s;
  r.cpu.ctx_switches = u1.ctx_switches - u0.ctx_switches;
  r.wall_s = static_cast<double>(p.open_end - p.start) * 1e-9;
  return r;
}

// A store whose shard locks are either plain registry locks or timed_lock
// decorators around them (the traced run).
struct built_store {
  std::unique_ptr<any_sharded_store> store;
  std::vector<timed_lock*> timed;  // owned by the store
};

built_store build_store(const std::string& lock, const kvstore::kv_config& cfg,
                        bool traced) {
  cohort::reg::lock_params lp;
  lp.clusters = kClusters;
  built_store b;
  if (!traced) {
    b.store = kvstore::make_any_sharded_store(lock, cfg, lp);
    return b;
  }
  b.store = std::make_unique<any_sharded_store>(cfg, [&] {
    auto t = std::make_unique<timed_lock>(cohort::reg::make_lock(lock, lp));
    b.timed.push_back(t.get());
    return t;
  });
  return b;
}

void prefill(any_sharded_store& store, const keyspace& ks) {
  kvstore::command_executor<any_sharded_store> ex(store);
  for (std::size_t i = 0; i < kKeys; ++i) ex.set(ks.keys[i], ks.payloads[i]);
}

// Median of `reps` timed set-ups; every set-up but the last is torn down.
template <typename Setup>
auto timed_setups(int reps, std::vector<double>& seconds, Setup&& setup) {
  for (int i = 0;; ++i) {
    const std::int64_t t0 = now_ns();
    auto s = setup();
    seconds.push_back(seconds_since(t0));
    if (i + 1 >= reps) return s;
  }
}

// Lock-layer figures from the decorators of one traced phase.
struct lock_layer {
  histogram wait, hold, hold_get, hold_set;
};

// Decorators record only acquisitions requested in [from, to).
void record_between(const built_store& b, std::int64_t from, std::int64_t to) {
  for (timed_lock* t : b.timed) t->record_between(from, to);
}

lock_layer collect_locks(const built_store& b) {
  lock_layer l;
  for (const timed_lock* t : b.timed) {
    l.wait.merge(t->wait());
    l.hold.merge(t->hold());
    l.hold_get.merge(t->hold_of(op_tag::get));
    l.hold_set.merge(t->hold_of(op_tag::set));
  }
  return l;
}

void add_lock_metrics(result& res, const lock_layer& l, const load_result& r) {
  const counters& c = r.in_closed;
  res.add("locks.wait_p50_ns", l.wait.quantile(0.50), "ns");
  res.add("locks.wait_p99_ns", l.wait.quantile(0.99), "ns");
  res.add("locks.hold_p50_ns", l.hold.quantile(0.50), "ns");
  res.add("locks.hold_p99_ns", l.hold.quantile(0.99), "ns");
  res.add("locks.wait_share", l.wait.sum() / r.closed.all().sum(), "frac");
  res.add("locks.batch_mean",
          c.global_acquires == 0
              ? 0
              : static_cast<double>(c.acquisitions - c.fast_acquires) /
                    static_cast<double>(c.global_acquires),
          "acq");
  res.add("locks.migrations_per_kacq",
          c.acquisitions == 0
              ? 0
              : 1000.0 * static_cast<double>(c.global_acquires) /
                    static_cast<double>(c.acquisitions),
          "count");
  res.add("locks.fairness_cv", cv(r.per_thread_closed), "ratio");
}

// `d` is the store's counter delta over the closed loop; hold times split
// by operation come from `probe`.
void add_store_metrics(result& res, const kvstore::kv_stats& d,
                       std::size_t items, const lock_layer& probe) {
  const double gets = static_cast<double>(d.gets);
  const double sets = static_cast<double>(d.sets);
  res.add("kvstore.get_p50_ns", probe.hold_get.quantile(0.50), "ns");
  res.add("kvstore.get_p99_ns", probe.hold_get.quantile(0.99), "ns");
  res.add("kvstore.set_p50_ns", probe.hold_set.quantile(0.50), "ns");
  res.add("kvstore.set_p99_ns", probe.hold_set.quantile(0.99), "ns");
  res.add("kvstore.hit_rate",
          gets > 0 ? static_cast<double>(d.get_hits) / gets : 0, "frac");
  res.add("kvstore.evictions_per_kset",
          sets > 0 ? 1000.0 * static_cast<double>(d.evictions) / sets : 0,
          "count");
  res.add("kvstore.items", static_cast<double>(items), "count");
}

double late_frac(const load_result& r) {
  return r.open_sent == 0 ? 0
                          : static_cast<double>(r.open_late) /
                                static_cast<double>(r.open_sent);
}

void add_proc_metrics(result& res, const load_result& r) {
  res.add("proc.cpu_busy_frac", r.cpu.cpu_s / (r.wall_s * online_cpus()),
          "frac");
  res.add("proc.ctx_switches_per_kop",
          r.ops == 0 ? 0
                     : 1000.0 * static_cast<double>(r.cpu.ctx_switches) /
                           static_cast<double>(r.ops),
          "count");
}

void add_end_to_end(result& res, double setup_s, const load_result& r) {
  const auto c = r.closed.summarize(0.99);
  const auto f = r.open.summarize(0.95);
  res.add("setup_s", setup_s, "s");
  res.add("ops_s", c.ops_s, "1/s");
  res.add("lat_p50_us", c.p50_us, "us");
  res.add("lat_p99_us", c.tail_us, "us");
  res.add("fixed_rate_p50_us", f.p50_us, "us");
  res.add("fixed_rate_p95_us", f.tail_us, "us");
  res.add("ok_frac",
          r.ops == 0 ? 0
                     : 1.0 - static_cast<double>(r.failed + r.wrong) /
                                 static_cast<double>(r.ops),
          "frac");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  res.note("closed_samples", std::to_string(c.samples));
  res.note("fixed_rate_samples", std::to_string(f.samples));
}

void account(result& res, const load_result& r) {
  res.attempted += r.ops;
  res.failed += r.failed + r.wrong;
  res.check(r.failed == 0, std::to_string(r.failed) + " ops failed");
  res.check(r.wrong == 0,
            std::to_string(r.wrong) + " ops returned a wrong answer");
}

constexpr int kSetupReps = 7;

}  // namespace

// ---- kvnet-uniform ----------------------------------------------------------

namespace {
constexpr unsigned kClients = 2;
// Offered load of the open loop: a constant, so a later change cannot move
// its own load.  About a third of the closed loop's peak on a loaded 4-CPU
// host (55-95k ops/s measured), so the loop never saturates.
constexpr double kKvnetOpenRate = 20'000;

struct served {
  built_store b;
  std::unique_ptr<cohort::net::kv_server> server;
  std::vector<std::unique_ptr<cohort::net::memcache_client>> clients;
  std::uint64_t setup_commands = 0;  // the `version` probes answered
  double connect_ms = 0;
};
}  // namespace

result run_kvnet_uniform(const options& o) {
  result res;
  const keyspace ks = make_keyspace(o.seed);
  const auto streams = make_streams(ks, 0.0, 0.10, kClients, o.seed);
  const bool pin = install_topology();
  const std::string lock = "C-TKT-TKT";
  kvstore::kv_config cfg;
  cfg.shards = 4;
  cfg.buckets = 4096;
  cohort::net::server_config scfg;
  scfg.io_threads = 2;
  // Workers race to accept, so both connections could land on one io
  // thread, and which happens would change from run to run.  Allowing one
  // connection per worker sheds the loser of that race; set-up reconnects
  // until `version` answers, so each io thread serves exactly one client.
  scfg.max_conns_per_worker = 1;
  cohort::net::client_config ccfg;
  ccfg.op_timeout_ms = 5000;

  // Server threads inherit the creating thread's CPU mask: {0,1}.  Client
  // threads pin themselves to {2} and {3}.
  auto setup = [&](bool traced) {
    if (pin) pin_to({0, 1});
    served s;
    s.b = build_store(lock, cfg, traced);
    prefill(*s.b.store, ks);
    s.server = std::make_unique<cohort::net::kv_server>(*s.b.store, scfg);
    std::string err;
    if (!s.server->start(&err)) throw std::runtime_error("server: " + err);
    if (pin) pin_to({2, 3});  // leave both io threads free to accept
    const std::int64_t t0 = now_ns();
    for (unsigned c = 0; c < kClients; ++c) {
      auto cl = std::make_unique<cohort::net::memcache_client>(ccfg);
      std::string version;
      for (int attempt = 0;; ++attempt) {
        if (cl->connect("127.0.0.1", s.server->port()) &&
            cl->version(&version))
          break;
        if (attempt == 100)
          throw std::runtime_error("connect: " + cl->last_error());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ++s.setup_commands;
      s.clients.push_back(std::move(cl));
    }
    s.connect_ms = static_cast<double>(now_ns() - t0) * 1e-6;
    return s;
  };

  auto load = [&](served& s, const plan& p) {
    record_between(s.b, p.measure, p.closed_end);
    return run_load(p, kClients, false, streams, *s.b.store, [&](unsigned t) {
      if (pin) pin_to({static_cast<int>(2 + t)});
      return [&ks, &cl = *s.clients[t], out = std::string()](
                 std::uint32_t code) mutable {
        const std::uint32_t k = code & ~kSetBit;
        if ((code & kSetBit) != 0) {
          const cmd_status st = cl.set(ks.keys[k], ks.payloads[k]);
          return st == cmd_status::stored ? outcome::ok : outcome::failed;
        }
        const cmd_status st = cl.get(ks.keys[k], &out);
        if (st == cmd_status::error) return outcome::failed;
        return st == cmd_status::hit && out == ks.payloads[k] ? outcome::ok
                                                              : outcome::wrong;
      };
    });
  };

  // Output checks: the store saw exactly the clients' ops and every get
  // hit; the server answered each op (and set-up probe) once with no
  // protocol error; after a drain every connection, the shed ones from
  // set-up included, is attributed to exactly one close reason.
  auto drain_and_check = [&](served& s, const kvstore::kv_stats& before,
                             const load_result& r) {
    account(res, r);
    const kvstore::kv_stats d = s.b.store->stats() - before;
    const bool drained = s.server->drain();
    const cohort::net::server_counters sc = s.server->counters();
    res.check(d.gets + d.sets == r.ops, "store gets+sets != client ops");
    res.check(d.get_hits == d.gets, "a get missed on a fully prefilled store");
    res.check(sc.commands == s.setup_commands + r.ops,
              "server commands " + std::to_string(sc.commands) +
                  " != set-up probes + client ops " +
                  std::to_string(s.setup_commands + r.ops));
    res.check(sc.protocol_errors == 0, "server reported protocol errors");
    res.check(drained, "drain needed a force-close");
    res.check(sc.connections ==
                  sc.shed + sc.closed + sc.timeouts + sc.resets + sc.drained,
              "close-reason identity does not hold after drain");
    return sc;
  };

  const phases ph = split(o.seconds, o.trace);
  std::vector<double> setup_s;
  double untraced_ops_s = 0;
  if (o.trace) {
    served u = setup(false);
    const kvstore::kv_stats before = u.b.store->stats();
    const load_result r = load(u, plan::make(ph.warm, ph.closed, 0, 0));
    drain_and_check(u, before, r);
    untraced_ops_s = r.closed.summarize(0.99).ops_s;
  }
  served s = timed_setups(o.trace ? 1 : kSetupReps, setup_s,
                          [&] { return setup(o.trace); });
  const kvstore::kv_stats before = s.b.store->stats();
  const load_result r =
      load(s, plan::make(ph.warm, ph.closed, ph.open, kKvnetOpenRate));
  const cohort::net::server_counters sc = drain_and_check(s, before, r);

  if (!o.trace) {
    add_end_to_end(res, median(setup_s), r);
  } else {
    const histogram rtt = r.closed.all();
    const lock_layer l = collect_locks(s.b);
    add_lock_metrics(res, l, r);
    // Server threads cannot say which operation holds a lock, so the
    // store-layer split comes from a probe after the served phase: one
    // in-process thread replays a client stream on the same store.
    record_between(s.b, now_ns(), INT64_MAX);
    {
      kvstore::command_executor<any_sharded_store> ex(*s.b.store);
      std::string out;
      for (std::size_t i = 0; i < 100'000; ++i) {
        const std::uint32_t k = streams[0][i] & ~kSetBit;
        if ((streams[0][i] & kSetBit) != 0) {
          current_op = op_tag::set;
          ex.set(ks.keys[k], ks.payloads[k]);
        } else {
          current_op = op_tag::get;
          res.check(ex.get(ks.keys[k], &out) == cmd_status::hit &&
                        out == ks.payloads[k],
                    "probe get returned a wrong answer");
        }
        current_op = op_tag::other;
      }
    }
    add_store_metrics(res, r.in_closed.kv, s.b.store->size(),
                      collect_locks(s.b));
    // Mean request time outside the lock: the part the net layer (and the
    // store outside the lock) owns.
    const double lock_mean =
        l.wait.count() == 0 ? 0
                            : (l.wait.sum() + l.hold.sum()) /
                                  static_cast<double>(l.wait.count());
    res.add("net.self_us", (rtt.mean() - lock_mean) * 1e-3, "us");
    res.add("net.rtt_p999_us", rtt.quantile(0.999) * 1e-3, "us");
    res.add("net.connect_ms", s.connect_ms, "ms");
    res.add("net.late_frac", late_frac(r), "frac");
    res.add("net.server_commands", static_cast<double>(sc.commands), "count");
    res.add("net.protocol_errors", static_cast<double>(sc.protocol_errors),
            "count");
    add_proc_metrics(res, r);
    res.add("trace.overhead_frac",
            1.0 - r.closed.summarize(0.99).ops_s / untraced_ops_s, "frac");
  }
  res.note("lock", "\"" + lock + "\"");
  res.note("shards", std::to_string(cfg.shards));
  res.note("io_threads", std::to_string(scfg.io_threads));
  res.note("clients", std::to_string(kClients));
  res.note("open_rate_ops_s", std::to_string(kKvnetOpenRate));
  res.note("pinned", pin ? "true" : "false");
  return res;
}

// ---- kv-hot -----------------------------------------------------------------

namespace {
constexpr unsigned kHotThreads = 4;
constexpr std::size_t kHotBudget = 50'000;
// A constant, about a third of the closed loop's peak on a loaded 4-CPU
// host (0.37-1.07M ops/s measured), so the loop never saturates.
constexpr double kHotOpenRate = 100'000;
}  // namespace

result run_kv_hot(const options& o) {
  result res;
  const keyspace ks = make_keyspace(o.seed);
  const auto streams = make_streams(ks, 0.99, 0.50, kHotThreads, o.seed);
  const bool pin = install_topology();
  const std::string lock = "C-BO-MCS";
  kvstore::kv_config cfg;
  cfg.shards = 1;
  cfg.buckets = 65536;
  cfg.max_items = kHotBudget;

  auto setup = [&](bool traced) {
    built_store b = build_store(lock, cfg, traced);
    prefill(*b.store, ks);
    return b;
  };
  auto load = [&](built_store& b, const plan& p) {
    record_between(b, p.measure, p.closed_end);
    return run_load(p, kHotThreads, pin, streams, *b.store, [&](unsigned) {
      return [&ks, ex = kvstore::command_executor<any_sharded_store>(*b.store),
              out = std::string()](std::uint32_t code) mutable {
        const std::uint32_t k = code & ~kSetBit;
        if ((code & kSetBit) != 0) {
          current_op = op_tag::set;
          const cmd_status st = ex.set(ks.keys[k], ks.payloads[k]);
          current_op = op_tag::other;
          return st == cmd_status::stored ? outcome::ok : outcome::failed;
        }
        current_op = op_tag::get;
        const cmd_status st = ex.get(ks.keys[k], &out);
        current_op = op_tag::other;
        if (st == cmd_status::miss) return outcome::ok;  // evicted
        return st == cmd_status::hit && out == ks.payloads[k] ? outcome::ok
                                                              : outcome::wrong;
      };
    });
  };

  // Output checks: no update lost (every op reached the store exactly
  // once after the prefill), every hit carried its key's payload (in
  // `load`), the eviction budget held.
  auto check = [&](const built_store& b, const load_result& r) {
    account(res, r);
    const kvstore::kv_stats st = b.store->stats();
    res.check(st.gets + st.sets == kKeys + r.ops,
              "lost update: store gets+sets != prefill + ops");
    res.check(b.store->size() <= kHotBudget,
              "items exceed the eviction budget");
  };

  const phases ph = split(o.seconds, o.trace);
  std::vector<double> setup_s;
  double untraced_ops_s = 0;
  if (o.trace) {
    built_store u = setup(false);
    const load_result r = load(u, plan::make(ph.warm, ph.closed, 0, 0));
    check(u, r);
    untraced_ops_s = r.closed.summarize(0.99).ops_s;
  }
  built_store b = timed_setups(o.trace ? 1 : kSetupReps, setup_s,
                               [&] { return setup(o.trace); });
  const load_result r =
      load(b, plan::make(ph.warm, ph.closed, ph.open, kHotOpenRate));
  check(b, r);

  if (!o.trace) {
    add_end_to_end(res, median(setup_s), r);
  } else {
    const lock_layer l = collect_locks(b);
    add_lock_metrics(res, l, r);
    add_store_metrics(res, r.in_closed.kv, b.store->size(), l);
    // The generator's own lateness; the other net.* metrics have no layer
    // to measure here and are reported as 0.
    res.add("net.late_frac", late_frac(r), "frac");
    add_proc_metrics(res, r);
    res.add("trace.overhead_frac",
            1.0 - r.closed.summarize(0.99).ops_s / untraced_ops_s, "frac");
  }
  res.note("lock", "\"" + lock + "\"");
  res.note("shards", std::to_string(cfg.shards));
  res.note("threads", std::to_string(kHotThreads));
  res.note("open_rate_ops_s", std::to_string(kHotOpenRate));
  res.note("pinned", pin ? "true" : "false");
  return res;
}

}  // namespace perfbench
