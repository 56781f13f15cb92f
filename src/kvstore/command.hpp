// The shared kv command layer (DESIGN.md §6): one request API over the
// sharded engine with per-op result codes, and the one get/set mix loop
// behind every load driver.
//
// Every kv consumer (`--workload kv`, `--workload kvnet`, the server) goes
// through exactly one implementation:
//
//   * command_executor<Store>  -- binds a store and a per-thread handle and
//     exposes get/set/del/flush/stats with cmd_status result codes.  Store
//     is sharded_store<Lock> (monomorphised, the benchmark hot path) or
//     any_sharded_store (type-erased, the server).  One instance per
//     driving thread; must not outlive the store.
//   * mix_workload             -- the memaslap-style op generator (keyspace,
//     Zipf key skew, get/set coin); step() drives any executor-shaped
//     target, including the network client (net/client.hpp), so the served
//     path and the in-process path run the identical mix.
//   * prefill_keyspace         -- NUMA-aware keyspace prefill shared by the
//     benchmark workloads and the server's --prefill option.
//
// The net front-end (src/net/) translates the memcached text protocol into
// these calls; the windowed benchmark workloads call them directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/sharded_store.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace kvstore {

enum class cmd_op : std::uint8_t { get, set, del, flush, stats };

// Per-op result codes.  get yields hit/miss, set yields stored/too_large,
// del yields deleted/not_found, flush/stats yield ok.  `error` never comes
// from the in-process executor; the network client (net/client.hpp) shares
// this vocabulary and reports transport/protocol failure with it.
enum class cmd_status : std::uint8_t {
  hit,
  miss,
  stored,
  too_large,
  deleted,
  not_found,
  ok,
  error,
};

// Stable lowercase name ("hit", "stored", ...) for logs and tests.
const char* status_name(cmd_status s) noexcept;

struct command {
  cmd_op op = cmd_op::get;
  std::string key;
  std::string value;  // set payload
};

// Live sample of the whole store, shaped for the server's `stats` command:
// summed operation cells plus resident items.  Safe to take while other
// threads operate (single-writer cells); identities exact at quiescence.
struct store_snapshot {
  kv_stats counters{};
  std::size_t items = 0;
  std::size_t shards = 0;
};

struct command_reply {
  cmd_status status = cmd_status::ok;
  std::string value;       // get hit payload
  store_snapshot stats{};  // stats op only
};

template <typename Store>
class command_executor {
 public:
  // max_value_bytes == 0 means unbounded; the server passes its protocol
  // cap so oversized sets are refused in one place.
  explicit command_executor(Store& store, std::size_t max_value_bytes = 0)
      : store_(&store),
        h_(store.make_handle()),
        max_value_bytes_(max_value_bytes) {}

  cmd_status get(const std::string& key, std::string* out) {
    auto v = store_->get(h_, key);
    if (!v.has_value()) return cmd_status::miss;
    if (out != nullptr) *out = std::move(*v);
    return cmd_status::hit;
  }

  cmd_status set(const std::string& key, std::string value) {
    if (max_value_bytes_ != 0 && value.size() > max_value_bytes_)
      return cmd_status::too_large;
    store_->set(h_, key, std::move(value));
    return cmd_status::stored;
  }

  cmd_status del(const std::string& key) {
    return store_->erase(h_, key) ? cmd_status::deleted
                                  : cmd_status::not_found;
  }

  cmd_status flush() {
    store_->flush(h_);
    return cmd_status::ok;
  }

  store_snapshot stats() const {
    store_snapshot s;
    s.counters = store_->stats();
    s.items = store_->size();
    s.shards = store_->shard_count();
    return s;
  }

  command_reply execute(const command& c) {
    command_reply r;
    switch (c.op) {
      case cmd_op::get: r.status = get(c.key, &r.value); break;
      case cmd_op::set: r.status = set(c.key, c.value); break;
      case cmd_op::del: r.status = del(c.key); break;
      case cmd_op::flush: r.status = flush(); break;
      case cmd_op::stats:
        r.stats = stats();
        r.status = cmd_status::ok;
        break;
    }
    return r;
  }

  Store& store() noexcept { return *store_; }

 private:
  Store* store_;
  typename Store::handle h_;
  std::size_t max_value_bytes_;
};

// The memaslap-style get/set mix (paper §4.2's memcached load): each step
// draws one key through the shared Zipf CDF (theta 0 = uniform, hottest key
// first) and flips the get/set coin.  One instance is shared read-only by
// all worker threads; each worker draws through its own RNG.  Target is
// anything executor-shaped: command_executor<Store> in process,
// net::memcache_client over a socket.
class mix_workload {
 public:
  mix_workload(const std::vector<std::string>& keys, double get_ratio,
               double zipf_theta, std::string value)
      : keys_(&keys),
        value_(std::move(value)),
        get_ratio_(get_ratio),
        pick_(keys.size(), zipf_theta) {}

  template <typename Executor>
  cmd_status step(Executor& ex, cohort::xorshift& rng) const {
    const std::string& key = (*keys_)[pick_(rng)];
    if (rng.next_double() < get_ratio_) return ex.get(key, nullptr);
    return ex.set(key, value_);
  }

  const std::vector<std::string>& keys() const noexcept { return *keys_; }
  const std::string& value() const noexcept { return value_; }

 private:
  const std::vector<std::string>* keys_;
  std::string value_;
  double get_ratio_;
  cohort::zipf_sampler pick_;
};

// Prefill every key so gets can hit.  With numa_place each shard's items
// (the LRU nodes and value payloads) are inserted -- first-touched -- from
// a thread pinned to the shard's home cluster, completing the placement the
// store constructor started with the bucket tables.
template <typename Store>
void prefill_keyspace(Store& store, const std::vector<std::string>& keys,
                      const std::string& value, bool numa_place) {
  if (!numa_place) {
    command_executor<Store> ex(store);
    for (const auto& k : keys) ex.set(k, value);
    return;
  }
  // One partition pass, then one pinned insertion thread per shard.
  std::vector<std::vector<const std::string*>> by_shard(store.shard_count());
  for (const auto& k : keys) by_shard[store.shard_of(k)].push_back(&k);
  const auto& topo = cohort::numa::system_topology();
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    std::thread([&, s] {
      cohort::numa::pin_thread_to_cluster(topo, store.home_cluster(s));
      command_executor<Store> ex(store);
      for (const std::string* k : by_shard[s]) ex.set(*k, value);
    }).join();
  }
}

}  // namespace kvstore
