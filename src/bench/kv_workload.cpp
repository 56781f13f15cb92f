// The "kv" workload: the memaslap-style get/set mix against the sharded kv
// engine (DESIGN.md §3-4), measured under the shared windowed skeleton.
// The mix itself and every operation live in the shared command layer
// (kvstore/command.hpp) -- the same implementation behind the network
// server -- so this file only binds it to the driver.  Shard count, lock
// name, get ratio, keyspace and NUMA placement are all runtime axes.
#include <stdexcept>

#include "bench/driver.hpp"
#include "bench/kv_common.hpp"
#include "bench/workload.hpp"
#include "kvstore/command.hpp"
#include "util/rng.hpp"

namespace cohort::bench {

namespace {

template <typename Lock>
void run_kv_typed(kvstore::sharded_store<Lock>& store, const bench_config& cfg,
                  bench_result& res) {
  const auto keys =
      kvstore::make_keyspace(cfg.keyspace != 0 ? cfg.keyspace : 1);
  const std::string value(cfg.value_bytes, 'v');

  kvstore::prefill_keyspace(store, keys, value, cfg.numa_place);
  const std::uint64_t prefill_sets = store.stats().sets;

  // Key skew: Zipf(theta) over the keyspace, hottest key first; theta 0 is
  // uniform.  The mix_workload holds the one shared read-only CDF table;
  // each worker draws through its own RNG.  Skew concentrates traffic on
  // the hot keys' shard, which is the realistic stress for fast-path
  // disengagement on that shard's lock.
  const kvstore::mix_workload mix(keys, cfg.get_ratio, cfg.zipf_theta, value);

  auto make_body = [&](unsigned tid) {
    return [&mix, ex = kvstore::command_executor(store),
            rng = xorshift(0x517ead0000ULL + tid)]() mutable {
      return mix.step(ex, rng) != kvstore::cmd_status::error;
    };
  };
  auto sample = [&] { return detail::sample_kv_probe(store); };
  const auto totals = detail::run_window(cfg, make_body, sample);

  detail::fill_window_result(res, totals);
  detail::fill_kv_result(store, res, prefill_sets);
}

}  // namespace

bench_result run_kv_bench(const bench_config& cfg) {
  detail::validate_kv_config(cfg);

  bench_result res;
  res.config = cfg;
  res.clusters_used = numa::system_topology().clusters();

  const kvstore::kv_config kcfg{.shards = cfg.shards,
                                .buckets = cfg.kv_buckets,
                                .max_items = cfg.kv_max_items,
                                .numa_place = cfg.numa_place};
  const bool known = kvstore::with_store(
      cfg.lock_name, kcfg, detail::lock_params_of(cfg),
      [&](auto& store) { run_kv_typed(store, cfg, res); });
  if (!known)
    throw std::invalid_argument("bench: " +
                                reg::unknown_lock_message(cfg.lock_name));
  return res;
}

}  // namespace cohort::bench
