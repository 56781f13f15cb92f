// Name-based dispatch over the *real* lock types, mirroring the simulator's
// sim/locks/registry.hpp.  Lock names follow the paper's figures and tables,
// so harnesses, examples and future workloads can say "C-BO-MCS" instead of
// spelling out a template instantiation.
//
// The registry is descriptor-based: every lock is one `detail::entry` in the
// compile-time table below -- name, family, capability flags, which tuning
// knobs it honours, a one-line summary, and a factory over the resolved
// parameters.  Everything else is derived from that single row:
//
//  * with_lock_type(name, params, fn)  -- compile-time dispatch.  fn is a
//    generic callable invoked with a factory `() -> std::unique_ptr<LockType>`;
//    use this when the hot loop should be monomorphised (the benchmark
//    harness does).
//  * make_lock(name, params)           -- a type-erased any_lock with virtual
//    lock/unlock and heap-allocated per-thread contexts; use this when a
//    uniform runtime handle matters more than the last nanosecond.
//  * all_locks()                       -- runtime lock_descriptor metadata:
//    what `cohort_bench --list-locks` prints, what scripts and the
//    registry-completeness tests cross-check against.
//
// Capability flags that a mismatched declaration could silently break
// (abortable, reports_batch_stats) are *computed* from the lock type with
// the same requires-expressions the any_lock adapter uses, so the metadata
// cannot drift from the behaviour.  Flags the type system cannot see
// (cluster_aware) are declared per entry.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "cohort/locks.hpp"
#include "locks/any_lock.hpp"
#include "locks/fcmcs.hpp"
#include "locks/hbo.hpp"
#include "locks/hclh.hpp"
#include "locks/pthread_lock.hpp"

namespace cohort::reg {

// ---- construction parameters ------------------------------------------------
// The knob structs, lock_params, and the type-erased any_lock handle live in
// locks/any_lock.hpp (so code that only decorates or consumes the handle can
// use it without the entry table); this header re-exports them.

// The fastpath_policy the -fp registry entries will be constructed with,
// after the default chain above resolves.  Exposed so records (JSON) can
// report the effective values rather than the request.
fastpath_policy effective_fastpath(const lock_params& lp);

// Likewise the gcr_policy the gcr- entries will be constructed with (before
// the combinator's own max_active==0 -> online-CPUs resolution, which is
// per-construction).
gcr_policy effective_gcr(const lock_params& lp);

// ---- descriptor metadata ----------------------------------------------------

enum class lock_family : std::uint8_t {
  plain,         // centralised spin/system locks (TATAS, BO, TKT, pthread...)
  queue,         // FIFO queue locks (MCS, CLH, HCLH, FC-MCS)
  cohort,        // the paper's C-*-* / A-C-*-* compositions
  compact,       // single-word NUMA locks (CNA, Reciprocating)
  fp_composite,  // fissile_lock<Inner> fast-path wrappers ("-fp")
  gcr,           // gcr<Inner> admission wrappers ("gcr-")
};

const char* to_string(lock_family f);

struct lock_caps {
  bool abortable = false;           // bounded-patience try_lock
  bool fp_composable = false;       // valid Inner for fissile_lock
  bool cluster_aware = false;       // consults the NUMA topology
  bool reports_batch_stats = false; // exposes cohort_stats counters
};

struct lock_descriptor {
  std::string name;
  lock_family family{};
  lock_caps caps{};
  bool uses_pass_limit = false;     // honours lock_params::cohort
  bool uses_fp_knobs = false;       // honours lock_params::fp
  bool uses_gcr_knobs = false;      // honours lock_params::gcr
  std::string summary;              // one line for --list-locks
  std::function<std::unique_ptr<any_lock>(const lock_params&)> make;
};

namespace detail {

// Cluster count the constructed lock will actually use.
inline unsigned effective_clusters(const lock_params& lp) {
  return lp.clusters != 0 ? lp.clusters : numa::system_topology().clusters();
}

// lock_params with every default chain resolved; what entry makers consume.
struct resolved_params {
  unsigned clusters;
  pass_policy pp;
  fastpath_policy fpp;
  gcr_policy gp;
};

resolved_params resolve(const lock_params& lp);

// Capability detection shared by the descriptor builder and the any_lock
// adapter -- one definition, so the two can never disagree.
template <typename Lock>
constexpr bool lock_is_abortable() {
  return requires(Lock& l, typename Lock::context& c, deadline d) {
           l.try_lock(c, d);
         } || requires(Lock& l, deadline d) { l.try_lock(d); };
}

template <typename Lock>
constexpr bool lock_reports_stats() {
  return requires(const Lock& l) { l.stats(); };
}

// One registry row.  Maker is a captureless lambda
// `(const resolved_params&) -> std::unique_ptr<Lock>`; the lock type is
// recovered from its return type wherever it is needed.
template <typename Maker>
struct entry {
  const char* name;
  lock_family family;
  bool fp_composable;
  bool cluster_aware;
  bool uses_pass_limit;
  bool uses_fp_knobs;
  const char* summary;
  Maker make;

  using lock_type =
      typename std::invoke_result_t<Maker, const resolved_params&>::
          element_type;
};

// The single source of truth: every lock appears exactly once, in the order
// the paper's evaluation introduces them, followed by the post-cohort
// compact locks and the -fp composites.  with_lock_type, all_locks(), the
// name lists and make_lock all walk this tuple.
inline const auto& entries() {
  static const auto table = std::tuple{
      // -- plain -------------------------------------------------------------
      entry{"pthread", lock_family::plain, false, false, false, false,
            "pthread_mutex_t baseline",
            [](const resolved_params&) {
              return std::make_unique<pthread_lock>();
            }},
      entry{"TATAS", lock_family::plain, false, false, false, false,
            "test-and-test-and-set spin lock",
            [](const resolved_params&) {
              return std::make_unique<tas_spin_lock>();
            }},
      entry{"BO", lock_family::plain, false, false, false, false,
            "TATAS with exponential backoff",
            [](const resolved_params&) { return std::make_unique<bo_lock>(); }},
      entry{"Fib-BO", lock_family::plain, false, false, false, false,
            "TATAS with Fibonacci backoff",
            [](const resolved_params&) {
              return std::make_unique<fib_bo_lock>();
            }},
      entry{"TKT", lock_family::plain, false, false, false, false,
            "FIFO ticket lock",
            [](const resolved_params&) {
              return std::make_unique<ticket_lock>();
            }},
      // -- queue -------------------------------------------------------------
      entry{"MCS", lock_family::queue, false, false, false, false,
            "MCS queue lock, explicit qnode",
            [](const resolved_params&) { return std::make_unique<mcs_lock>(); }},
      entry{"CLH", lock_family::queue, false, false, false, false,
            "CLH implicit-queue lock",
            [](const resolved_params&) { return std::make_unique<clh_lock>(); }},
      entry{"A-CLH", lock_family::queue, false, false, false, false,
            "abortable CLH (timeout by marking the node)",
            [](const resolved_params&) {
              return std::make_unique<aclh_lock>();
            }},
      entry{"HBO", lock_family::plain, false, true, false, false,
            "hierarchical backoff (microbenchmark tuning)",
            [](const resolved_params&) {
              return std::make_unique<hbo_lock>(hbo_microbench_tuning());
            }},
      entry{"HBO-tuned", lock_family::plain, false, true, false, false,
            "hierarchical backoff (memcached tuning)",
            [](const resolved_params&) {
              return std::make_unique<hbo_lock>(hbo_memcached_tuning());
            }},
      entry{"HCLH", lock_family::queue, false, true, false, false,
            "hierarchical CLH, per-cluster splicing",
            [](const resolved_params& rp) {
              return std::make_unique<hclh_lock>(rp.clusters);
            }},
      entry{"FC-MCS", lock_family::queue, false, true, false, false,
            "flat-combining MCS",
            [](const resolved_params& rp) {
              return std::make_unique<fc_mcs_lock>(rp.clusters);
            }},
      // -- cohort (paper §3) -------------------------------------------------
      entry{"C-BO-BO", lock_family::cohort, true, true, true, false,
            "cohort: global BO, local BO (§3.1)",
            [](const resolved_params& rp) {
              return std::make_unique<c_bo_bo_lock>(rp.pp, rp.clusters);
            }},
      entry{"C-TKT-TKT", lock_family::cohort, true, true, true, false,
            "cohort: global ticket, local ticket (§3.2)",
            [](const resolved_params& rp) {
              return std::make_unique<c_tkt_tkt_lock>(rp.pp, rp.clusters);
            }},
      entry{"C-BO-MCS", lock_family::cohort, true, true, true, false,
            "cohort: global BO, local MCS (§3.3)",
            [](const resolved_params& rp) {
              return std::make_unique<c_bo_mcs_lock>(rp.pp, rp.clusters);
            }},
      entry{"C-TKT-MCS", lock_family::cohort, true, true, true, false,
            "cohort: global ticket, local MCS (§3.5)",
            [](const resolved_params& rp) {
              return std::make_unique<c_tkt_mcs_lock>(rp.pp, rp.clusters);
            }},
      entry{"C-MCS-MCS", lock_family::cohort, true, true, true, false,
            "cohort: global MCS, local MCS (§3.4)",
            [](const resolved_params& rp) {
              return std::make_unique<c_mcs_mcs_lock>(rp.pp, rp.clusters);
            }},
      entry{"C-PARK-MCS", lock_family::cohort, true, true, true, false,
            "cohort: global futex-park, local MCS (blocking hybrid)",
            [](const resolved_params& rp) {
              return std::make_unique<c_park_mcs_lock>(rp.pp, rp.clusters);
            }},
      entry{"A-C-BO-BO", lock_family::cohort, true, true, true, false,
            "abortable cohort: global BO, local BO (§3.6.1)",
            [](const resolved_params& rp) {
              return std::make_unique<a_c_bo_bo_lock>(rp.pp, rp.clusters);
            }},
      entry{"A-C-BO-CLH", lock_family::cohort, true, true, true, false,
            "abortable cohort: global BO, local A-CLH (§3.6.2)",
            [](const resolved_params& rp) {
              return std::make_unique<a_c_bo_clh_lock>(rp.pp, rp.clusters);
            }},
      // -- compact (post-cohort single-word NUMA locks) ----------------------
      entry{"cna", lock_family::compact, true, true, true, false,
            "Compact NUMA-Aware lock: one-word MCS, same-socket handoff,"
            " deferred remote list (arXiv:1810.05600)",
            [](const resolved_params& rp) {
              return std::make_unique<cna_lock>(rp.pp);
            }},
      entry{"reciprocating", lock_family::compact, true, false, false, false,
            "Reciprocating lock: LIFO entry segment, alternating admission"
            " waves, constant space (arXiv:2501.02380)",
            [](const resolved_params&) {
              return std::make_unique<reciprocating_lock>();
            }},
      // -- fp composites (cohort/fastpath.hpp) -------------------------------
      entry{"C-BO-BO-fp", lock_family::fp_composite, false, true, true, true,
            "C-BO-BO behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_bo_bo_fp_lock>(rp.fpp, rp.pp,
                                                       rp.clusters);
            }},
      entry{"C-TKT-TKT-fp", lock_family::fp_composite, false, true, true, true,
            "C-TKT-TKT behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_tkt_tkt_fp_lock>(rp.fpp, rp.pp,
                                                         rp.clusters);
            }},
      entry{"C-BO-MCS-fp", lock_family::fp_composite, false, true, true, true,
            "C-BO-MCS behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_bo_mcs_fp_lock>(rp.fpp, rp.pp,
                                                        rp.clusters);
            }},
      entry{"C-TKT-MCS-fp", lock_family::fp_composite, false, true, true, true,
            "C-TKT-MCS behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_tkt_mcs_fp_lock>(rp.fpp, rp.pp,
                                                         rp.clusters);
            }},
      entry{"C-MCS-MCS-fp", lock_family::fp_composite, false, true, true, true,
            "C-MCS-MCS behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_mcs_mcs_fp_lock>(rp.fpp, rp.pp,
                                                         rp.clusters);
            }},
      entry{"C-PARK-MCS-fp", lock_family::fp_composite, false, true, true,
            true, "C-PARK-MCS behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<c_park_mcs_fp_lock>(rp.fpp, rp.pp,
                                                          rp.clusters);
            }},
      entry{"A-C-BO-BO-fp", lock_family::fp_composite, false, true, true,
            true, "A-C-BO-BO behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<a_c_bo_bo_fp_lock>(rp.fpp, rp.pp,
                                                         rp.clusters);
            }},
      entry{"A-C-BO-CLH-fp", lock_family::fp_composite, false, true, true,
            true, "A-C-BO-CLH behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<a_c_bo_clh_fp_lock>(rp.fpp, rp.pp,
                                                          rp.clusters);
            }},
      entry{"cna-fp", lock_family::fp_composite, false, true, true, true,
            "CNA behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<cna_fp_lock>(rp.fpp, rp.pp);
            }},
      entry{"reciprocating-fp", lock_family::fp_composite, false, false,
            false, true, "Reciprocating behind a fissile fast path",
            [](const resolved_params& rp) {
              return std::make_unique<reciprocating_fp_lock>(rp.fpp);
            }},
      // -- gcr admission wrappers (cohort/gcr.hpp) ---------------------------
      // Not fp_composable: the admission gate parks surplus threads, so a
      // fissile gate *outside* it would let fast acquirers bypass admission;
      // compose the other way around (gcr-*-fp wraps the -fp lock inside).
      entry{"gcr-TATAS", lock_family::gcr, false, false, false, false,
            "TATAS behind a GCR admission gate (arXiv:1905.10818)",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_tatas_lock>(rp.gp);
            }},
      entry{"gcr-C-BO-MCS", lock_family::gcr, false, true, true, false,
            "C-BO-MCS behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_c_bo_mcs_lock>(rp.gp, rp.pp,
                                                         rp.clusters);
            }},
      entry{"gcr-C-MCS-MCS", lock_family::gcr, false, true, true, false,
            "C-MCS-MCS behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_c_mcs_mcs_lock>(rp.gp, rp.pp,
                                                          rp.clusters);
            }},
      entry{"gcr-cna", lock_family::gcr, false, true, true, false,
            "CNA behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_cna_lock>(rp.gp, rp.pp);
            }},
      entry{"gcr-reciprocating", lock_family::gcr, false, false, false, false,
            "Reciprocating behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_reciprocating_lock>(rp.gp);
            }},
      entry{"gcr-C-BO-MCS-fp", lock_family::gcr, false, true, true, true,
            "C-BO-MCS-fp behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_c_bo_mcs_fp_lock>(rp.gp, rp.fpp,
                                                            rp.pp,
                                                            rp.clusters);
            }},
      entry{"gcr-C-MCS-MCS-fp", lock_family::gcr, false, true, true, true,
            "C-MCS-MCS-fp behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_c_mcs_mcs_fp_lock>(rp.gp, rp.fpp,
                                                             rp.pp,
                                                             rp.clusters);
            }},
      entry{"gcr-cna-fp", lock_family::gcr, false, true, true, true,
            "cna-fp behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_cna_fp_lock>(rp.gp, rp.fpp, rp.pp);
            }},
      entry{"gcr-reciprocating-fp", lock_family::gcr, false, false, false,
            true, "reciprocating-fp behind a GCR admission gate",
            [](const resolved_params& rp) {
              return std::make_unique<gcr_reciprocating_fp_lock>(rp.gp,
                                                                 rp.fpp);
            }},
  };
  return table;
}

}  // namespace detail

// Invokes fn with a zero-argument factory for the named lock type.  Returns
// false for unknown names.  fn must be a generic callable (it is
// instantiated once per lock type).
template <typename Fn>
bool with_lock_type(const std::string& name, const lock_params& lp, Fn&& fn) {
  const detail::resolved_params rp = detail::resolve(lp);
  bool found = false;
  auto try_one = [&](const auto& e) {
    if (found || name != e.name) return;
    found = true;
    fn([&] { return e.make(rp); });
  };
  std::apply([&](const auto&... e) { (try_one(e), ...); }, detail::entries());
  return found;
}

// Descriptor list, one per registered lock, in registry order.
const std::vector<lock_descriptor>& all_locks();
// nullptr for unknown names.
const lock_descriptor* find_lock(const std::string& name);

// Near-miss candidates for a name find_lock rejected: case-insensitive
// prefix matches first, then small edit distances, registry order breaking
// ties.  Empty when nothing is plausibly close.
std::vector<std::string> suggest_lock_names(const std::string& name,
                                            std::size_t max_out = 3);
// The one diagnostic every consumer (bench CLI, workloads, server) prints
// for a failed lookup: "unknown lock 'X'; did you mean ...?".
std::string unknown_lock_message(const std::string& name);

// Canonical name list, in the order the paper's evaluation introduces them.
const std::vector<std::string>& all_lock_names();
// The subset exposing batching statistics (caps.reports_batch_stats): the
// cohort compositions, their -fp composites, and the compact locks.
const std::vector<std::string>& cohort_lock_names();
// The subset supporting bounded-patience acquisition (caps.abortable).
const std::vector<std::string>& abortable_lock_names();
// The application-benchmark comparison set (the real-machine analogue of the
// sim registry's table1_lock_names()).
const std::vector<std::string>& table_lock_names();

bool is_lock_name(const std::string& name);

}  // namespace cohort::reg
