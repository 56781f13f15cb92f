// Name-based dispatch over the simulated lock types, shared by the three
// simulated workloads (lbench, kvsim, mallocsim).  Lock names follow the
// paper's figures and tables.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/locks/blocking.hpp"
#include "sim/locks/clh.hpp"
#include "sim/locks/cohort.hpp"
#include "sim/locks/locks.hpp"
#include "sim/locks/numa_baselines.hpp"

namespace sim {

struct lock_params {
  unsigned clusters = 4;
  std::uint64_t pass_limit = 64;  // cohort may-pass-local bound (§3.7)
};

// Uniform lock/unlock shims: some simulated locks are context-free.  They
// hand back the lock's own task rather than awaiting it in a coroutine of
// their own, so an acquire or release costs no extra frame.  Every
// registered lock's lock/unlock returns task<void> and try_lock task<bool>.
template <typename Lock, typename Ctx>
task<void> do_lock(Lock& l, thread_ctx& t, Ctx& c) {
  if constexpr (requires { l.lock(t, c); })
    return l.lock(t, c);
  else
    return l.lock(t);
}

template <typename Lock, typename Ctx>
task<void> do_unlock(Lock& l, thread_ctx& t, Ctx& c) {
  if constexpr (requires { l.unlock(t, c); })
    return l.unlock(t, c);
  else
    return l.unlock(t);
}

// try-lock shim for the abortable locks (A-CLH, A-HBO, A-C-BO-*).
template <typename Lock, typename Ctx>
task<bool> do_try_lock(Lock& l, thread_ctx& t, Ctx& c, tick deadline_at) {
  if constexpr (requires { l.try_lock(t, c, deadline_at); })
    return l.try_lock(t, c, deadline_at);
  else
    return l.try_lock(t, deadline_at);
}

// Average cohort batch length when the lock exposes cohort stats; 0 else.
template <typename Lock>
double avg_batch_of(const Lock& l) {
  if constexpr (requires { l.stats(); }) {
    const auto s = l.stats();
    return s.global_acquires == 0
               ? 0.0
               : static_cast<double>(s.acquisitions) /
                     static_cast<double>(s.global_acquires);
  } else {
    return 0.0;
  }
}

// Invokes fn with a factory `engine& -> std::unique_ptr<LockType>` for the
// named lock.  Returns false for unknown names.  fn must be a generic
// callable (it is instantiated once per lock type).
template <typename Fn>
bool with_lock_type(const std::string& name, const lock_params& lp, Fn&& fn) {
  const unsigned k = lp.clusters;
  const std::uint64_t pl = lp.pass_limit;
  if (name == "MCS") {
    fn([](engine& e) { return std::make_unique<s_mcs_lock>(e); });
  } else if (name == "BO") {
    fn([](engine& e) {
      return std::make_unique<s_bo_lock<exp_backoff_policy>>(e);
    });
  } else if (name == "Fib-BO") {
    fn([](engine& e) {
      return std::make_unique<s_bo_lock<fib_backoff_policy>>(e);
    });
  } else if (name == "pthread") {
    fn([](engine& e) { return std::make_unique<s_blocking_lock>(e); });
  } else if (name == "HBO") {
    fn([](engine& e) {
      return std::make_unique<s_hbo_lock>(e, s_hbo_microbench_tuning());
    });
  } else if (name == "HBO-tuned") {
    fn([](engine& e) {
      return std::make_unique<s_hbo_lock>(e, s_hbo_memcached_tuning());
    });
  } else if (name == "HCLH") {
    fn([k](engine& e) { return std::make_unique<s_hclh_lock>(e, k); });
  } else if (name == "FC-MCS") {
    fn([k](engine& e) { return std::make_unique<s_fcmcs_lock>(e, k); });
  } else if (name == "C-BO-BO") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_c_bo_bo_lock>(e, k, pl);
    });
  } else if (name == "C-TKT-TKT") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_c_tkt_tkt_lock>(e, k, pl);
    });
  } else if (name == "C-BO-MCS") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_c_bo_mcs_lock>(e, k, pl);
    });
  } else if (name == "C-TKT-MCS") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_c_tkt_mcs_lock>(e, k, pl);
    });
  } else if (name == "C-MCS-MCS") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_c_mcs_mcs_lock>(e, k, pl);
    });
  } else {
    return false;
  }
  return true;
}

// Abortable locks (Figure 6).
template <typename Fn>
bool with_abortable_lock_type(const std::string& name, const lock_params& lp,
                              Fn&& fn) {
  const unsigned k = lp.clusters;
  const std::uint64_t pl = lp.pass_limit;
  if (name == "A-CLH") {
    fn([](engine& e) { return std::make_unique<s_aclh_lock>(e); });
  } else if (name == "A-HBO") {
    fn([](engine& e) {
      return std::make_unique<s_hbo_lock>(e, s_hbo_microbench_tuning());
    });
  } else if (name == "A-C-BO-BO") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_a_c_bo_bo_lock>(e, k, pl);
    });
  } else if (name == "A-C-BO-CLH") {
    fn([k, pl](engine& e) {
      return std::make_unique<s_a_c_bo_clh_lock>(e, k, pl);
    });
  } else {
    return false;
  }
  return true;
}

// Canonical name lists in the order the paper's figures plot them.
const std::vector<std::string>& fig2_lock_names();
const std::vector<std::string>& fig6_lock_names();
const std::vector<std::string>& table1_lock_names();
const std::vector<std::string>& table2_lock_names();

}  // namespace sim
