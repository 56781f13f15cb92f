// The type-erased lock handle and the construction-parameter structs --
// split out of locks/registry.hpp so code that only decorates or consumes
// the handle (a timing decorator, say) can use it without including the
// full compile-time entry table.
//
// Everything here is re-exported by registry.hpp; consumers that also need
// name lookup (with_lock_type, all_locks, find_lock) keep including that.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cohort/cohort_lock.hpp"
#include "cohort/core.hpp"

namespace cohort::reg {

// ---- construction parameters ------------------------------------------------

// Cohort-transformation knobs (cohort_lock and the CNA starvation bound).
struct cohort_knobs {
  std::uint64_t pass_limit = 64;  // may-pass-local bound (paper §3.7)
};

// Fast-path hysteresis for the -fp locks (cohort/fastpath.hpp).  0 means
// "default": the COHORT_FISSION_LIMIT / COHORT_REENGAGE_DRAINS environment
// variables when set (so long-lived consumers like the server tune without
// new flags), else the compiled 8/4.  A literal 0 is not reachable --
// disengaging after zero failures is the same machine as limit 1.
struct fastpath_knobs {
  std::uint32_t fission_limit = 0;
  std::uint32_t reengage_drains = 0;
};

// Admission knobs for the gcr- locks (cohort/gcr.hpp).  0 means "default":
// the COHORT_GCR_MIN_ACTIVE / COHORT_GCR_MAX_ACTIVE / COHORT_GCR_ROTATION /
// COHORT_GCR_TUNE_WINDOW environment variables when set, else the compiled
// gcr_policy defaults (max_active additionally resolving 0 to the online
// CPU count inside the combinator).
struct gcr_knobs {
  std::uint32_t min_active = 0;
  std::uint32_t max_active = 0;
  std::uint32_t rotation_interval = 0;
  std::uint32_t tune_window = 0;
};

// Per-family sub-structs: a lock only reads the knobs its family honours
// (lock_descriptor::uses_pass_limit / uses_fp_knobs / uses_gcr_knobs say
// which), and JSON records only report honoured knobs.
struct lock_params {
  unsigned clusters = 0;  // 0 = ask numa::system_topology()
  cohort_knobs cohort{};
  fastpath_knobs fp{};
  gcr_knobs gcr{};
};

// ---- type-erased handle -----------------------------------------------------

// Batching/handoff counters in a lock-agnostic shape.  Abortable locks'
// extra timeout counters are sliced off; the harness counts timeouts itself.
using erased_stats = cohort_stats;

class any_lock {
 public:
  virtual ~any_lock() = default;

  // Movable per-thread acquisition context; destroys itself through the
  // owning lock.  Must not outlive the lock.
  class context {
   public:
    context() = default;
    context(context&& o) noexcept : owner_(o.owner_), p_(o.p_) {
      o.owner_ = nullptr;
      o.p_ = nullptr;
    }
    context& operator=(context&& o) noexcept {
      if (this != &o) {
        reset();
        owner_ = o.owner_;
        p_ = o.p_;
        o.owner_ = nullptr;
        o.p_ = nullptr;
      }
      return *this;
    }
    context(const context&) = delete;
    context& operator=(const context&) = delete;
    ~context() { reset(); }

    void reset() {
      if (owner_ != nullptr) owner_->destroy_context(p_);
      owner_ = nullptr;
      p_ = nullptr;
    }

   private:
    friend class any_lock;
    context(any_lock* owner, void* p) : owner_(owner), p_(p) {}
    any_lock* owner_ = nullptr;
    void* p_ = nullptr;
  };

  context make_context() { return context(this, create_context()); }

  void lock(context& c) { do_lock(c.p_); }
  // The unified unlock contract: every registry lock reports how it
  // released (core.hpp).  Plain and queue locks report release_kind::none.
  release_kind unlock(context& c) { return do_unlock(c.p_); }

  // Bounded-patience acquisition; non-abortable locks block and return true.
  bool try_lock_for(context& c, std::chrono::nanoseconds patience) {
    return do_try_lock(c.p_, deadline_after(patience));
  }

  virtual const std::string& name() const = 0;
  virtual bool abortable() const = 0;
  // Present only for stats-reporting locks; reads are only meaningful while
  // the lock is quiescent.
  virtual std::optional<erased_stats> stats() const = 0;

 protected:
  virtual void* create_context() = 0;
  virtual void destroy_context(void* p) = 0;
  virtual void do_lock(void* p) = 0;
  virtual release_kind do_unlock(void* p) = 0;
  virtual bool do_try_lock(void* p, deadline d) = 0;
};

// Constructs the named lock behind a type-erased handle; nullptr for unknown
// names.  (Defined with the registry table in registry.cpp.)
std::unique_ptr<any_lock> make_lock(const std::string& name,
                                    const lock_params& lp = {});

}  // namespace cohort::reg
