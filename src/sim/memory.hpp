// Simulated memory: cache lines with cluster-granularity MESI-style state,
// atoms (simulated atomic words), and spin-on-read waiting.
//
// Model (one "cache" per cluster, matching the T5440's per-chip L2):
//   * a line is either Modified in one cluster or Shared in a set of
//     clusters;
//   * an access that must be served from another cluster's cache is a
//     *coherence miss* (the quantity Figure 3 reports) and crosses the
//     shared interconnect, which queues under load;
//   * a spinning thread holds a Shared copy and pays nothing while the line
//     is quiet; any write pops all waiters, who then re-read (paying the
//     refetch, serialised through the line and the interconnect) -- this is
//     what makes global spinning (TATAS) storm and local spinning (MCS/CLH)
//     cheap, the paper's central mechanism.
//
// Determinism: the engine is single-threaded; accesses to one line serialise
// through line_state::busy_until; value changes apply at an access's
// completion event.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace sim {

struct line_state {
  static constexpr unsigned no_owner = ~0u;
  unsigned owner = no_owner;   // cluster holding the Modified copy
  std::uint32_t sharers = 0;   // bitmask of clusters holding Shared copies
  bool modified = false;
  bool ever_touched = false;   // cold-miss bookkeeping
  tick busy_until = 0;         // per-line serialisation point
};

// Performs the coherence transition for an access by `cluster` and returns
// the delay until completion (relative to eng.now()).  Updates counters.
tick line_access(engine& eng, line_state& line, unsigned cluster, bool write);

// A cache line holding application data (no simulated value, no waiters).
class dataline {
 public:
  explicit dataline(engine& eng) : eng_(&eng) {}
  dataline(const dataline&) = delete;
  dataline& operator=(const dataline&) = delete;

  struct access_awaiter {
    engine* eng;
    line_state* line;
    unsigned cluster;
    bool is_write;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) const {
      const tick d = line_access(*eng, *line, cluster, is_write);
      return eng->resume_at(eng->now() + d, h);
    }
    void await_resume() const noexcept {}
  };

  access_awaiter write(thread_ctx& t) {
    return {eng_, &line_, t.cluster, true};
  }
  access_awaiter read(thread_ctx& t) {
    return {eng_, &line_, t.cluster, false};
  }

 private:
  engine* eng_;
  line_state line_;
};

// Result of a simulated compare-and-swap.
struct cas_result {
  bool ok;
  std::uint64_t old_value;
};

// Predicate for wait_until; captureless lambdas convert implicitly.
using wait_pred = bool (*)(std::uint64_t value, std::uint64_t arg);

// A simulated atomic word residing on its own cache line.
class atom {
 public:
  explicit atom(engine& eng, std::uint64_t init = 0)
      : eng_(&eng), value_(init) {}
  atom(const atom&) = delete;
  atom& operator=(const atom&) = delete;

  // ---- plain accesses (each is one coherence transaction) ---------------

  struct base_awaiter {
    atom* a;
    unsigned cluster;
    bool is_write;
    bool await_ready() const noexcept { return false; }
    // Continues inline when the completion would be the next event anyway
    // (engine::resume_at).
    bool await_suspend(std::coroutine_handle<> h) const {
      const tick d = line_access(*a->eng_, a->line_, cluster, is_write);
      return a->eng_->resume_at(a->eng_->now() + d, h);
    }
    // Value mutation and waiter wake-up happen at the access's *completion*
    // event (await_resume).  Waking at completion (not issue) is what makes
    // the model lost-wakeup-free: a waiter that loads a stale value and
    // registers while a write is in flight is still on the list when the
    // write completes.
    void wake() const { a->schedule_wakes(a->eng_->now()); }
  };

  struct load_awaiter : base_awaiter {
    std::uint64_t await_resume() const noexcept { return this->a->value_; }
  };
  struct store_awaiter : base_awaiter {
    std::uint64_t v;
    void await_resume() const {
      this->a->value_ = v;
      this->wake();
    }
  };
  struct exchange_awaiter : base_awaiter {
    std::uint64_t v;
    std::uint64_t await_resume() const {
      const std::uint64_t old = this->a->value_;
      this->a->value_ = v;
      this->wake();
      return old;
    }
  };
  struct fetch_add_awaiter : base_awaiter {
    std::uint64_t d;
    std::uint64_t await_resume() const {
      const std::uint64_t old = this->a->value_;
      this->a->value_ = old + d;
      this->wake();
      return old;
    }
  };
  struct cas_awaiter : base_awaiter {
    std::uint64_t expect;
    std::uint64_t desired;
    cas_result await_resume() const {
      const std::uint64_t old = this->a->value_;
      if (old == expect) this->a->value_ = desired;
      // A failed CAS still acquired the line exclusively: it invalidated
      // shared copies, so waiters re-read either way.
      this->wake();
      return {old == expect, old};
    }
  };

  load_awaiter load(thread_ctx& t) { return {{this, t.cluster, false}}; }
  store_awaiter store(thread_ctx& t, std::uint64_t v) {
    return {{this, t.cluster, true}, v};
  }
  exchange_awaiter exchange(thread_ctx& t, std::uint64_t v) {
    return {{this, t.cluster, true}, v};
  }
  fetch_add_awaiter fetch_add(thread_ctx& t, std::uint64_t d) {
    return {{this, t.cluster, true}, d};
  }
  // Note: a failed CAS still acquires the line exclusively (as on real
  // hardware), so it is charged and invalidates like a write.
  cas_awaiter cas(thread_ctx& t, std::uint64_t expect, std::uint64_t desired) {
    return {{this, t.cluster, true}, expect, desired};
  }

  // ---- spin-on-read waiting ----------------------------------------------

  // Spins (in simulated time) until pred(value, arg) is true; returns the
  // observed value.  While suspended the thread holds a Shared copy and
  // costs nothing; every write wakes it for a charged re-read.
  task<std::uint64_t> wait_until(thread_ctx& t, wait_pred pred,
                                 std::uint64_t arg);

  // As wait_until but gives up at absolute virtual time deadline_at.
  task<std::optional<std::uint64_t>> wait_until_for(thread_ctx& t,
                                                    wait_pred pred,
                                                    std::uint64_t arg,
                                                    tick deadline_at);

  // Uninstrumented accessors for initialisation and test assertions.
  std::uint64_t peek() const noexcept { return value_; }
  void poke(std::uint64_t v) noexcept { value_ = v; }

 private:
  friend class engine;

  struct wait_awaiter {
    atom* a;
    thread_ctx* t;
    tick deadline_at;  // tick_max when none
    std::coroutine_handle<> handle;
    bool timed_out = false;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    // Returns false when the wait ended by timeout.
    bool await_resume() const noexcept { return !timed_out; }
  };

  wait_awaiter suspend_wait(thread_ctx& t, tick deadline_at) {
    return {this, &t, deadline_at, nullptr, false};
  }

  // Pops all waiters and schedules their wake events at `at`.
  void schedule_wakes(tick at);

  engine* eng_;
  std::uint64_t value_;
  line_state line_;
  std::vector<thread_ctx*> waiters_;
};

}  // namespace sim
