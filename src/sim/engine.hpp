// Discrete-event engine simulating a CC-NUMA machine.
//
// The simulator substitutes for the paper's Oracle T5440 testbed (see
// DESIGN.md §2): simulated hardware threads are coroutines; time is virtual;
// every cache/coherence interaction is an engine event.  Runs are fully
// deterministic: events at equal timestamps fire in insertion order, and all
// randomness comes from seeded per-thread PRNGs.
//
// The event queue is a calendar queue: events due within near_window ticks
// of now() sit in per-tick FIFO buckets found through an occupancy bitmap;
// later ones wait in a small binary heap ordered by (time, insertion).  A
// far event always fires before a near event due on the same tick, because
// it was scheduled earlier (a near event for tick T is scheduled after
// now() passed T - near_window; a far one before), so the firing order is
// exactly (time, insertion).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "sim/task.hpp"
#include "util/rng.hpp"

namespace sim {

using tick = std::uint64_t;  // virtual nanoseconds
inline constexpr tick tick_max = std::numeric_limits<tick>::max();

// Latency/contention parameters of the simulated machine.  Defaults model a
// T5440-like box: 4 clusters, remote L2 transfers roughly 4-5x the cost of a
// local L2 hit plus a shared interconnect that queues under load.
struct config {
  unsigned clusters = 4;

  // Light-load remote/local ratio is ~4x, matching the paper's measurement;
  // interconnect_service is channel *occupancy* (capacity = 1/service), so
  // under heavy cross-chip traffic remote latency degrades via queueing.
  tick local_hit = 15;        // L2 hit / same-cluster transfer (ns)
  tick remote_wire = 120;     // uncontended remote-transfer latency (ns)
  tick interconnect_service = 50;   // channel occupancy per remote transfer
  tick cold_miss = 120;       // first-touch fetch from memory
  tick line_occupancy = 20;   // line serialisation for remotely-served accesses

  // Blocking (pthread-style) lock costs.
  tick park_cost = 1500;      // syscall + context switch to sleep
  tick unpark_cost = 800;     // releaser-side cost of waking a sleeper
  tick wakeup_latency = 2500; // parked thread's sleep-to-running latency
};

class engine;

// One simulated hardware thread.  Owned by the engine (stable address).
struct thread_ctx {
  unsigned id = 0;
  unsigned cluster = 0;
  engine* eng = nullptr;
  cohort::xorshift rng{1};

  // Workload-maintained counters.
  std::uint64_t ops = 0;
  std::uint64_t aborts = 0;

  // Waiter bookkeeping (see memory.hpp).  A thread has at most one
  // outstanding wait; epoch guards stale wake/timeout events.
  std::uint64_t wait_epoch = 0;
  void* current_wait = nullptr;
  bool wake_pending = false;
};

class engine {
 public:
  explicit engine(config cfg);
  ~engine();
  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  const config& cfg() const noexcept { return cfg_; }
  tick now() const noexcept { return now_; }

  thread_ctx& add_thread(unsigned cluster);
  std::size_t threads() const noexcept { return threads_.size(); }
  thread_ctx& thread(std::size_t i) { return threads_[i]; }

  // Registers a top-level coroutine and schedules its start at now().
  void spawn(task<void> t);

  // Runs until the event queue drains or virtual time exceeds hard_stop
  // (safety net for starvation-prone locks such as HBO).  Not reentrant.
  void run(tick hard_stop = tick_max);

  // Events due less than this many ticks after now() go to the per-tick
  // buckets; later ones to the far heap.
  static constexpr tick near_window = 8192;

  // ---- scheduling primitives (used by awaitables and memory model) -------
  // Scheduling before now() is a bug (asserted).

  void schedule_resume(tick at, std::coroutine_handle<> h);

  // Suspension point for an awaiter whose coroutine continues at `at`.
  // Inside run(), when no queued event is due at or before `at` and `at`
  // is within the run's hard stop, the wake-up event would be the next one
  // popped anyway: advances now() to `at` and returns false, so the
  // coroutine continues inline.  Otherwise schedules h and returns true.
  bool resume_at(tick at, std::coroutine_handle<> h) {
    if (running_ && at <= hard_stop_ && at < next_due()) {
      now_ = at;
      return false;
    }
    schedule_resume(at, h);
    return true;
  }

  // Thread-targeted events, guarded by the thread's wait_epoch at creation
  // time; stale events are dropped.  kind is interpreted by the memory
  // system (wake vs timeout).
  enum class thread_event_kind : std::uint8_t { wake, timeout };
  void schedule_thread_event(tick at, thread_ctx* t, std::uint64_t epoch,
                             thread_event_kind kind);

  struct delay_awaiter {
    engine* eng;
    tick d;
    bool await_ready() const noexcept { return d == 0; }
    bool await_suspend(std::coroutine_handle<> h) const {
      return eng->resume_at(eng->now_ + d, h);
    }
    void await_resume() const noexcept {}
  };
  delay_awaiter delay(tick d) { return {this, d}; }

  // Interconnect: a FIFO channel every remote transfer occupies for
  // interconnect_service ns.  Returns the transfer's completion time for a
  // request issued at `at`.
  tick interconnect_transfer(tick at) { return interconnect_transfer_n(at, 1); }

  // n back-to-back channel transactions (e.g. invalidations fanning out to n
  // remote clusters); completion is when the last one lands.
  tick interconnect_transfer_n(tick at, unsigned n);
  tick interconnect_busy_time() const noexcept { return ic_total_busy_; }

  // Memory-system counters (updated by line_access in memory.cpp).
  struct mem_stats {
    std::uint64_t accesses = 0;
    std::uint64_t coherence_misses = 0;  // served from a remote cluster
    std::uint64_t cold_misses = 0;
  };
  mem_stats memstats;

 private:
  friend class memory_system;

  struct event {
    std::coroutine_handle<> resume;  // null for thread events
    thread_ctx* thread = nullptr;
    std::uint64_t epoch = 0;
    thread_event_kind kind = thread_event_kind::wake;
  };

  // Near events: nodes threaded through per-tick FIFO buckets.  A bucket's
  // head/tail are meaningful only while its occupancy bit is set.
  static_assert((near_window & (near_window - 1)) == 0 && near_window >= 64,
                "near_window must be a power of two of at least 64");
  static constexpr std::size_t near_words = near_window / 64;
  static constexpr std::size_t summary_words = (near_words + 63) / 64;
  static constexpr std::uint32_t no_node = ~std::uint32_t{0};
  struct near_node {
    event e;
    std::uint32_t next;
  };
  struct bucket {
    std::uint32_t head, tail;
  };

  // Far events: a binary min-heap on (at, seq).
  struct far_event {
    tick at;
    std::uint64_t seq;  // insertion order breaks ties -> determinism
    event e;
  };
  struct far_later {
    bool operator()(const far_event& a, const far_event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void push(tick at, const event& e);
  event pop(tick at);  // removes the first event due at `at` == next_due()
  // Earliest queued event time, tick_max when none.  Cached: a push lowers
  // the cache, a pop invalidates it unless its bucket still holds events.
  tick next_due() {
    if (!due_valid_) {
      due_ = find_next_due();
      due_valid_ = true;
    }
    return due_;
  }
  tick find_next_due() const;
  // First occupied bucket index >= from, or near_window when none.
  std::size_t first_occupied_from(std::size_t from) const;
  void set_occupied(std::size_t b);
  void clear_occupied(std::size_t b);

  void dispatch(const event& e);
  void dispatch_thread_event(const event& e);

  config cfg_;
  tick now_ = 0;
  bool running_ = false;
  tick hard_stop_ = tick_max;

  std::vector<bucket> buckets_;
  std::vector<near_node> nodes_;
  std::uint32_t free_node_ = no_node;
  std::size_t near_count_ = 0;
  std::uint64_t occupied_[near_words] = {};
  std::uint64_t summary_[summary_words] = {};  // bit w: occupied_[w] != 0
  std::vector<far_event> far_;
  std::uint64_t seq_ = 0;
  tick due_ = tick_max;
  bool due_valid_ = true;

  std::deque<thread_ctx> threads_;
  std::vector<task<void>> tasks_;

  tick ic_busy_until_ = 0;
  tick ic_total_busy_ = 0;
};

}  // namespace sim
