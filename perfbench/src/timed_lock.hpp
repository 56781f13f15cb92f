// The traced run's lock-layer probe: an any_lock decorator around a
// registry lock that times wait (the inner lock() call) and hold (lock()
// returning to unlock()).  Shard locks are built through the store's lock
// factory, so the decorator times the locks inside the in-process server as
// well, with no change to the program.
//
// Samples are recorded while the inner lock is held, so the lock itself
// serialises the histogram writers; read them only after every thread that
// used the lock has been joined.  Only acquisitions requested inside the
// recording window are recorded, so the figures line up with one measured
// phase.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "locks/any_lock.hpp"

namespace perfbench {

// What the calling benchmark thread is doing, so hold time can be split by
// store operation.  Server worker threads never set it.
enum class op_tag : unsigned { other = 0, get = 1, set = 2 };
inline thread_local op_tag current_op = op_tag::other;

class timed_lock final : public cohort::reg::any_lock {
 public:
  explicit timed_lock(std::unique_ptr<any_lock> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  bool abortable() const override { return inner_->abortable(); }
  std::optional<cohort::reg::erased_stats> stats() const override {
    return inner_->stats();
  }

  // Record acquisitions requested in [from, to).  Call only while no thread
  // uses the lock.  The bounds are atomics because server threads that
  // will use the lock may already be running; nothing orders them after
  // this call except the sockets.
  void record_between(std::int64_t from, std::int64_t to) {
    from_.store(from, std::memory_order_relaxed);
    to_.store(to, std::memory_order_relaxed);
  }

  const histogram& wait() const { return wait_; }
  const histogram& hold() const { return hold_; }
  const histogram& hold_of(op_tag t) const {
    return hold_by_op_[static_cast<unsigned>(t)];
  }

 protected:
  void* create_context() override {
    return new ctx{inner_->make_context()};
  }
  void destroy_context(void* p) override { delete static_cast<ctx*>(p); }

  void do_lock(void* p) override {
    auto* c = static_cast<ctx*>(p);
    const std::int64_t t0 = now_ns();
    inner_->lock(c->inner);
    acquired(c, t0);
  }

  cohort::release_kind do_unlock(void* p) override {
    auto* c = static_cast<ctx*>(p);
    if (c->recorded) {
      const std::int64_t held = now_ns() - c->acquired_ns;
      hold_.record(held);
      hold_by_op_[static_cast<unsigned>(current_op)].record(held);
    }
    return inner_->unlock(c->inner);
  }

  bool do_try_lock(void* p, cohort::deadline d) override {
    auto* c = static_cast<ctx*>(p);
    const std::int64_t t0 = now_ns();
    if (!inner_->try_lock_for(c->inner, d - cohort::lock_clock::now()))
      return false;
    acquired(c, t0);
    return true;
  }

 private:
  struct ctx {
    any_lock::context inner;
    std::int64_t acquired_ns = 0;
    bool recorded = false;
  };

  void acquired(ctx* c, std::int64_t t0) {
    c->recorded = t0 >= from_.load(std::memory_order_relaxed) &&
                  t0 < to_.load(std::memory_order_relaxed);
    if (!c->recorded) return;
    c->acquired_ns = now_ns();
    wait_.record(c->acquired_ns - t0);
  }

  std::unique_ptr<any_lock> inner_;
  std::atomic<std::int64_t> from_{0};
  std::atomic<std::int64_t> to_{0};
  histogram wait_;
  histogram hold_;
  histogram hold_by_op_[3];
};

}  // namespace perfbench
