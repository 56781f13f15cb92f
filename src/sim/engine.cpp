#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>

#include "sim/memory.hpp"

namespace sim {

namespace {
constexpr tick near_mask = engine::near_window - 1;
}  // namespace

engine::engine(config cfg) : cfg_(cfg), buckets_(near_window) {}

engine::~engine() {
  // Destroying tasks tears down coroutine frames (and, transitively, nested
  // frames); the handles still queued are never touched again.
  tasks_.clear();
}

thread_ctx& engine::add_thread(unsigned cluster) {
  thread_ctx& t = threads_.emplace_back();
  t.id = static_cast<unsigned>(threads_.size() - 1);
  t.cluster = cluster % cfg_.clusters;
  t.eng = this;
  // Independent, reproducible stream per thread.
  t.rng = cohort::xorshift{0xc0401e5ULL * (t.id + 1) + 0x9e3779b97f4a7c15ULL};
  return t;
}

void engine::spawn(task<void> t) {
  schedule_resume(now_, t.handle());
  tasks_.push_back(std::move(t));
}

void engine::run(tick hard_stop) {
  assert(!running_);
  running_ = true;
  hard_stop_ = hard_stop;
  for (;;) {
    const tick at = next_due();
    if (at > hard_stop || (near_count_ == 0 && far_.empty())) break;
    const event e = pop(at);
    now_ = at;
    dispatch(e);
  }
  running_ = false;
}

void engine::schedule_resume(tick at, std::coroutine_handle<> h) {
  push(at, event{h, nullptr, 0, thread_event_kind::wake});
}

void engine::schedule_thread_event(tick at, thread_ctx* t, std::uint64_t epoch,
                                   thread_event_kind kind) {
  push(at, event{nullptr, t, epoch, kind});
}

void engine::push(tick at, const event& e) {
  assert(at >= now_ && "event scheduled in the past");
  if (at - now_ >= near_window) {
    far_.push_back(far_event{at, seq_++, e});
    std::push_heap(far_.begin(), far_.end(), far_later{});
  } else {
    std::uint32_t n = free_node_;
    if (n != no_node) {
      free_node_ = nodes_[n].next;
      nodes_[n] = near_node{e, no_node};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(near_node{e, no_node});
    }
    const std::size_t b = at & near_mask;
    bucket& bk = buckets_[b];
    if (occupied_[b / 64] >> (b % 64) & 1) {
      nodes_[bk.tail].next = n;
    } else {
      bk.head = n;
      set_occupied(b);
    }
    bk.tail = n;
    ++near_count_;
  }
  if (due_valid_ && at < due_) due_ = at;
}

engine::event engine::pop(tick at) {
  // Same tick: the far event was scheduled first (see the header).
  if (!far_.empty() && far_.front().at == at) {
    std::pop_heap(far_.begin(), far_.end(), far_later{});
    const event e = far_.back().e;
    far_.pop_back();
    due_valid_ = false;
    return e;
  }
  const std::size_t b = at & near_mask;
  bucket& bk = buckets_[b];
  const std::uint32_t n = bk.head;
  const event e = nodes_[n].e;
  bk.head = nodes_[n].next;
  nodes_[n].next = free_node_;
  free_node_ = n;
  --near_count_;
  if (bk.head == no_node) {
    clear_occupied(b);
    due_valid_ = false;
  }
  return e;
}

tick engine::find_next_due() const {
  tick due = tick_max;
  if (near_count_ != 0) {
    // Every near event lies in [now, now + near_window), so bucket indices
    // map one-to-one onto ticks, in order from now's bucket round the ring.
    const std::size_t from = now_ & near_mask;
    std::size_t b = first_occupied_from(from);
    if (b == near_window) b = first_occupied_from(0);
    due = now_ + ((b - from) & near_mask);
  }
  if (!far_.empty() && far_.front().at < due) due = far_.front().at;
  return due;
}

std::size_t engine::first_occupied_from(std::size_t from) const {
  std::size_t w = from / 64;
  const std::uint64_t here = occupied_[w] & (~std::uint64_t{0} << (from % 64));
  if (here != 0)
    return w * 64 + static_cast<std::size_t>(__builtin_ctzll(here));
  // The next non-empty word, through the summary bitmap.
  for (std::size_t s = w + 1; s < near_words; s = (s / 64 + 1) * 64) {
    const std::uint64_t bits =
        summary_[s / 64] & (~std::uint64_t{0} << (s % 64));
    if (bits != 0) {
      w = s / 64 * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
      return w * 64 +
             static_cast<std::size_t>(__builtin_ctzll(occupied_[w]));
    }
  }
  return near_window;
}

void engine::set_occupied(std::size_t b) {
  occupied_[b / 64] |= std::uint64_t{1} << (b % 64);
  summary_[b / 64 / 64] |= std::uint64_t{1} << (b / 64 % 64);
}

void engine::clear_occupied(std::size_t b) {
  occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
  if (occupied_[b / 64] == 0)
    summary_[b / 64 / 64] &= ~(std::uint64_t{1} << (b / 64 % 64));
}

void engine::dispatch(const event& e) {
  if (e.thread != nullptr) {
    dispatch_thread_event(e);
  } else {
    e.resume.resume();
  }
}

void engine::dispatch_thread_event(const event& e) {
  thread_ctx* t = e.thread;
  // Stale wake or timeout (the wait it targeted already ended).
  if (t->wait_epoch != e.epoch || t->current_wait == nullptr) return;
  auto* w = static_cast<atom::wait_awaiter*>(t->current_wait);
  t->current_wait = nullptr;
  ++t->wait_epoch;
  w->timed_out = (e.kind == thread_event_kind::timeout);
  w->handle.resume();
}

tick engine::interconnect_transfer_n(tick at, unsigned n) {
  if (n == 0) n = 1;
  const tick start = at > ic_busy_until_ ? at : ic_busy_until_;
  const tick occupancy = cfg_.interconnect_service * n;
  ic_busy_until_ = start + occupancy;
  ic_total_busy_ += occupancy;
  // Latency = queueing (start - at) + wire time; the service occupancy
  // models channel capacity, not per-transfer latency, so an uncontended
  // remote access costs just remote_wire.
  return start + cfg_.remote_wire;
}

}  // namespace sim
