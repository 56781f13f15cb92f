// Minimal coroutine task type for simulated threads.
//
// Simulated hardware threads are coroutines: a memory access or delay
// suspends the coroutine and registers a wake-up event in the discrete-event
// engine.  task<T> supports nesting with symmetric transfer, so lock
// algorithms compose exactly like ordinary functions:
//
//   sim::task<release_kind> lock(thread_ctx& t) { co_await word_.cas(...); }
//   ...
//   auto k = co_await local_.lock(t);
//
// Tasks are lazy (started when awaited); top-level tasks are started by the
// engine.  Simulator code never throws across coroutine boundaries, so
// unhandled_exception terminates.
//
// Every lock operation and access helper is a coroutine, so frames are
// allocated and freed at the simulation's event rate.  They come from
// per-thread free lists, one per 64-byte size class; the cached frames are
// freed at thread exit.  Under AddressSanitizer a cached frame is poisoned,
// so resuming or destroying a dangling handle is still reported.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define SIM_TASK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIM_TASK_ASAN 1
#endif
#endif
#ifdef SIM_TASK_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace sim {

namespace detail {

inline void poison_frame([[maybe_unused]] void* p,
                         [[maybe_unused]] std::size_t n) noexcept {
#ifdef SIM_TASK_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

inline void unpoison_frame([[maybe_unused]] void* p,
                           [[maybe_unused]] std::size_t n) noexcept {
#ifdef SIM_TASK_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

class frame_pool {
 public:
  frame_pool(const frame_pool&) = delete;
  frame_pool& operator=(const frame_pool&) = delete;

  static constexpr std::size_t granule = 64;
  static constexpr std::size_t classes = 16;  // frames up to 1 KiB

  static void* allocate(std::size_t n) {
    const std::size_t c = class_of(n);
    if (c >= classes) return ::operator new(n);
    void*& head = local().free_[c];
    void* p = head;
    if (p == nullptr) return ::operator new((c + 1) * granule);
    unpoison_frame(p, (c + 1) * granule);
    head = *static_cast<void**>(p);
    return p;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = class_of(n);
    if (c >= classes) {
      ::operator delete(p);
      return;
    }
    void*& head = local().free_[c];
    *static_cast<void**>(p) = head;
    head = p;
    poison_frame(p, (c + 1) * granule);
  }

 private:
  static std::size_t class_of(std::size_t n) noexcept {
    return (n + granule - 1) / granule - 1;
  }
  static frame_pool& local() noexcept {
    static thread_local frame_pool pool;
    return pool;
  }

  frame_pool() = default;
  ~frame_pool() {
    for (std::size_t c = 0; c < classes; ++c) {
      while (void* p = free_[c]) {
        unpoison_frame(p, (c + 1) * granule);
        free_[c] = *static_cast<void**>(p);
        ::operator delete(p);
      }
    }
  }

  void* free_[classes] = {};
};

struct final_awaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Resume whoever co_awaited us; top-level tasks have no continuation.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct promise_common {
  static void* operator new(std::size_t n) { return frame_pool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    frame_pool::deallocate(p, n);
  }

  std::coroutine_handle<> continuation = nullptr;
  std::suspend_always initial_suspend() const noexcept { return {}; }
  final_awaiter final_suspend() const noexcept { return {}; }
  void unhandled_exception() noexcept { std::abort(); }
};

}  // namespace detail

template <typename T = void>
class [[nodiscard]] task {
 public:
  struct promise_type : detail::promise_common {
    T value{};
    task get_return_object() {
      return task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) noexcept { value = std::move(v); }
  };

  task() = default;
  task(task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  task& operator=(task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  task(const task&) = delete;
  task& operator=(const task&) = delete;
  ~task() { destroy(); }

  // Awaiting a task starts it (symmetric transfer).
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    h_.promise().continuation = awaiting;
    return h_;
  }
  T await_resume() { return std::move(h_.promise().value); }

  std::coroutine_handle<> handle() const noexcept { return h_; }

 private:
  explicit task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_ = nullptr;
};

template <>
class [[nodiscard]] task<void> {
 public:
  struct promise_type : detail::promise_common {
    task get_return_object() {
      return task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() const noexcept {}
  };

  task() = default;
  task(task&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  task& operator=(task&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  task(const task&) = delete;
  task& operator=(const task&) = delete;
  ~task() { destroy(); }

  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiting) {
    h_.promise().continuation = awaiting;
    return h_;
  }
  void await_resume() const noexcept {}

  std::coroutine_handle<> handle() const noexcept { return h_; }

 private:
  explicit task(std::coroutine_handle<promise_type> h) : h_(h) {}
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_ = nullptr;
};

}  // namespace sim
