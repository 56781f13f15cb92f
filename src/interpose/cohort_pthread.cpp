// libcohort_pthread.so: installs cohort locks under the pthread_mutex API.
//
// This is the paper's deployment vehicle (§4.2): memcached was evaluated
// *without touching its sources or binary* by LD_PRELOADing an interpose
// library over the dynamically linked pthread functions.  Usage:
//
//   LD_PRELOAD=./libcohort_pthread.so ./your_program
//
// Every pthread_mutex_t is transparently backed by a C-TKT-TKT cohort lock
// (chosen because both its component locks are context-light: the only
// per-acquisition state is the local ticket, kept in a per-thread table).
//
// Scope: pthread_mutex_lock / trylock / unlock.  Programs that rely on
// pthread_cond_* with interposed mutexes are not supported (condition
// variables reach into the mutex representation); the paper's memcached
// experiment interposed on Solaris which has the same caveat class.
#include <pthread.h>

#include <atomic>
#include <cstdint>

#include "cohort/locks.hpp"
#include "util/spin.hpp"

namespace {

using lock_type = cohort::c_tkt_tkt_lock;

// Fixed-size, lock-free (CAS-insert) open-addressing table from mutex
// address to cohort lock instance.  No allocation on the lock path after
// the lazily constructed singleton; slots are never removed (mutex destroy
// just abandons the slot -- bounded by table capacity).
constexpr std::size_t table_bits = 12;
constexpr std::size_t table_size = 1u << table_bits;  // 4096 distinct mutexes

struct slot {
  std::atomic<pthread_mutex_t*> owner{nullptr};
  // Published by the owner-CAS winner after it claimed the slot; a reader
  // that sees owner == m before the publish waits for it.
  std::atomic<lock_type*> lock{nullptr};
};

struct registry {
  slot slots[table_size];

  // Slot index holding m's lock (claiming a free slot on first use), or
  // table_size when the table is full.
  std::size_t lookup(pthread_mutex_t* m) {
    const std::uintptr_t h =
        (reinterpret_cast<std::uintptr_t>(m) >> 4) * 0x9e3779b97f4a7c15ULL;
    std::size_t i = (h >> (64 - table_bits)) & (table_size - 1);
    for (std::size_t probes = 0; probes < table_size; ++probes) {
      slot& s = slots[i];
      pthread_mutex_t* cur = s.owner.load(std::memory_order_acquire);
      if (cur == nullptr &&
          s.owner.compare_exchange_strong(cur, m, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
        s.lock.store(new lock_type, std::memory_order_release);
        return i;
      }
      if (cur == m) {
        cohort::spin_until([&] {
          return s.lock.load(std::memory_order_acquire) != nullptr;
        });
        return i;
      }
      i = (i + 1) & (table_size - 1);
    }
    return table_size;
  }

  lock_type& lock_at(std::size_t i) {
    return *slots[i].lock.load(std::memory_order_acquire);
  }
};

registry& get_registry() {
  static registry* r = new registry;  // leaked: must outlive everything
  return *r;
}

// Per-thread acquisition contexts, one per registry slot.
thread_local lock_type::context tls_ctx[table_size];

}  // namespace

extern "C" {

int pthread_mutex_lock(pthread_mutex_t* m) {
  registry& r = get_registry();
  const std::size_t i = r.lookup(m);
  if (i == table_size) return 0;
  r.lock_at(i).lock(tls_ctx[i]);
  return 0;
}

int pthread_mutex_trylock(pthread_mutex_t* m) {
  // Cohort locks do not expose try_lock in the non-abortable variant; fall
  // back to a full acquisition (safe: strictly stronger).
  return pthread_mutex_lock(m);
}

int pthread_mutex_unlock(pthread_mutex_t* m) {
  registry& r = get_registry();
  const std::size_t i = r.lookup(m);
  if (i == table_size) return 0;
  r.lock_at(i).unlock(tls_ctx[i]);
  return 0;
}

}  // extern "C"
