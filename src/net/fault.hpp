// Deterministic fault injection behind the io_ops seam (DESIGN.md §10).
//
// A fault_plan is a set of per-operation probabilities: on each read the
// injector may return EINTR, EAGAIN, ECONNRESET, or deliver only a random
// prefix of what the kernel had (short read); on each send it may do the
// same plus short writes; accept4 may fail with EINTR or EMFILE (fd
// exhaustion); connect may fail with EINTR; any faulty op may first stall
// the calling thread for a bounded time (slowloris / scheduling-jitter
// simulation).  All draws come from thread-local xorshift streams expanded
// from the plan seed with splitmix64, so a plan with a fixed seed produces
// the same per-thread fault schedule run over run -- chaos tests are
// reproducible, not flaky.
//
// Faults are injected *before* the real syscall for error results, and
// *after* it for short I/O (the injector truncates what the kernel
// returned; it never invents data).  Every injection bumps a process-wide
// counter, so tests and the server's quiescent report can assert the plan
// actually fired and bound the damage it may have caused.
//
// Install/clear are meant for quiescent moments (a plan swap mid-run is
// safe -- readers see either table -- but the counters then mix plans).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace cohort::net {

struct fault_plan {
  std::uint64_t seed = 1;
  // Per-op probabilities in [0, 1].  Each is drawn independently.
  double short_read = 0;   // deliver a random prefix of a successful read
  double short_write = 0;  // accept only a random prefix of a send
  double eintr = 0;        // read/send/accept/connect fail with EINTR
  double eagain = 0;       // read/send fail with EAGAIN
  double reset = 0;        // read/send fail with ECONNRESET
  double emfile = 0;       // accept4 fails with EMFILE
  double stall = 0;        // op sleeps stall_us first (bounded)
  std::uint32_t stall_us = 1000;  // clamped to [1, 100000]

  bool active() const {
    return short_read > 0 || short_write > 0 || eintr > 0 || eagain > 0 ||
           reset > 0 || emfile > 0 || stall > 0;
  }
};

// Process-wide injection counters (multi-writer, relaxed).
struct fault_counters {
  std::atomic<std::uint64_t> short_reads{0};
  std::atomic<std::uint64_t> short_writes{0};
  std::atomic<std::uint64_t> eintrs{0};
  std::atomic<std::uint64_t> eagains{0};
  std::atomic<std::uint64_t> resets{0};
  std::atomic<std::uint64_t> emfiles{0};
  std::atomic<std::uint64_t> stalls{0};

  std::uint64_t total() const {
    return short_reads.load(std::memory_order_relaxed) +
           short_writes.load(std::memory_order_relaxed) +
           eintrs.load(std::memory_order_relaxed) +
           eagains.load(std::memory_order_relaxed) +
           resets.load(std::memory_order_relaxed) +
           emfiles.load(std::memory_order_relaxed) +
           stalls.load(std::memory_order_relaxed);
  }
  void reset_all() {
    short_reads.store(0, std::memory_order_relaxed);
    short_writes.store(0, std::memory_order_relaxed);
    eintrs.store(0, std::memory_order_relaxed);
    eagains.store(0, std::memory_order_relaxed);
    resets.store(0, std::memory_order_relaxed);
    emfiles.store(0, std::memory_order_relaxed);
    stalls.store(0, std::memory_order_relaxed);
  }
};

fault_counters& fault_stats() noexcept;

// Parse "seed=42,short_read=0.1,reset=0.02,stall=0.01,stall_us=500".
// Keys: seed, short_read, short_write, eintr, eagain, reset, emfile,
// stall, stall_us.  Returns false (and leaves *out untouched) on an
// unknown key or malformed value; err, when non-null, gets a message.
bool parse_fault_spec(const std::string& spec, fault_plan* out,
                      std::string* err = nullptr);

// Build a plan from COHORT_NET_FAULT_{SEED,SHORT_READ,SHORT_WRITE,EINTR,
// EAGAIN,RESET,EMFILE,STALL,STALL_US}.  Unset variables leave the field at
// its default; the result may be inactive (all zeros) if nothing is set.
fault_plan fault_plan_from_env();

// Install a faulty io_ops table driven by `plan` (a copy is taken) and
// reset the injection counters.  An inactive plan is equivalent to
// clear_fault_plan().
void install_fault_plan(const fault_plan& plan);

// Restore the real io_ops table.  Counters are left readable.
void clear_fault_plan();

// The currently installed plan, or an inactive one if none.
fault_plan current_fault_plan();

}  // namespace cohort::net
