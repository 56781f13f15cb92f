// The syscall seam of the net layer (DESIGN.md §10): every I/O operation
// the server, client, and socket helpers perform on a connection goes
// through this function table instead of calling the libc wrappers
// directly.  The default table forwards straight to the real syscalls; the
// fault layer (net/fault.hpp) installs a wrapping table that injects short
// reads/writes, EINTR/EAGAIN/ECONNRESET, EMFILE on accept, and bounded
// stalls according to a seeded, deterministic plan -- which is what makes
// every error-handling path in the stack testable on demand instead of
// waiting for the kernel to produce the failure.
//
// Cost on the happy path: one relaxed atomic pointer load plus an indirect
// call per I/O operation, noise next to the syscall behind it (the
// acceptance bar for this seam is "within noise of the direct-call
// numbers", checked by the bench matrix).
//
// The table is process-wide.  Install/restore is meant for quiescent
// moments (before a server starts, after it stops, around a test); the
// pointer itself is atomic so a racing reader sees either table, never a
// torn one.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstddef>

namespace cohort::net {

struct io_ops {
  ssize_t (*read)(int fd, void* buf, std::size_t n);
  ssize_t (*send)(int fd, const void* buf, std::size_t n, int flags);
  int (*accept4)(int fd, sockaddr* addr, socklen_t* len, int flags);
  int (*connect)(int fd, const sockaddr* addr, socklen_t len);
  int (*close)(int fd);
};

// The table forwarding to the real syscalls (always valid, never faulty).
const io_ops& real_io_ops() noexcept;

// The table currently in effect.
const io_ops& io() noexcept;

// Install a table (nullptr restores the real one).  The pointee must
// outlive its installation.
void set_io_ops(const io_ops* table) noexcept;

}  // namespace cohort::net
