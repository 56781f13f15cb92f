// Readiness notification for the server's event-loop threads (DESIGN.md
// §6): epoll on Linux, falling back to poll(2) when epoll is unavailable
// (non-Linux build, restricted sandbox, or COHORT_NET_POLL=1 in the
// environment -- the CI protocol test forces the fallback once so both
// backends stay exercised).  One poller per worker thread; not thread-safe.
#pragma once

#include <chrono>
#include <cstddef>
#include <unordered_map>
#include <vector>

struct pollfd;

namespace cohort::net {

struct poll_event {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool hangup = false;  // peer closed or error; caller should drop the fd
};

class poller {
 public:
  poller();
  ~poller();
  poller(const poller&) = delete;
  poller& operator=(const poller&) = delete;

  bool add(int fd, bool want_read, bool want_write);
  bool modify(int fd, bool want_read, bool want_write);
  void remove(int fd);

  // Blocks up to timeout_ms (-1 = forever), appends ready fds to out
  // (cleared first).  Returns false on unrecoverable backend failure.
  // A blocking call first polls for up to the adaptive window (below),
  // yielding the CPU between polls, and only then sleeps in the backend;
  // it stops polling early once a yield shows another thread wants the
  // CPU.
  bool wait(std::vector<poll_event>& out, int timeout_ms);

  bool using_epoll() const noexcept { return epfd_ >= 0; }

 private:
  struct interest {
    bool read = false;
    bool write = false;
  };

  // One backend call; pfds is the poll(2) fallback's array, unused by
  // epoll.
  bool wait_once(std::vector<poll_event>& out, std::vector<pollfd>& pfds,
                 int timeout_ms);

  int epfd_ = -1;  // -1 = poll fallback
  // Poll-before-block window (haltpoll-style, DESIGN.md §6).  A wait the
  // window did not cover doubles it when its event still came within the
  // cap, and halves it otherwise; below the floor it closes to 0.
  std::chrono::nanoseconds poll_ns_{0};
  // Registered fds; the poll backend rebuilds its pollfd array from this,
  // the epoll backend only uses it to validate add/modify pairs.
  std::unordered_map<int, interest> fds_;
};

}  // namespace cohort::net
