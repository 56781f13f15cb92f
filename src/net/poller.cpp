#include "net/poller.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <poll.h>
#include <sched.h>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <unistd.h>

namespace cohort::net {

poller::poller() {
#if defined(__linux__)
  const char* force_poll = std::getenv("COHORT_NET_POLL");
  if (force_poll == nullptr || force_poll[0] == '\0' ||
      force_poll[0] == '0') {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  }
#endif
}

poller::~poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

#if defined(__linux__)
namespace {
std::uint32_t epoll_mask(bool want_read, bool want_write) {
  std::uint32_t ev = 0;
  if (want_read) ev |= EPOLLIN;
  if (want_write) ev |= EPOLLOUT;
  return ev;
}
}  // namespace
#endif

bool poller::add(int fd, bool want_read, bool want_write) {
  fds_[fd] = {want_read, want_write};
#if defined(__linux__)
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
#endif
  return true;
}

bool poller::modify(int fd, bool want_read, bool want_write) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return false;
  it->second = {want_read, want_write};
#if defined(__linux__)
  if (epfd_ >= 0) {
    epoll_event ev{};
    ev.events = epoll_mask(want_read, want_write);
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
  }
#endif
  return true;
}

void poller::remove(int fd) {
  fds_.erase(fd);
#if defined(__linux__)
  if (epfd_ >= 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
}

namespace {

using poll_clock = std::chrono::steady_clock;

// Widest poll window: a sleep/wake round trip on a halting vCPU costs tens
// of microseconds, so an event later than this pays it anyway and more
// spinning would only burn CPU.
constexpr std::chrono::nanoseconds poll_cap{50'000};
// Narrowest window: below it a poll rarely catches what the sleep would
// not, so the window closes and an idle loop goes back to pure blocking.
constexpr std::chrono::nanoseconds poll_floor{10'000};
// A sched_yield() with nothing else to run returns in about a microsecond;
// one that took longer than this switched to another thread.
constexpr std::chrono::nanoseconds yield_ran_other{5'000};

}  // namespace

bool poller::wait(std::vector<poll_event>& out, int timeout_ms) {
  out.clear();
  std::vector<pollfd> pfds;
  if (epfd_ < 0) {
    // poll(2) fallback: build the pollfd array from the interest map once
    // per call.  O(fds) per wait, which is fine at the connection counts
    // the fallback exists for.
    pfds.reserve(fds_.size());
    for (const auto& [fd, in] : fds_) {
      pollfd p{};
      p.fd = fd;
      if (in.read) p.events |= POLLIN;
      if (in.write) p.events |= POLLOUT;
      pfds.push_back(p);
    }
  }
  if (timeout_ms == 0) return wait_once(out, pfds, 0);
  const poll_clock::time_point start = poll_clock::now();
  if (poll_ns_.count() != 0) {
    const poll_clock::time_point until = start + poll_ns_;
    for (;;) {
      if (!wait_once(out, pfds, 0)) return false;
      if (!out.empty()) return true;
      const poll_clock::time_point now = poll_clock::now();
      if (now >= until) break;
      // On an oversubscribed CPU the peer we are waiting for needs it.
      ::sched_yield();
      // Another thread ran during the yield: this CPU is wanted, and
      // sleeping frees it, so stop polling.
      if (poll_clock::now() - now > yield_ran_other) break;
    }
  }
  if (!wait_once(out, pfds, timeout_ms)) return false;
  // The window missed.  Judge it by the whole wait, window plus sleep: an
  // event within the cap would have been caught by a wider window, so
  // grow; a longer gap cannot be bridged by polling, so shrink.
  if (!out.empty() && poll_clock::now() - start <= poll_cap)
    poll_ns_ = std::min(poll_cap, std::max(2 * poll_ns_, poll_floor));
  else if ((poll_ns_ /= 2) < poll_floor)
    poll_ns_ = {};
  return true;
}

bool poller::wait_once(std::vector<poll_event>& out,
                       std::vector<pollfd>& pfds, int timeout_ms) {
#if defined(__linux__)
  if (epfd_ >= 0) {
    epoll_event evs[64];
    int n;
    do {
      n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return false;
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      poll_event e;
      e.fd = evs[i].data.fd;
      e.readable = (evs[i].events & EPOLLIN) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.hangup = (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
    return true;
  }
#endif
  int n;
  do {
    n = ::poll(pfds.data(), pfds.size(), timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return false;
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    poll_event e;
    e.fd = p.fd;
    e.readable = (p.revents & POLLIN) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.hangup = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
    out.push_back(e);
  }
  return true;
}

}  // namespace cohort::net
