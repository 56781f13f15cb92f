#include "net/server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#include <unordered_map>

#include "net/fault.hpp"
#include "net/io_ops.hpp"
#include "numa/topology.hpp"

namespace cohort::net {

namespace {

constexpr const char* reply_version = "VERSION cohort-kv 1.0\r\n";
constexpr char reply_busy[] = "SERVER_ERROR busy\r\n";

using clock = std::chrono::steady_clock;

std::uint64_t to_ms(clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          tp.time_since_epoch())
          .count());
}

// Remaining time as a poll timeout: 0 when already past, else at least 1
// (rounding down to 0 would busy-spin until the deadline).
int remaining_ms(clock::time_point now, clock::time_point deadline) {
  if (now >= deadline) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  return std::max<int>(1, static_cast<int>(std::min<long long>(ms, 1000)));
}

// accept(2): already-accepted sockets that died in the backlog surface
// their pending network error here; treat them like ECONNABORTED and move
// on to the next waiting socket.
bool accept_transient(int err) {
  switch (err) {
    case EINTR:
    case ECONNABORTED:
    case EPROTO:
    case ENETDOWN:
    case ENETUNREACH:
    case EHOSTDOWN:
    case EHOSTUNREACH:
    case EOPNOTSUPP:
      return true;
    default:
      return false;
  }
}

}  // namespace

// Why a connection left the table; each close is attributed exactly once,
// so the reason cells sum to the accept count at quiescence.
enum class close_reason : std::uint8_t { closed, timeout, reset, drained };

// Per-connection state; owned by exactly one worker, so unsynchronised.
struct kv_server::connection {
  explicit connection(unique_fd f, proto_limits limits)
      : fd(std::move(f)), parser(limits) {}

  unique_fd fd;
  request_parser parser;
  std::string out;
  std::size_t out_pos = 0;
  std::uint64_t gen = 0;       // guards timing-wheel entries across fd reuse
  std::uint64_t requests = 0;  // served on this connection (request cap)
  clock::time_point created{};
  clock::time_point last_activity{};  // last byte read from the peer
  close_reason why = close_reason::closed;
  bool want_read = true;    // current poller interest
  bool want_write = false;
  bool parked_writer = false;  // throttled on the output high-water mark
  bool eof = false;         // peer half-closed: drain replies, then close
  bool closing = false;     // quit/fatal error: close once output drains
};

struct kv_server::worker {
  worker(kvstore::any_sharded_store& store, proto_limits limits)
      : exec(store, limits.max_value_bytes) {}

  poller pl;
  kvstore::command_executor<kvstore::any_sharded_store> exec;
  std::unordered_map<int, std::unique_ptr<connection>> conns;
  unique_fd wake_rd, wake_wr;  // self-pipe for stop()/drain()
  // Accept backpressure: after a hard accept failure (EMFILE/ENFILE) the
  // listen fd is removed from this worker's poller until the backoff
  // passes -- level-triggered readiness would otherwise spin the thread.
  // The backoff doubles per consecutive failure and resets on success.
  bool listen_parked = false;
  clock::time_point listen_parked_until{};
  std::uint32_t accept_backoff_ms = 0;
  // Lazy timing wheel: slots hold (fd, gen) hints; the sweep recomputes
  // the true deadline and re-inserts entries whose connection saw
  // activity, so reads never touch the wheel.
  struct wheel_entry {
    int fd;
    std::uint64_t gen;
  };
  static constexpr unsigned kWheelSlots = 32;
  std::array<std::vector<wheel_entry>, kWheelSlots> wheel;
  std::uint64_t wheel_cursor = 0;  // last swept tick (0 = not started)
  std::uint64_t gen_counter = 0;
  int parked_writers = 0;  // live count; admission input
  bool drain_forced = false;  // hit the drain deadline with conns open
  // Single-writer counter cells (this worker's thread), sampled live.
  stat_cell connections, commands, protocol_errors;
  stat_cell closed, shed, timeouts, resets, drained;
  std::vector<poll_event> events;  // reused wait buffer
};

std::size_t kv_server::pending_out(const connection& c) {
  return c.out.size() - c.out_pos;
}

bool kv_server::throttled(const connection& c) const {
  return pending_out(c) > high_water_;
}

kv_server::kv_server(kvstore::any_sharded_store& store, server_config cfg)
    : store_(store), cfg_(std::move(cfg)) {
  if (cfg_.io_threads == 0) cfg_.io_threads = 1;
  high_water_ = 256 * 1024 + cfg_.limits.max_value_bytes;
  std::uint32_t min_timeout = 0;
  for (std::uint32_t t : {cfg_.idle_timeout_ms, cfg_.max_conn_lifetime_ms}) {
    if (t != 0) min_timeout = min_timeout == 0 ? t : std::min(min_timeout, t);
  }
  // Tick at 1/8 of the tightest timeout: eviction lands within 12.5% of
  // the nominal deadline, and the 32-slot wheel spans 4x the timeout.
  wheel_tick_ms_ =
      min_timeout == 0 ? 0 : std::max<std::uint32_t>(1, min_timeout / 8);
}

kv_server::~kv_server() { stop(); }

bool kv_server::start(std::string* error) {
  if (running_) return true;
  listen_fd_ = listen_tcp(cfg_.host, cfg_.port, &port_, error);
  if (!listen_fd_.valid()) return false;

  stop_flag_.store(false, std::memory_order_relaxed);
  drain_flag_.store(false, std::memory_order_relaxed);
  workers_.clear();
  for (unsigned i = 0; i < cfg_.io_threads; ++i) {
    auto w = std::make_unique<worker>(store_, cfg_.limits);
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      if (error != nullptr)
        *error = std::string("pipe2: ") + std::strerror(errno);
      listen_fd_.reset();
      workers_.clear();
      return false;
    }
    w->wake_rd.reset(pipe_fds[0]);
    w->wake_wr.reset(pipe_fds[1]);
    w->pl.add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
    w->pl.add(w->wake_rd.get(), /*want_read=*/true, /*want_write=*/false);
    workers_.push_back(std::move(w));
  }
  threads_.clear();
  for (unsigned i = 0; i < cfg_.io_threads; ++i) {
    threads_.emplace_back([this, i] {
      if (cfg_.pin_io_threads) {
        const auto& topo = numa::system_topology();
        const unsigned k = topo.clusters() != 0 ? topo.clusters() : 1;
        numa::pin_thread_to_cluster(topo, i % k);
      } else {
        numa::set_thread_cluster(i);
      }
      io_loop(*workers_[i]);
    });
  }
  running_ = true;
  return true;
}

void kv_server::wake_workers() {
  for (auto& w : workers_) {
    const char byte = 1;
    // The wake pipe stays off the io_ops seam: shutdown must work even
    // under a hostile fault plan.
    [[maybe_unused]] ssize_t rc = ::write(w->wake_wr.get(), &byte, 1);
  }
}

void kv_server::join_workers() {
  for (auto& t : threads_) t.join();
  threads_.clear();
}

void kv_server::stop() {
  if (!running_) return;
  stop_flag_.store(true, std::memory_order_release);
  wake_workers();
  join_workers();
  for (auto& w : workers_) {
    // Abrupt shutdown: whatever was still open counts as a normal close,
    // keeping the close-reason identity intact.  Safe post-join: the
    // owning thread is gone.
    w->closed.add(w->conns.size());
    w->conns.clear();
  }
  listen_fd_.reset();
  stop_flag_.store(false, std::memory_order_relaxed);
  running_ = false;
}

bool kv_server::drain() {
  if (!running_) return true;
  // Written before the release store below; workers read it only after
  // the acquire load of drain_flag_.
  drain_deadline_ =
      clock::now() + std::chrono::milliseconds(cfg_.drain_deadline_ms);
  drain_flag_.store(true, std::memory_order_release);
  wake_workers();
  join_workers();
  bool clean = true;
  for (auto& w : workers_) {
    if (w->drain_forced) clean = false;
    w->conns.clear();  // emptied by the workers unless the deadline hit
  }
  listen_fd_.reset();
  drain_flag_.store(false, std::memory_order_relaxed);
  running_ = false;
  return clean;
}

server_counters kv_server::counters() const {
  server_counters total;
  for (const auto& w : workers_) {
    total.connections += w->connections.get();
    total.commands += w->commands.get();
    total.protocol_errors += w->protocol_errors.get();
    total.closed += w->closed.get();
    total.shed += w->shed.get();
    total.timeouts += w->timeouts.get();
    total.resets += w->resets.get();
    total.drained += w->drained.get();
  }
  total.injected_faults = fault_stats().total();
  return total;
}

void kv_server::io_loop(worker& w) {
  bool draining = false;
  while (!stop_flag_.load(std::memory_order_acquire)) {
    if (!draining && drain_flag_.load(std::memory_order_acquire)) {
      draining = true;
      begin_drain(w);
    }
    clock::time_point now = clock::now();
    if (draining) {
      if (w.conns.empty()) break;
      if (now >= drain_deadline_) {
        // Deadline: force-close whatever is still flushing.
        w.drain_forced = true;
        std::vector<int> fds;
        fds.reserve(w.conns.size());
        for (const auto& [fd, c] : w.conns) fds.push_back(fd);
        for (int fd : fds) close_connection(w, fd);
        break;
      }
    }
    int timeout_ms = 1000;  // backstop; the self-pipe makes stop() prompt
    if (w.listen_parked && !draining) {
      if (now >= w.listen_parked_until) {
        w.pl.add(listen_fd_.get(), /*want_read=*/true, /*want_write=*/false);
        w.listen_parked = false;
      } else {
        timeout_ms = std::min(timeout_ms, remaining_ms(now, w.listen_parked_until));
      }
    }
    if (draining)
      timeout_ms = std::min(timeout_ms, remaining_ms(now, drain_deadline_));
    if (wheel_tick_ms_ != 0 && !w.conns.empty())
      timeout_ms = std::min(timeout_ms, static_cast<int>(wheel_tick_ms_));
    if (!w.pl.wait(w.events, timeout_ms)) break;
    for (const poll_event& ev : w.events) {
      if (ev.fd == listen_fd_.get()) {
        if (ev.readable && !draining) accept_ready(w);
        continue;
      }
      if (ev.fd == w.wake_rd.get()) {
        char drain_buf[16];
        while (::read(w.wake_rd.get(), drain_buf, sizeof(drain_buf)) > 0) {
        }
        continue;
      }
      auto it = w.conns.find(ev.fd);
      if (it == w.conns.end()) continue;
      connection& c = *it->second;
      if (ev.hangup) {
        close_connection(w, ev.fd);
        continue;
      }
      if (ev.readable) {
        connection_readable(w, c);  // reads, drains, pumps, closes
        continue;
      }
      if (ev.writable && !pump(w, c)) close_connection(w, ev.fd);
    }
    if (!draining) sweep_timeouts(w, clock::now());
  }
}

// Drain entry: stop accepting, then half-close every connection -- already
// buffered requests still execute and their replies flush; pump() closes
// each connection once both directions are empty.
void kv_server::begin_drain(worker& w) {
  if (!w.listen_parked) w.pl.remove(listen_fd_.get());
  w.listen_parked = true;
  w.listen_parked_until = clock::time_point::max();
  std::vector<int> fds;
  fds.reserve(w.conns.size());
  for (const auto& [fd, c] : w.conns) fds.push_back(fd);
  for (int fd : fds) {
    auto it = w.conns.find(fd);
    if (it == w.conns.end()) continue;
    connection& c = *it->second;
    c.eof = true;
    c.why = close_reason::drained;
    if (!pump(w, c)) close_connection(w, fd);
  }
}

void kv_server::accept_ready(worker& w) {
  for (;;) {
    const int fd = io().accept4(listen_fd_.get(), nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (accept_transient(errno)) continue;
      // EAGAIN: another worker won the race or the backlog drained.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Hard failure (EMFILE/ENFILE/ENOMEM): under level-triggered
      // readiness the listen fd would re-fire immediately and spin this
      // worker, so park it for a capped exponential backoff.
      w.accept_backoff_ms =
          w.accept_backoff_ms == 0
              ? 10
              : std::min<std::uint32_t>(w.accept_backoff_ms * 2, 1000);
      w.pl.remove(listen_fd_.get());
      w.listen_parked = true;
      w.listen_parked_until =
          clock::now() + std::chrono::milliseconds(w.accept_backoff_ms);
      return;
    }
    w.accept_backoff_ms = 0;
    ++w.connections;
    // Admission control: past the connection or parked-writer cap, tell
    // the client why and close -- a bounded refusal beats oversubscribing
    // the loop until every connection times out.
    const bool over_conns = cfg_.max_conns_per_worker != 0 &&
                            w.conns.size() >= cfg_.max_conns_per_worker;
    const bool over_parked =
        cfg_.max_parked_writers != 0 &&
        w.parked_writers >= static_cast<int>(cfg_.max_parked_writers);
    if (over_conns || over_parked) {
      ++w.shed;
      (void)io().send(fd, reply_busy, sizeof(reply_busy) - 1, MSG_NOSIGNAL);
      io().close(fd);
      continue;
    }
    auto conn = std::make_unique<connection>(unique_fd(fd), cfg_.limits);
    conn->gen = ++w.gen_counter;
    conn->created = conn->last_activity = clock::now();
    w.pl.add(fd, /*want_read=*/true, /*want_write=*/false);
    if (wheel_tick_ms_ != 0)
      wheel_insert(w, fd, conn->gen, conn_deadline(*conn));
    w.conns.emplace(fd, std::move(conn));
  }
}

clock::time_point kv_server::conn_deadline(const connection& c) const {
  clock::time_point dl = clock::time_point::max();
  if (cfg_.idle_timeout_ms != 0)
    dl = std::min(dl, c.last_activity +
                          std::chrono::milliseconds(cfg_.idle_timeout_ms));
  if (cfg_.max_conn_lifetime_ms != 0)
    dl = std::min(
        dl, c.created + std::chrono::milliseconds(cfg_.max_conn_lifetime_ms));
  return dl;
}

void kv_server::wheel_insert(worker& w, int fd, std::uint64_t gen,
                             clock::time_point deadline) {
  const std::uint64_t tick = to_ms(deadline) / wheel_tick_ms_;
  w.wheel[tick % worker::kWheelSlots].push_back({fd, gen});
}

void kv_server::sweep_timeouts(worker& w, clock::time_point now) {
  if (wheel_tick_ms_ == 0) return;
  const std::uint64_t cur = to_ms(now) / wheel_tick_ms_;
  if (w.wheel_cursor == 0) {
    w.wheel_cursor = cur;
    return;
  }
  if (cur <= w.wheel_cursor) return;
  const std::uint64_t steps =
      std::min<std::uint64_t>(cur - w.wheel_cursor, worker::kWheelSlots);
  for (std::uint64_t i = 1; i <= steps; ++i) {
    auto& slot = w.wheel[(w.wheel_cursor + i) % worker::kWheelSlots];
    std::vector<worker::wheel_entry> pending;
    pending.swap(slot);
    for (const worker::wheel_entry& e : pending) {
      auto it = w.conns.find(e.fd);
      if (it == w.conns.end() || it->second->gen != e.gen)
        continue;  // closed (or the fd was reused) since insertion
      connection& c = *it->second;
      const clock::time_point dl = conn_deadline(c);
      if (dl <= now) {
        c.why = close_reason::timeout;
        close_connection(w, e.fd);
      } else {
        wheel_insert(w, e.fd, e.gen, dl);  // saw activity; lazy re-insert
      }
    }
  }
  w.wheel_cursor = cur;
}

// Drain the complete requests the parser holds (pipelining: several may
// arrive in one read), stopping at the output high-water mark so a
// pipelining client cannot drive unbounded reply buffering.
bool kv_server::drain_parser(worker& w, connection& c) {
  while (!c.closing) {
    if (throttled(c)) return false;  // parked; pump() resumes after writes
    parse_event ev = c.parser.next();
    if (ev.what == parse_event::kind::need_more) return true;
    if (ev.what == parse_event::kind::request) {
      execute(w, c, ev.request);
      continue;
    }
    // error / fatal_error (the reply is empty for suppressed noreply
    // errors, which still count)
    ++w.protocol_errors;
    c.out += ev.reply;
    if (ev.what == parse_event::kind::fatal_error) c.closing = true;
  }
  return true;  // closing: remaining input is irrelevant
}

void kv_server::connection_readable(worker& w, connection& c) {
  const int fd = c.fd.get();
  char buf[16384];
  // Parse after every chunk, not after the whole burst, so an oversized
  // set being swallowed is discarded chunk by chunk instead of accreting
  // in the parser buffer; stop reading at the output high-water mark.
  while (!c.closing && !c.eof && !throttled(c)) {
    const ssize_t n = io().read(fd, buf, sizeof(buf));
    if (n > 0) {
      c.last_activity = clock::now();
      c.parser.feed(buf, static_cast<std::size_t>(n));
      drain_parser(w, c);
      // A short read emptied the socket.  Readiness is level-triggered
      // in both poller backends, so later bytes and EOF are reported
      // again; reading on to EAGAIN would only cost a syscall.
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {
      // Half-close: no further requests, but buffered replies still go
      // out -- pump() closes once both directions are drained.
      c.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Read error: the peer is gone; drop whatever was queued.
    c.why = close_reason::reset;
    c.closing = true;
    c.out.clear();
    c.out_pos = 0;
    break;
  }
  if (!pump(w, c)) close_connection(w, fd);
}

bool kv_server::flush_output(connection& c) {
  while (c.out_pos < c.out.size()) {
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as EPIPE,
    // not kill the server process.
    const ssize_t n = io().send(c.fd.get(), c.out.data() + c.out_pos,
                                c.out.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true;  // wait for writability
    if (n < 0 && errno == EINTR) continue;
    c.why = close_reason::reset;
    return false;  // write error: drop the connection
  }
  c.out.clear();
  c.out_pos = 0;
  return true;
}

bool kv_server::pump(worker& w, connection& c) {
  // Alternate flushing and parsing until the socket stops accepting
  // writes (throttled with EAGAIN), the parser runs out of complete
  // requests, or the connection is closing.  Flushing first means a
  // writable event resumes parser work that parked on the high-water
  // mark even when no further readable event will arrive (half-close).
  bool parser_idle = false;
  for (;;) {
    if (!flush_output(c)) return false;
    if (c.closing || throttled(c) || parser_idle) break;
    parser_idle = drain_parser(w, c);
  }
  const bool drained = pending_out(c) == 0;
  if (c.closing && drained) return false;    // quit/fatal: done
  if (c.eof && parser_idle && drained) return false;  // both sides drained
  update_interest(w, c);
  return true;
}

// Poller interest follows connection state: reads stop while closing,
// half-closed, or throttled on output; writes are wanted while replies
// are buffered.  The parked-writer count feeds admission control.
void kv_server::update_interest(worker& w, connection& c) {
  const bool parked = throttled(c);
  if (parked != c.parked_writer) {
    c.parked_writer = parked;
    w.parked_writers += parked ? 1 : -1;
  }
  const bool want_read = !c.closing && !c.eof && !parked;
  const bool want_write = pending_out(c) > 0;
  if (want_read != c.want_read || want_write != c.want_write) {
    c.want_read = want_read;
    c.want_write = want_write;
    w.pl.modify(c.fd.get(), want_read, want_write);
  }
}

void kv_server::execute(worker& w, connection& c, text_request& req) {
  using kind = text_request::kind;
  ++w.commands;
  ++c.requests;
  switch (req.op) {
    case kind::get: {
      std::string value;
      for (const std::string& key : req.keys) {
        if (w.exec.get(key, &value) == kvstore::cmd_status::hit)
          append_value_reply(c.out, key, 0, value);
      }
      c.out += reply_end;
      break;
    }
    case kind::set: {
      const auto st = w.exec.set(req.key, std::move(req.data));
      if (!req.noreply)
        c.out += st == kvstore::cmd_status::stored ? reply_stored
                                                   : reply_too_large;
      break;
    }
    case kind::del: {
      const auto st = w.exec.del(req.key);
      if (!req.noreply)
        c.out += st == kvstore::cmd_status::deleted ? reply_deleted
                                                    : reply_not_found;
      break;
    }
    case kind::flush:
      w.exec.flush();
      if (!req.noreply) c.out += reply_ok;
      break;
    case kind::stats: {
      const kvstore::store_snapshot snap = w.exec.stats();
      const server_counters sc = counters();
      append_stat(c.out, "cmd_get", snap.counters.gets);
      append_stat(c.out, "cmd_set", snap.counters.sets);
      append_stat(c.out, "cmd_delete", snap.counters.deletes);
      append_stat(c.out, "get_hits", snap.counters.get_hits);
      // Clamp: cells move independently, so a live sample may transiently
      // observe hits ahead of gets.
      append_stat(c.out, "get_misses",
                  snap.counters.gets >= snap.counters.get_hits
                      ? snap.counters.gets - snap.counters.get_hits
                      : 0);
      append_stat(c.out, "evictions", snap.counters.evictions);
      append_stat(c.out, "curr_items", snap.items);
      append_stat(c.out, "shards", snap.shards);
      append_stat(c.out, "threads", cfg_.io_threads);
      append_stat(c.out, "total_connections", sc.connections);
      append_stat(c.out, "cmd_total", sc.commands);
      append_stat(c.out, "protocol_errors", sc.protocol_errors);
      append_stat(c.out, "closed", sc.closed);
      append_stat(c.out, "shed", sc.shed);
      append_stat(c.out, "timeouts", sc.timeouts);
      append_stat(c.out, "resets", sc.resets);
      append_stat(c.out, "drained", sc.drained);
      append_stat(c.out, "injected_faults", sc.injected_faults);
      c.out += reply_end;
      break;
    }
    case kind::version:
      c.out += reply_version;
      break;
    case kind::quit:
      c.closing = true;
      break;
  }
  // Request cap: the reply above still flushes (closing closes only once
  // the output buffer drains), then the connection goes away.
  if (cfg_.max_requests_per_conn != 0 &&
      c.requests >= cfg_.max_requests_per_conn)
    c.closing = true;
}

void kv_server::close_connection(worker& w, int fd) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  connection& c = *it->second;
  if (c.parked_writer) --w.parked_writers;
  switch (c.why) {
    case close_reason::closed:
      ++w.closed;
      break;
    case close_reason::timeout:
      ++w.timeouts;
      break;
    case close_reason::reset:
      ++w.resets;
      break;
    case close_reason::drained:
      ++w.drained;
      break;
  }
  w.pl.remove(fd);
  w.conns.erase(it);  // unique_fd closes it
}

}  // namespace cohort::net
