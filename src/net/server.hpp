// The kv front-end (DESIGN.md §6, hardening in §10): event-loop worker
// threads serving the memcached text-protocol subset over the sharded
// engine, every operation routed through the shared command layer
// (kvstore/command.hpp).
//
// Threading model: `io_threads` workers, each with its own poller
// (epoll/poll), its own connection table, and its own
// command_executor<any_sharded_store> -- a connection is owned by exactly
// one worker for its whole life, so connection state needs no locks, and
// the only cross-thread contention is where it belongs: on the shard locks
// inside the store.  All workers watch the (non-blocking) listen socket and
// race to accept; with pin_io_threads each worker is pinned to cluster
// (i mod clusters), so a worker's shard-lock acquisitions come from one
// cluster -- the arrival pattern cohort locks batch best.
//
// Robustness (all per-worker, no cross-thread state):
//   - Admission: past max_conns_per_worker live connections or
//     max_parked_writers output-parked ones, new sockets are shed --
//     `SERVER_ERROR busy` and an immediate close -- instead of letting
//     oversubscription collapse the loop (the GCR philosophy one layer up).
//   - Timeouts: a lazy 32-slot timing wheel evicts connections idle past
//     idle_timeout_ms (slowloris) or alive past max_conn_lifetime_ms;
//     max_requests_per_conn bounds what one connection may consume.
//   - Drain: drain() stops accepting, half-closes every connection so
//     buffered requests execute and replies flush, then force-closes
//     whatever remains at drain_deadline_ms.  Returns true when no
//     force-close was needed.
// Every close is attributed to exactly one reason, so
//   connections == shed + closed + timeouts + resets + drained
// holds at quiescence -- the chaos tests assert exactly this identity.
//
// All socket I/O goes through the io_ops seam (net/io_ops.hpp), so a
// fault plan (net/fault.hpp) can inject short I/O, EINTR/EAGAIN storms,
// resets, and fd exhaustion into every one of these paths on demand.
//
// Shutdown: stop() flips a flag and writes one byte down each worker's
// self-pipe; workers drain, close their connections, and join.  Server
// counters are single-writer cells per worker, summed on read, so the
// `stats` command and tests may sample them live.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/command.hpp"
#include "kvstore/sharded_store.hpp"
#include "net/memcache_proto.hpp"
#include "net/poller.hpp"
#include "net/socket.hpp"
#include "util/stat_cell.hpp"

namespace cohort::net {

struct server_config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; kv_server::port() reports it
  unsigned io_threads = 1;
  bool pin_io_threads = false;  // pin worker i to cluster i % clusters
  proto_limits limits{};
  // Overload shedding (0 = unlimited): a worker refuses new sockets with
  // `SERVER_ERROR busy` past this many live connections, or past this many
  // connections parked on the output high-water mark.
  unsigned max_conns_per_worker = 0;
  unsigned max_parked_writers = 0;
  // Eviction (0 = off): close connections that sent no byte for
  // idle_timeout_ms, outlived max_conn_lifetime_ms, or issued
  // max_requests_per_conn requests.
  std::uint32_t idle_timeout_ms = 0;
  std::uint32_t max_conn_lifetime_ms = 0;
  std::uint64_t max_requests_per_conn = 0;
  // Hard ceiling on how long drain() lets replies flush.
  std::uint32_t drain_deadline_ms = 2000;
};

struct server_counters {
  std::uint64_t connections = 0;      // accepted over the server's lifetime
  std::uint64_t commands = 0;         // requests answered (noreply included)
  std::uint64_t protocol_errors = 0;  // error replies (ERROR/CLIENT_/SERVER_)
  // Close-reason attribution; sums to `connections` at quiescence.
  std::uint64_t closed = 0;    // normal lifecycle (quit, EOF, request cap)
  std::uint64_t shed = 0;      // refused at admission (SERVER_ERROR busy)
  std::uint64_t timeouts = 0;  // idle / lifetime eviction
  std::uint64_t resets = 0;    // read/write error mid-connection
  std::uint64_t drained = 0;   // closed by drain()
  // Faults the injection layer fired process-wide (0 without a plan).
  std::uint64_t injected_faults = 0;
};

class kv_server {
 public:
  // The store must outlive the server.  The server adds no locking of its
  // own around store operations -- the shard locks are the experiment.
  kv_server(kvstore::any_sharded_store& store, server_config cfg);
  ~kv_server();
  kv_server(const kv_server&) = delete;
  kv_server& operator=(const kv_server&) = delete;

  // Bind + spawn the worker threads.  False (with *error) on failure.
  bool start(std::string* error);
  // Idempotent; joins the workers and closes every connection abruptly
  // (remaining connections are accounted as `closed`).
  void stop();
  // Graceful shutdown: stop accepting, execute already-buffered requests,
  // flush replies, close; force-close at cfg.drain_deadline_ms.  Joins the
  // workers.  True when every connection drained before the deadline.
  bool drain();

  bool running() const noexcept { return running_; }
  std::uint16_t port() const noexcept { return port_; }
  const server_config& config() const noexcept { return cfg_; }
  kvstore::any_sharded_store& store() noexcept { return store_; }

  // Live sample (single-writer cells, summed across workers).
  server_counters counters() const;

 private:
  struct connection;
  struct worker;

  void io_loop(worker& w);
  void accept_ready(worker& w);
  void begin_drain(worker& w);
  void connection_readable(worker& w, connection& c);
  // Returns true when the parser went idle (needs more bytes) or the
  // connection is closing; false when it parked on the output high-water
  // mark with complete requests still buffered.
  bool drain_parser(worker& w, connection& c);
  // Pure write pass: sends as much buffered output as the socket accepts.
  // False only on a dead peer (write error).
  bool flush_output(connection& c);
  // Flush + resume parked parser work as the buffer drains + keep poller
  // interest in sync.  False = close the connection.
  bool pump(worker& w, connection& c);
  void update_interest(worker& w, connection& c);
  void execute(worker& w, connection& c, text_request& req);
  void close_connection(worker& w, int fd);
  std::chrono::steady_clock::time_point conn_deadline(
      const connection& c) const;
  void wheel_insert(worker& w, int fd, std::uint64_t gen,
                    std::chrono::steady_clock::time_point deadline);
  void sweep_timeouts(worker& w, std::chrono::steady_clock::time_point now);
  void wake_workers();
  void join_workers();

  static std::size_t pending_out(const connection& c);
  bool throttled(const connection& c) const;

  kvstore::any_sharded_store& store_;
  server_config cfg_;
  // Output high-water mark per connection: while more than this many reply
  // bytes are buffered, the worker stops reading and parsing that
  // connection until writes drain -- a pipelining client cannot drive
  // unbounded buffering.  (A single reply can still exceed it by one
  // bounded request's worth: max_get_keys values.)
  std::size_t high_water_ = 0;
  // Timing-wheel tick; 0 when no timeout is configured.
  std::uint32_t wheel_tick_ms_ = 0;
  unique_fd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_flag_{false};
  std::atomic<bool> drain_flag_{false};
  std::chrono::steady_clock::time_point drain_deadline_{};
  bool running_ = false;
  std::vector<std::unique_ptr<worker>> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace cohort::net
