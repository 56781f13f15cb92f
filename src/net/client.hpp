// Blocking memcached-text-protocol client for the served-traffic paths
// (DESIGN.md §6, resilience in §10): the `--workload kvnet` benchmark
// drives one instance per worker thread over loopback, the CTest protocol
// suite scripts exchanges with it, and `cohort_bench --workload kvnet
// --smoke` uses it against an externally started server.
//
// Executor-shaped on purpose: get/set/del return kvstore::cmd_status, the
// same vocabulary as command_executor, so kvstore::mix_workload::step()
// drives a socket exactly like it drives the in-process store.  Transport
// or protocol failures come back as cmd_status::error (and last_error()
// explains); the benchmark counts those as failed ops.
//
// Resilience knobs (client_config): op_timeout_ms puts SO_RCVTIMEO /
// SO_SNDTIMEO on the socket so a stalled or drained server surfaces as an
// error instead of a hang; max_retries re-runs a failed get/set/del/flush
// after reconnecting, with exponential backoff, when the failure was
// *transient* -- the transport died (reset, timeout, server gone) or the
// server shed the connection with `SERVER_ERROR busy`.  Protocol
// violations on a live connection are never retried.  retries() counts
// every retry taken, so workloads can report how much fault-induced work
// the run absorbed.  The raw escape hatches and the bool-surface helpers
// (stats/version) stay unretried: protocol tests need exact byte
// behavior.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "kvstore/command.hpp"
#include "net/socket.hpp"

namespace cohort::net {

struct client_config {
  std::uint32_t op_timeout_ms = 0;  // 0 = block forever
  unsigned max_retries = 0;         // per op, on transient failure only
  std::uint32_t backoff_base_ms = 1;
  std::uint32_t backoff_max_ms = 64;
};

class memcache_client {
 public:
  memcache_client() = default;
  explicit memcache_client(client_config cfg) : cfg_(cfg) {}

  bool connect(const std::string& host, std::uint16_t port);
  void close() { fd_.reset(); }
  bool connected() const noexcept { return fd_.valid(); }
  const std::string& last_error() const noexcept { return error_; }
  // Retries taken across all ops on this client (reconnect + re-issue).
  std::uint64_t retries() const noexcept { return retries_; }

  // The executor-shaped command surface (cmd_status results).
  kvstore::cmd_status get(const std::string& key, std::string* out);
  kvstore::cmd_status set(const std::string& key, const std::string& value);
  kvstore::cmd_status del(const std::string& key);
  kvstore::cmd_status flush();

  // STAT name value pairs until END; false on transport/protocol failure.
  bool stats(std::vector<std::pair<std::string, std::string>>* out);
  // "VERSION ..." line; false on failure.
  bool version(std::string* out);
  // Polite shutdown: send quit and close.
  void quit();

  // Raw escape hatches for protocol tests (send bytes verbatim / read one
  // CRLF-terminated line without interpretation / half-close the write
  // side after a pipelined burst while continuing to read replies).
  bool send_raw(const std::string& bytes);
  bool read_line(std::string* line);
  bool read_exact(std::size_t n, std::string* out);
  void shutdown_write();

 private:
  bool fill();  // one blocking read into rbuf_
  bool apply_timeouts();
  // True when `line` is the shed reply: records the busy state (transient,
  // reconnect-and-retry) and kills the transport -- the server has already
  // closed its side.
  bool busy_reply(const std::string& line);
  template <typename Op>
  kvstore::cmd_status with_retry(Op&& op);
  kvstore::cmd_status do_get(const std::string& key, std::string* out);
  kvstore::cmd_status do_set(const std::string& key,
                             const std::string& value);
  kvstore::cmd_status do_del(const std::string& key);
  kvstore::cmd_status do_flush();

  client_config cfg_{};
  unique_fd fd_;
  std::string host_;
  std::uint16_t port_ = 0;
  std::string rbuf_;
  std::size_t rpos_ = 0;
  std::string error_;
  std::uint64_t retries_ = 0;
  bool busy_ = false;  // last failure was a shed (SERVER_ERROR busy)
};

}  // namespace cohort::net
