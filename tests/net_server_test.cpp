// The net front-end end to end over loopback (DESIGN.md §6): protocol
// parsing (including pipelined, malformed, and oversized inputs), the
// client, multi-connection concurrency, and clean shutdown.  Runs under the
// ASan/UBSan and TSan CI jobs -- the server's io threads drive the store's
// shard locks concurrently, so a synchronisation bug here is a sanitizer
// report, not a flake.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/command.hpp"
#include "net/client.hpp"
#include "net/memcache_proto.hpp"
#include "net/server.hpp"
#include "numa/topology.hpp"
#include "util/rng.hpp"

namespace cohort::net {
namespace {

using kvstore::cmd_status;

// ---- parser unit tests ------------------------------------------------------

parse_event feed_all(request_parser& p, const std::string& bytes) {
  p.feed(bytes.data(), bytes.size());
  return p.next();
}

TEST(Proto, ParsesSimpleCommands) {
  request_parser p;
  parse_event ev = feed_all(p, "get alpha beta\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::get);
  ASSERT_EQ(ev.request.keys.size(), 2u);
  EXPECT_EQ(ev.request.keys[0], "alpha");
  EXPECT_EQ(ev.request.keys[1], "beta");

  ev = feed_all(p, "delete alpha\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::del);
  EXPECT_EQ(ev.request.key, "alpha");

  ev = feed_all(p, "stats\r\n");
  EXPECT_EQ(ev.request.op, text_request::kind::stats);
  ev = feed_all(p, "quit\r\n");
  EXPECT_EQ(ev.request.op, text_request::kind::quit);
}

TEST(Proto, SetCarriesDataBlock) {
  request_parser p;
  parse_event ev = feed_all(p, "set k 7 0 5\r\nhello\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::set);
  EXPECT_EQ(ev.request.key, "k");
  EXPECT_EQ(ev.request.flags, 7u);
  EXPECT_EQ(ev.request.data, "hello");
  EXPECT_FALSE(ev.request.noreply);
}

TEST(Proto, SetBodySpansArbitraryChunks) {
  request_parser p;
  const std::string wire = "set k 0 0 10\r\n0123456789\r\n";
  for (char c : wire) {
    p.feed(&c, 1);
  }
  parse_event ev = p.next();
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.data, "0123456789");
  EXPECT_EQ(p.next().what, parse_event::kind::need_more);
}

TEST(Proto, PipelinedRequestsYieldInOrder) {
  request_parser p;
  const std::string wire = "set a 0 0 1\r\nx\r\nget a\r\ndelete a noreply\r\n";
  p.feed(wire.data(), wire.size());
  parse_event ev = p.next();
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::set);
  ev = p.next();
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::get);
  ev = p.next();
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.op, text_request::kind::del);
  EXPECT_TRUE(ev.request.noreply);
  EXPECT_EQ(p.next().what, parse_event::kind::need_more);
}

TEST(Proto, MalformedCommandsReportAndResync) {
  request_parser p;
  parse_event ev = feed_all(p, "frobnicate k\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::error);
  EXPECT_EQ(ev.reply, "ERROR\r\n");

  ev = feed_all(p, "set k 0 0 nan\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::error);
  EXPECT_EQ(ev.reply.rfind("CLIENT_ERROR", 0), 0u);

  // The parser resynchronises: a good request still parses afterwards.
  ev = feed_all(p, "get k\r\n");
  EXPECT_EQ(ev.what, parse_event::kind::request);
}

TEST(Proto, BadDataChunkTerminatorIsReported) {
  request_parser p;
  parse_event ev = feed_all(p, "set k 0 0 5\r\nhelloXXget k\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::error);
  EXPECT_EQ(ev.reply, "CLIENT_ERROR bad data chunk\r\n");
}

TEST(Proto, OversizedValueIsSwallowedInChunks) {
  request_parser p({.max_value_bytes = 16, .max_line_bytes = 8192});
  p.feed("set big 0 0 64\r\n", 16);
  parse_event ev = p.next();
  EXPECT_EQ(ev.what, parse_event::kind::need_more);  // swallowing
  const std::string chunk(33, 'x');
  p.feed(chunk.data(), chunk.size());
  EXPECT_EQ(p.next().what, parse_event::kind::need_more);
  EXPECT_LT(p.buffered(), 8u);  // discarded, not accreted
  p.feed(chunk.data(), chunk.size());  // 66 bytes total = data + CRLF
  ev = p.next();
  ASSERT_EQ(ev.what, parse_event::kind::error);
  EXPECT_EQ(ev.reply, reply_too_large);
  // The stream stays framed: the next command parses.
  ev = feed_all(p, "version\r\n");
  EXPECT_EQ(ev.what, parse_event::kind::request);
}

TEST(Proto, TooManyGetKeysIsRefused) {
  request_parser p({.max_value_bytes = 1024, .max_line_bytes = 8192,
                    .max_get_keys = 4});
  parse_event ev = feed_all(p, "get a b c d\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::request);
  EXPECT_EQ(ev.request.keys.size(), 4u);
  ev = feed_all(p, "get a b c d e\r\n");
  ASSERT_EQ(ev.what, parse_event::kind::error);
  EXPECT_EQ(ev.reply, "CLIENT_ERROR too many keys in get\r\n");
  // Resynchronised: the next request parses.
  ev = feed_all(p, "get a\r\n");
  EXPECT_EQ(ev.what, parse_event::kind::request);
}

TEST(Proto, UnterminatedLinePastCapIsFatal) {
  request_parser p({.max_value_bytes = 1024, .max_line_bytes = 32});
  const std::string junk(100, 'a');
  parse_event ev = feed_all(p, junk);
  ASSERT_EQ(ev.what, parse_event::kind::fatal_error);
  EXPECT_EQ(ev.reply.rfind("CLIENT_ERROR", 0), 0u);
}

TEST(Proto, MalformedCorpusByteAtATimeNeverWedges) {
  // A fixed corpus of hostile inputs -- truncations, embedded NULs, bad
  // counts, bare CR/LF, overlong tokens, negative and huge sizes -- fed one
  // byte at a time (the short-read worst case).  The parser must never
  // crash, must classify every corpus entry as an error, and must stay
  // framed: after each entry a well-formed request still parses.
  const std::string corpus[] = {
      "\r\n",
      "\n",
      "get\r\n",
      "set k\r\n",
      "set k 0 0\r\n",
      "set k 0 0 -1\r\n",
      "set k 0 0 99999999999999999999\r\n",
      "set k 0 0 5\r\nab\rcd\r\n",
      "set k 0 0 0\r\nx\r\n",
      "delete\r\n",
      "get \r\n",
      std::string("get k\0y\r\n", 9),
      "SET K 0 0 1\r\nx\r\n",
      "set k 0 0 1 yesreply\r\nx\r\n",
      "   \r\n",
      "stats extra args here\r\n",
  };
  for (const std::string& input : corpus) {
    request_parser p({.max_value_bytes = 64, .max_line_bytes = 128});
    bool saw_error = false;
    for (char ch : input) {
      p.feed(&ch, 1);
      for (;;) {
        const parse_event ev = p.next();
        if (ev.what == parse_event::kind::need_more) break;
        if (ev.what == parse_event::kind::error ||
            ev.what == parse_event::kind::fatal_error) {
          saw_error = true;
          continue;
        }
        // A corpus entry that happens to parse (e.g. zero-byte set) is
        // fine -- the point is no crash and no wedge -- but it must be a
        // complete request, never garbage.
        EXPECT_EQ(ev.what, parse_event::kind::request);
      }
      if (saw_error) break;  // fatal errors stop consuming; don't loop
    }
    // Resync check on non-fatal streams: a fresh parser-visible request
    // must still go through after the noise.  The extra CRLF terminates
    // any dangling partial line the entry left behind (one more error at
    // most), which is exactly how a real client would resynchronise.
    request_parser q({.max_value_bytes = 64, .max_line_bytes = 128});
    const std::string noise_then_good = input + "\r\nget resync\r\n";
    bool parsed_good = false;
    for (char ch : noise_then_good) {
      q.feed(&ch, 1);
      for (;;) {
        const parse_event ev = q.next();
        if (ev.what == parse_event::kind::need_more) break;
        if (ev.what == parse_event::kind::fatal_error) goto next_entry;
        if (ev.what == parse_event::kind::request &&
            !ev.request.keys.empty() && ev.request.keys[0] == "resync")
          parsed_good = true;
      }
    }
    EXPECT_TRUE(parsed_good) << "no resync after: " << input;
  next_entry:;
  }
}

// ---- server + client over loopback ------------------------------------------

struct server_fixture {
  std::unique_ptr<kvstore::any_sharded_store> store;
  std::unique_ptr<kv_server> server;

  explicit server_fixture(const std::string& lock = "C-TKT-TKT",
                          unsigned io_threads = 2,
                          std::size_t max_value = 1 << 20) {
    numa::set_system_topology(numa::topology::synthetic(2));
    store = kvstore::make_any_sharded_store(lock, {.shards = 4});
    server_config cfg;
    cfg.io_threads = io_threads;
    cfg.limits.max_value_bytes = max_value;
    server = std::make_unique<kv_server>(*store, cfg);
    std::string err;
    if (!server->start(&err)) throw std::runtime_error(err);
  }
  ~server_fixture() {
    if (server) server->stop();
  }
};

TEST(Server, GetSetDeleteStatsRoundTrip) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port())) << cl.last_error();

  EXPECT_EQ(cl.get("nope", nullptr), cmd_status::miss);
  EXPECT_EQ(cl.set("k", "value-1"), cmd_status::stored);
  std::string out;
  EXPECT_EQ(cl.get("k", &out), cmd_status::hit);
  EXPECT_EQ(out, "value-1");
  EXPECT_EQ(cl.del("k"), cmd_status::deleted);
  EXPECT_EQ(cl.del("k"), cmd_status::not_found);

  std::vector<std::pair<std::string, std::string>> st;
  ASSERT_TRUE(cl.stats(&st)) << cl.last_error();
  bool saw_get = false, saw_items = false;
  for (const auto& [k, v] : st) {
    if (k == "cmd_get") saw_get = true;
    if (k == "curr_items") saw_items = true;
  }
  EXPECT_TRUE(saw_get);
  EXPECT_TRUE(saw_items);

  std::string ver;
  EXPECT_TRUE(cl.version(&ver));
  cl.quit();
}

TEST(Server, BinaryValuesSurviveRoundTrip) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  std::string blob;
  cohort::xorshift rng(5);
  for (int i = 0; i < 1000; ++i)
    blob.push_back(static_cast<char>(rng.next() & 0xff));
  EXPECT_EQ(cl.set("blob", blob), cmd_status::stored);
  std::string out;
  EXPECT_EQ(cl.get("blob", &out), cmd_status::hit);
  EXPECT_EQ(out, blob);
  cl.quit();
}

TEST(Server, PipelinedRequestsAnswerInOrder) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  ASSERT_TRUE(cl.send_raw("set p 0 0 3\r\nabc\r\n"
                          "get p\r\n"
                          "get p missing\r\n"
                          "delete p\r\n"
                          "delete p\r\n"));
  std::string line, data;
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "STORED");
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "VALUE p 0 3");
  ASSERT_TRUE(cl.read_exact(5, &data));
  EXPECT_EQ(data, "abc\r\n");
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "END");
  // multi-get: only the present key comes back
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "VALUE p 0 3");
  ASSERT_TRUE(cl.read_exact(5, &data));
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "END");
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "DELETED");
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "NOT_FOUND");

  // A burst larger than the server's 16 KiB read buffer in one send: a
  // full-buffer read is followed by a short one, and the short read ends
  // the read loop.  Every reply must still come back, in order.
  constexpr int burst = 600;
  std::string big;
  for (int i = 0; i < burst; ++i) {
    const std::string key = "b" + std::to_string(i);
    const std::string val = "v" + std::to_string(100000 + i);
    big += "set " + key + " 0 0 " + std::to_string(val.size()) + "\r\n" +
           val + "\r\nget " + key + "\r\n";
  }
  ASSERT_GT(big.size(), 16384u);
  ASSERT_TRUE(cl.send_raw(big));
  for (int i = 0; i < burst; ++i) {
    const std::string key = "b" + std::to_string(i);
    const std::string val = "v" + std::to_string(100000 + i);
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "STORED") << "request " << i;
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "VALUE " + key + " 0 " + std::to_string(val.size()));
    ASSERT_TRUE(cl.read_exact(val.size() + 2, &data));
    ASSERT_EQ(data, val + "\r\n");
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "END");
  }
  cl.quit();
}

TEST(Server, NoreplySuppressesResponses) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  // Two noreply ops then a get: the first reply line on the wire must be
  // the get's VALUE.
  ASSERT_TRUE(cl.send_raw("set n 0 0 2 noreply\r\nhi\r\n"
                          "set n2 0 0 2 noreply\r\nho\r\n"
                          "get n\r\n"));
  std::string line;
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "VALUE n 0 2");
  std::string data;
  ASSERT_TRUE(cl.read_exact(4, &data));
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "END");
  cl.quit();
}

TEST(Server, OversizedAndMalformedErrorPaths) {
  server_fixture f("C-TKT-TKT", 2, /*max_value=*/1024);
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));

  const std::string big(4096, 'x');
  EXPECT_EQ(cl.set("big", big), cmd_status::too_large);
  EXPECT_EQ(cl.get("big", nullptr), cmd_status::miss);
  // The connection survives and still serves.
  EXPECT_EQ(cl.set("ok", "fine"), cmd_status::stored);

  std::string line;
  ASSERT_TRUE(cl.send_raw("warble\r\n"));
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line, "ERROR");
  ASSERT_TRUE(cl.send_raw("set broken 0 0 notanumber\r\n"));
  ASSERT_TRUE(cl.read_line(&line));
  EXPECT_EQ(line.rfind("CLIENT_ERROR", 0), 0u);

  EXPECT_EQ(cl.set("still-ok", "yes"), cmd_status::stored);
  const server_counters sc = f.server->counters();
  EXPECT_GE(sc.protocol_errors, 3u);
  cl.quit();
}

TEST(Server, FlushAllEmptiesTheStore) {
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(cl.set("f" + std::to_string(i), "v"), cmd_status::stored);
  EXPECT_EQ(cl.flush(), cmd_status::ok);
  EXPECT_EQ(cl.get("f0", nullptr), cmd_status::miss);
  EXPECT_EQ(f.store->size(), 0u);
  cl.quit();
}

TEST(Server, ManyConcurrentConnections) {
  server_fixture f("C-TKT-TKT", 3);
  constexpr int kClients = 8;
  constexpr int kOps = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      memcache_client cl;
      if (!cl.connect("127.0.0.1", f.server->port())) {
        ++failures;
        return;
      }
      cohort::xorshift rng(77 + t);
      for (int i = 0; i < kOps; ++i) {
        const std::string key =
            "c" + std::to_string(t) + "-" + std::to_string(rng.next_range(32));
        switch (rng.next_range(3)) {
          case 0:
            if (cl.set(key, "v" + std::to_string(i)) != cmd_status::stored)
              ++failures;
            break;
          case 1: {
            const cmd_status st = cl.get(key, nullptr);
            if (st != cmd_status::hit && st != cmd_status::miss) ++failures;
            break;
          }
          default: {
            const cmd_status st = cl.del(key);
            if (st != cmd_status::deleted && st != cmd_status::not_found)
              ++failures;
            break;
          }
        }
      }
      // Plain close, not quit: every op round-tripped, so the server has
      // processed exactly kOps commands for this connection by now (a quit
      // has no reply to synchronise on and would make the count racy).
      cl.close();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  const server_counters sc = f.server->counters();
  EXPECT_EQ(sc.connections, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(sc.protocol_errors, 0u);
  EXPECT_EQ(sc.commands, static_cast<std::uint64_t>(kClients) * kOps);
}

TEST(Server, HalfCloseDrainsAllBufferedReplies) {
  // A pipelining client that bursts requests and then shuts down its write
  // side must still receive every reply -- the reply volume here far
  // exceeds a socket buffer, so the server has to keep draining through
  // write readiness after seeing EOF.
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  const std::string value(64 * 1024, 'v');
  ASSERT_EQ(cl.set("big", value), cmd_status::stored);

  constexpr int kGets = 200;
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get big\r\n";
  ASSERT_TRUE(cl.send_raw(burst));
  cl.shutdown_write();

  const std::string header =
      "VALUE big 0 " + std::to_string(value.size());
  for (int i = 0; i < kGets; ++i) {
    std::string line, data;
    ASSERT_TRUE(cl.read_line(&line)) << "reply " << i << ": "
                                     << cl.last_error();
    ASSERT_EQ(line, header) << "reply " << i;
    ASSERT_TRUE(cl.read_exact(value.size() + 2, &data));
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "END") << "reply " << i;
  }
  // After the last reply the server closes its side too.
  std::string extra;
  EXPECT_FALSE(cl.read_line(&extra));
}

TEST(Server, OutputHighWaterThrottlesWithoutLosingReplies) {
  // Small value cap -> small high-water mark; a burst whose replies far
  // exceed it exercises the park/resume path (reads disabled while the
  // buffer is over the mark, parser work resumed as writes drain).
  server_fixture f("C-TKT-TKT", 2, /*max_value=*/1024);
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  const std::string value(1024, 'w');
  ASSERT_EQ(cl.set("k", value), cmd_status::stored);

  constexpr int kGets = 2000;  // ~2 MB of replies vs ~263 KB high water
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get k\r\n";
  ASSERT_TRUE(cl.send_raw(burst));
  cl.shutdown_write();

  int got = 0;
  for (int i = 0; i < kGets; ++i) {
    std::string line, data;
    ASSERT_TRUE(cl.read_line(&line)) << "reply " << i;
    ASSERT_EQ(line, "VALUE k 0 1024");
    ASSERT_TRUE(cl.read_exact(value.size() + 2, &data));
    ASSERT_TRUE(cl.read_line(&line));
    ASSERT_EQ(line, "END");
    ++got;
  }
  EXPECT_EQ(got, kGets);
  std::string extra;
  EXPECT_FALSE(cl.read_line(&extra));
}

TEST(Server, CleanShutdownWithLiveConnections) {
  auto f = std::make_unique<server_fixture>();
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f->server->port()));
  ASSERT_EQ(cl.set("k", "v"), cmd_status::stored);
  f->server->stop();  // with the connection still open
  EXPECT_FALSE(f->server->running());
  {
    // The engine is intact after shutdown.  (Scoped: a handle must not
    // outlive its store.)
    kvstore::command_executor ex(*f->store);
    std::string out;
    EXPECT_EQ(ex.get("k", &out), cmd_status::hit);
    EXPECT_EQ(out, "v");
  }
  f.reset();  // destructor path: no double-stop issues
}

TEST(Server, IdleWorkerStopsPolling) {
  // Back-to-back requests open the io threads' poll-before-block window;
  // once the load stops the window must close, so an idle server sleeps
  // in the poller instead of spinning.
  server_fixture f;
  memcache_client cl;
  ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
  ASSERT_EQ(cl.set("idle", "v"), cmd_status::stored);
  std::string out;
  for (int i = 0; i < 2000; ++i)
    ASSERT_EQ(cl.get("idle", &out), cmd_status::hit);
  const auto cpu_ms = [] {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
  };
  const double before = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(cpu_ms() - before, 30.0) << "ms of CPU over 300 ms idle";
  cl.quit();
}

TEST(Server, PollFallbackBackendServes) {
  // Force the poll(2) backend through the environment and run a round trip
  // so both poller implementations stay covered.
  ::setenv("COHORT_NET_POLL", "1", 1);
  {
    server_fixture f;
    EXPECT_FALSE(poller().using_epoll());
    memcache_client cl;
    ASSERT_TRUE(cl.connect("127.0.0.1", f.server->port()));
    EXPECT_EQ(cl.set("p", "fallback"), cmd_status::stored);
    std::string out;
    EXPECT_EQ(cl.get("p", &out), cmd_status::hit);
    EXPECT_EQ(out, "fallback");
    cl.quit();
  }
  ::unsetenv("COHORT_NET_POLL");
}

}  // namespace
}  // namespace cohort::net
