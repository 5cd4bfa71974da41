// Transport half of the evaluation service under test: endpoint parsing,
// the stdio loop (including the dead-reader regression — a closed pipe
// must stop the loop with clean == false, not silently drop responses or
// die on SIGPIPE), and the socket loop with concurrent clients, a
// mid-line disconnect, and the graceful-shutdown drain guarantee.
// Deliberately self-contained over serve_loop + util/net + a stub handler
// (no evaluation stack) so it also compiles into the tsan. ctest variant.
#include "core/serve_loop.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "util/net.h"

namespace fs = std::filesystem;
using namespace vcoadc;
using core::ServeResult;
using util::net::Connection;
using util::net::Endpoint;
using util::net::Listener;

namespace {

/// Unix-socket path under the temp dir, short enough for sun_path, and
/// this process's own (the plain and TSan variants of a test run
/// concurrently under `ctest -j`).
std::string temp_sock_path(const std::string& tag) {
  const fs::path p = fs::temp_directory_path() /
                     ("vcoadc_net_" + tag + "_" +
                      std::to_string(::getpid()) + ".sock");
  std::error_code ec;
  fs::remove(p, ec);
  return p.string();
}

/// Echo handler: counts dispatches and tags each response with its input,
/// so a response proves which request produced it.
struct EchoHandler {
  std::atomic<int> calls{0};
  core::ServeHandler fn() {
    return [this](const std::string& line) {
      calls.fetch_add(1);
      return "echo:" + line;
    };
  }
};

TEST(EndpointTest, ParsesTcpAndUnixSpecs) {
  Endpoint tcp = util::net::parse_endpoint("tcp:8080");
  EXPECT_TRUE(tcp.ok);
  EXPECT_TRUE(tcp.is_tcp);
  EXPECT_EQ(tcp.tcp_port, 8080);

  Endpoint eph = util::net::parse_endpoint("tcp:0");
  EXPECT_TRUE(eph.ok);
  EXPECT_EQ(eph.tcp_port, 0);

  Endpoint ux = util::net::parse_endpoint("/tmp/x.sock");
  EXPECT_TRUE(ux.ok);
  EXPECT_FALSE(ux.is_tcp);
  EXPECT_EQ(ux.unix_path, "/tmp/x.sock");

  Endpoint pfx = util::net::parse_endpoint("unix:/tmp/y.sock");
  EXPECT_TRUE(pfx.ok);
  EXPECT_EQ(pfx.unix_path, "/tmp/y.sock");

  EXPECT_FALSE(util::net::parse_endpoint("").ok);
  EXPECT_FALSE(util::net::parse_endpoint("tcp:notaport").ok);
  EXPECT_FALSE(util::net::parse_endpoint("tcp:70000").ok);
}

TEST(ServeStdioTest, OneResponseLinePerRequestBlanksSkipped) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs("alpha\n\n   \nbeta\n", in);
  std::rewind(in);

  EchoHandler h;
  const ServeResult res = core::serve_stdio(in, out, h.fn());
  EXPECT_TRUE(res.clean);
  EXPECT_EQ(res.stats.requests, 2u);
  EXPECT_EQ(res.stats.responses_written, 2u);
  EXPECT_EQ(h.calls.load(), 2);

  std::rewind(out);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, out), nullptr);
  EXPECT_STREQ(buf, "echo:alpha\n");
  ASSERT_NE(std::fgets(buf, sizeof buf, out), nullptr);
  EXPECT_STREQ(buf, "echo:beta\n");
  std::fclose(in);
  std::fclose(out);
}

#if !defined(_WIN32)

// Regression: the original loop wrote responses with unchecked
// fwrite/fflush — a reader that closed early (broken pipe) either killed
// the process via SIGPIPE or let it keep evaluating into the void. The
// loop must stop with clean == false and a counted write failure.
TEST(ServeStdioTest, DeadReaderStopsTheLoopCleanly) {
  util::net::ignore_sigpipe();
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ::close(fds[0]);  // the reader goes away before the first response
  std::FILE* out = fdopen(fds[1], "w");
  ASSERT_NE(out, nullptr);

  std::FILE* in = std::tmpfile();
  ASSERT_NE(in, nullptr);
  std::fputs("req1\nreq2\n", in);
  std::rewind(in);

  EchoHandler h;
  const ServeResult res = core::serve_stdio(in, out, h.fn());
  EXPECT_FALSE(res.clean);
  EXPECT_FALSE(res.error.empty());
  EXPECT_EQ(res.stats.write_failures, 1u);
  EXPECT_EQ(res.stats.responses_written, 0u);
  // The loop stopped at the first failed write instead of burning the
  // second request against a gone reader.
  EXPECT_EQ(h.calls.load(), 1);
  std::fclose(in);
  std::fclose(out);
}

/// Runs serve_socket on a background thread; stops and joins at scope
/// exit. `stop` is the graceful-shutdown flag under test.
struct ServerFixture {
  Listener listener;
  EchoHandler handler;
  std::atomic<bool> stop{false};
  ServeResult result;
  std::thread thread;

  explicit ServerFixture(const Endpoint& ep) {
    std::string err;
    listener = Listener::listen(ep, &err);
    EXPECT_TRUE(listener.valid()) << err;
    core::SocketServeOptions opts;
    opts.poll_ms = 20;
    opts.stop = &stop;
    thread = std::thread([this, opts] {
      result = core::serve_socket(listener, handler.fn(), opts);
    });
  }
  void shutdown() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
  ~ServerFixture() { shutdown(); }
};

TEST(ServeSocketTest, ConcurrentClientsGetOrderedResponses) {
  const std::string path = temp_sock_path("clients");
  const Endpoint ep = util::net::parse_endpoint(path);
  ServerFixture server(ep);
  ASSERT_TRUE(server.listener.valid());

  constexpr int kClients = 4;
  constexpr int kRequests = 16;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string err;
      Connection conn = util::net::dial(ep, &err);
      ASSERT_TRUE(conn.valid()) << err;
      for (int i = 0; i < kRequests; ++i) {
        const std::string req =
            "c" + std::to_string(c) + "-r" + std::to_string(i);
        ASSERT_TRUE(conn.write_line(req));
        std::string resp;
        ASSERT_EQ(conn.read_line(&resp), Connection::ReadStatus::kLine);
        got[c].push_back(resp);
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();

  // Per-connection ordering: client c's i-th response answers its i-th
  // request, for every interleaving the scheduler produced.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), static_cast<std::size_t>(kRequests));
    for (int i = 0; i < kRequests; ++i) {
      EXPECT_EQ(got[c][i], "echo:c" + std::to_string(c) + "-r" +
                               std::to_string(i));
    }
  }
  EXPECT_TRUE(server.result.clean) << server.result.error;
  EXPECT_EQ(server.result.stats.requests,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(server.result.stats.responses_written,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_EQ(server.result.stats.connections_accepted,
            static_cast<std::uint64_t>(kClients));
  // Clean shutdown unlinks the socket path.
  EXPECT_FALSE(fs::exists(path));
}

TEST(ServeSocketTest, MidLineDisconnectIsDroppedNotDispatched) {
  const std::string path = temp_sock_path("midline");
  const Endpoint ep = util::net::parse_endpoint(path);
  ServerFixture server(ep);
  ASSERT_TRUE(server.listener.valid());

  std::string err;
  {
    Connection conn = util::net::dial(ep, &err);
    ASSERT_TRUE(conn.valid()) << err;
    ASSERT_TRUE(conn.write_line("complete"));
    std::string resp;
    ASSERT_EQ(conn.read_line(&resp), Connection::ReadStatus::kLine);
    EXPECT_EQ(resp, "echo:complete");
    // Half a request, no terminator, then the client dies mid-line.
    ASSERT_TRUE(conn.write_all("trunca"));
  }  // close
  server.shutdown();

  // The torn fragment was never dispatched as a request; the one whole
  // request was. Other connections would be unaffected (kEof drops only
  // this connection).
  EXPECT_EQ(server.handler.calls.load(), 1);
  EXPECT_EQ(server.result.stats.requests, 1u);
  EXPECT_TRUE(server.result.clean) << server.result.error;
}

TEST(ServeSocketTest, StopDrainsInFlightRequestBeforeClosing) {
  const std::string path = temp_sock_path("drain");
  const Endpoint ep = util::net::parse_endpoint(path);

  std::string err;
  Listener listener = Listener::listen(ep, &err);
  ASSERT_TRUE(listener.valid()) << err;

  std::atomic<bool> stop{false};
  std::atomic<bool> in_handler{false};
  // A deliberately slow handler so the stop flag flips while the request
  // is in flight.
  const core::ServeHandler slow = [&](const std::string& line) {
    in_handler.store(true);
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return "late:" + line;
  };
  core::SocketServeOptions opts;
  opts.poll_ms = 20;
  opts.stop = &stop;
  ServeResult result;
  std::thread server(
      [&] { result = core::serve_socket(listener, slow, opts); });

  Connection conn = util::net::dial(ep, &err);
  ASSERT_TRUE(conn.valid()) << err;
  ASSERT_TRUE(conn.write_line("final"));
  while (!in_handler.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);  // shutdown lands mid-request

  // Drain guarantee: the response still arrives before the server closes.
  std::string resp;
  EXPECT_EQ(conn.read_line(&resp), Connection::ReadStatus::kLine);
  EXPECT_EQ(resp, "late:final");
  server.join();
  EXPECT_TRUE(result.clean) << result.error;
  EXPECT_EQ(result.stats.responses_written, 1u);
}

TEST(ServeSocketTest, TcpEphemeralPortResolvesAndServes) {
  const Endpoint ep = util::net::parse_endpoint("tcp:0");
  ASSERT_TRUE(ep.ok);
  ServerFixture server(ep);
  ASSERT_TRUE(server.listener.valid());
  const int port = server.listener.port();
  EXPECT_GT(port, 0);

  const Endpoint dial_ep =
      util::net::parse_endpoint("tcp:" + std::to_string(port));
  std::string err;
  Connection conn = util::net::dial(dial_ep, &err);
  ASSERT_TRUE(conn.valid()) << err;
  ASSERT_TRUE(conn.write_line("over-tcp"));
  std::string resp;
  ASSERT_EQ(conn.read_line(&resp), Connection::ReadStatus::kLine);
  EXPECT_EQ(resp, "echo:over-tcp");
  conn.close();
  server.shutdown();
  EXPECT_TRUE(server.result.clean) << server.result.error;
}

TEST(ServeSocketTest, StaleSocketFileIsReplacedButRegularFileIsNot) {
  const std::string path = temp_sock_path("stale");
  const Endpoint ep = util::net::parse_endpoint(path);
  std::string err;
  {
    // First server leaves... nothing, but simulate a crash by creating
    // the socket file without a listener behind it.
    Listener first = Listener::listen(ep, &err);
    ASSERT_TRUE(first.valid()) << err;
    // Crash simulation: drop the fd but keep the path on disk.
    first = Listener();  // move-assign empties; dtor of old closes fd
  }
  // close() unlinked it; recreate a stale socket file via a throwaway
  // listener whose path we then steal.
  {
    Listener ghost = Listener::listen(ep, &err);
    ASSERT_TRUE(ghost.valid()) << err;
    // Leak the path on purpose: bind a second listener over it.
    Listener second = Listener::listen(ep, &err);
    EXPECT_TRUE(second.valid()) << err;
  }

  // A regular file at the endpoint path must never be deleted — that
  // would turn a typo'd --listen into data loss.
  const std::string filepath = temp_sock_path("regular");
  {
    std::FILE* f = std::fopen(filepath.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("precious\n", f);
    std::fclose(f);
  }
  const Endpoint file_ep = util::net::parse_endpoint(filepath);
  Listener refused = Listener::listen(file_ep, &err);
  EXPECT_FALSE(refused.valid());
  EXPECT_TRUE(fs::exists(filepath));
  fs::remove(filepath);
}

#endif  // !_WIN32

}  // namespace
