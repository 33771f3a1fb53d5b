// Hardening tests for the blocking HTTP client (src/netio/http_client):
// hung and dribbling peers must fail within the caller's deadline, and
// a server that resets the connection after the final byte must not
// fail a response we already hold. Each test stands up a raw loopback
// socket so the misbehaviour is exact — no HTTP server in the loop.
// The EpollLoop test at the end pins the watch-table contract the
// service's per-read interest updates rely on.
#include "netio/http_client.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>

#include "netio/event_loop.h"

namespace flare {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// GoogleTest ASSERT_* only works in void functions; setup code in
// constructors needs hard aborts, so use a check that works anywhere.
void CheckOrAbort(bool ok, const char* expr) {
  if (!ok) {
    std::fprintf(stderr, "RawServer setup failed: %s\n", expr);
    std::abort();
  }
}
#define CHECK_OR_ABORT(expr) CheckOrAbort((expr), #expr)

/// A loopback listener that accepts connections but speaks no HTTP —
/// each test decides what (if anything) the accepted socket does.
class RawServer {
 public:
  RawServer() {
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    CHECK_OR_ABORT(listen_fd_ >= 0);
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    CHECK_OR_ABORT(bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) == 0);
    CHECK_OR_ABORT(listen(listen_fd_, 4) == 0);
    socklen_t len = sizeof(addr);
    CHECK_OR_ABORT(getsockname(listen_fd_,
                               reinterpret_cast<sockaddr*>(&addr),
                               &len) == 0);
    port_ = ntohs(addr.sin_port);
  }
  ~RawServer() {
    CloseAccepted();
    if (listen_fd_ >= 0) close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }
  int accepted_fd() const { return accepted_fd_; }

  /// Block until a client connects; keeps the socket open and silent.
  int Accept() {
    accepted_fd_ = accept(listen_fd_, nullptr, nullptr);
    return accepted_fd_;
  }

  void CloseAccepted() {
    if (accepted_fd_ >= 0) close(accepted_fd_);
    accepted_fd_ = -1;
  }

  /// Close the accepted socket with an RST (SO_LINGER timeout 0) rather
  /// than an orderly FIN — the client sees ECONNRESET, not EOF.
  void ResetAccepted() {
    if (accepted_fd_ < 0) return;
    linger lg{};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    setsockopt(accepted_fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    close(accepted_fd_);
    accepted_fd_ = -1;
  }

  void Send(const std::string& data) {
    CHECK_OR_ABORT(send(accepted_fd_, data.data(), data.size(),
                        MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(data.size()));
  }

  /// Send that tolerates the client having hung up (returns false) —
  /// for peers deliberately outliving the client's deadline.
  bool TrySend(const std::string& data) {
    return send(accepted_fd_, data.data(), data.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(data.size());
  }

 private:
  int listen_fd_ = -1;
  int accepted_fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(NetioClientTest, HungServerFailsWithinDeadline) {
  RawServer server;
  std::thread accepter([&] { server.Accept(); });
  HttpResponse response;
  const auto start = Clock::now();
  // The server accepts but never sends a byte: HttpGet must give up at
  // its deadline, not hang on recv.
  EXPECT_FALSE(
      HttpGet("127.0.0.1", server.port(), "/metrics", &response, 200));
  const double elapsed = ElapsedMs(start);
  EXPECT_GE(elapsed, 150.0);
  EXPECT_LT(elapsed, 5000.0);  // far below the old indefinite block
  accepter.join();
}

TEST(NetioClientTest, HungServerBoundsHttpTailOpen) {
  RawServer server;
  std::thread accepter([&] { server.Accept(); });
  HttpTail tail;
  const auto start = Clock::now();
  EXPECT_FALSE(tail.Open("127.0.0.1", server.port(), "/events", 200));
  EXPECT_LT(ElapsedMs(start), 5000.0);
  accepter.join();
}

TEST(NetioClientTest, DribblingServerSharesOneDeadline) {
  RawServer server;
  std::thread dribbler([&] {
    server.Accept();
    // One byte per poll wakeup: under the old per-read timeout this
    // stream could stall Open() forever; with a single deadline per
    // call it must fail once the budget is spent.
    const std::string head = "HTTP/1.1 200 OK\r\n";
    for (char c : head) {
      // The client is expected to give up mid-dribble; a failed send
      // just means it already hung up.
      if (!server.TrySend(std::string(1, c))) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Never send the blank line terminating the header block.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    server.CloseAccepted();
  });
  HttpTail tail;
  const auto start = Clock::now();
  EXPECT_FALSE(tail.Open("127.0.0.1", server.port(), "/events", 250));
  EXPECT_LT(ElapsedMs(start), 2000.0);
  dribbler.join();
}

TEST(NetioClientTest, ResetAfterFullResponseStillParses) {
  RawServer server;
  std::thread responder([&] {
    server.Accept();
    // Drain the request so the RST cannot clobber unread inbound data.
    char buf[1024];
    (void)recv(server.accepted_fd(), buf, sizeof(buf), 0);
    server.Send(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        "Content-Length: 2\r\n\r\nok");
    // Give the client a beat to pull the bytes off loopback before the
    // reset lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.ResetAccepted();
  });
  HttpResponse response;
  EXPECT_TRUE(
      HttpGet("127.0.0.1", server.port(), "/healthz", &response, 2000));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok");
  responder.join();
}

TEST(NetioClientTest, ConnectionRefusedFailsFast) {
  // Port 1 on loopback refuses immediately — the non-blocking connect
  // must surface the error, not report a live fd.
  HttpResponse response;
  const auto start = Clock::now();
  EXPECT_FALSE(HttpGet("127.0.0.1", 1, "/metrics", &response, 1000));
  EXPECT_LT(ElapsedMs(start), 1000.0);
}

// The service re-watches a session's fd with an unchanged mask after
// every read. That re-watch skips the epoll_ctl syscall, but it must
// still install the new callback and keep the fd armed.
TEST(EpollLoopTest, RewatchWithSameMaskSwapsCallbackAndKeepsDelivering) {
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv), 0);
  EpollLoop loop;
  ASSERT_TRUE(loop.ok());
  int stale_calls = 0;
  int fresh_calls = 0;
  loop.Watch(sv[0], EpollLoop::kReadable | EpollLoop::kError,
             [&](std::uint32_t) {
               ++stale_calls;
               loop.Stop();
             });
  std::function<void(std::uint32_t)> fresh = [&](std::uint32_t events) {
    EXPECT_NE(events & EpollLoop::kReadable, 0u);
    char buf[16];
    while (read(sv[0], buf, sizeof(buf)) > 0) {
    }
    if (++fresh_calls == 1) {
      // Same mask again from inside the callback, as after a read.
      loop.Watch(sv[0], EpollLoop::kReadable | EpollLoop::kError, fresh);
      EXPECT_EQ(write(sv[1], "y", 1), 1);
    } else {
      loop.Stop();
    }
  };
  loop.Watch(sv[0], EpollLoop::kReadable | EpollLoop::kError, fresh);
  ASSERT_EQ(write(sv[1], "x", 1), 1);

  // Guard: a lost event would block Run() forever.
  std::promise<void> finished;
  std::thread guard([&loop, done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(5)) ==
        std::future_status::timeout) {
      loop.Stop();
    }
  });
  loop.Run();
  finished.set_value();
  guard.join();

  EXPECT_EQ(stale_calls, 0);
  EXPECT_EQ(fresh_calls, 2);
  loop.Unwatch(sv[0]);
  close(sv[0]);
  close(sv[1]);
}

}  // namespace
}  // namespace flare
