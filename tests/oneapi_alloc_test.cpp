// The daemon's BAI tick makes no heap allocation per session: a steady
// TriggerTick allocates the same number of times at 32 and at 256
// sessions. Every operator new in this binary is counted while
// g_count_allocations is set, which is only around TriggerTick; the test
// clients read their sockets after the tick has returned, so the count
// holds the service's loop thread alone.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/messages.h"
#include "netio/http_client.h"
#include "svc/frame.h"
#include "svc/oneapi_service.h"

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAllocOrThrow(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new[](std::size_t size) { return CountedAllocOrThrow(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace flare {
namespace {

using Clock = std::chrono::steady_clock;

/// One session's client end: sends its frames whole and reads one frame
/// at a time, polling with a deadline.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(BlockingConnect("127.0.0.1", port, 2000)) {}
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Send(FrameType type, const std::string& payload) {
    const std::string wire = EncodeFrame(type, payload);
    std::size_t off = 0;
    while (off < wire.size()) {
      pollfd pfd{fd_, POLLOUT, 0};
      if (poll(&pfd, 1, 2000) <= 0) return false;
      const ssize_t n =
          send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::optional<Frame> Read() {
    Frame frame;
    for (;;) {
      const FrameParseStatus status = ParseFrame(&buffer_, &frame);
      if (status == FrameParseStatus::kFrame) return frame;
      if (status == FrameParseStatus::kError) return std::nullopt;
      pollfd pfd{fd_, POLLIN, 0};
      if (poll(&pfd, 1, 2000) <= 0) return std::nullopt;
      char buf[4096];
      const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(buf, static_cast<std::size_t>(n));
    }
  }

  bool ok() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::string buffer_;
};

template <typename Pred>
bool WaitFor(Pred predicate) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!predicate()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Heap allocations of each of `measured` steady-state ticks over
/// `n_sessions` sessions, each of which answers every assignment with a
/// stats report. Empty on a setup failure (reported through gtest).
std::vector<std::size_t> TickAllocations(int n_sessions, int measured) {
  OneApiServiceOptions options;
  options.bai_ms = 0;  // ticks come from TriggerTick alone
  options.num_rbs = 7 * n_sessions;  // the median session sits mid-ladder
  OneApiService service(options);
  EXPECT_TRUE(service.Start());

  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < n_sessions; ++i) {
    clients.push_back(std::make_unique<Client>(service.port()));
    ClientInfo info;
    info.flow = static_cast<FlowId>(i + 1);
    info.ladder_bps = {200e3, 400e3, 800e3, 1600e3, 3200e3};
    if (!clients.back()->ok() ||
        !clients.back()->Send(FrameType::kClientInfo, EncodeClientInfo(info))) {
      ADD_FAILURE() << "session " << i << " could not connect";
      return {};
    }
  }
  for (int i = 0; i < n_sessions; ++i) {
    const auto welcome = clients[static_cast<std::size_t>(i)]->Read();
    if (!welcome || welcome->type != FrameType::kWelcome) {
      ADD_FAILURE() << "session " << i << " was not admitted";
      return {};
    }
  }

  constexpr int kWarmupTicks = 5;
  std::uint64_t reports = 0;
  std::vector<std::size_t> allocations;
  for (int tick = 0; tick < kWarmupTicks + measured; ++tick) {
    g_allocations.store(0);
    g_count_allocations.store(true);
    service.TriggerTick();
    g_count_allocations.store(false);
    if (tick >= kWarmupTicks) allocations.push_back(g_allocations.load());

    // Every assignment is on the wire once TriggerTick returns; answer
    // each one, and let the service take every report in before the next
    // tick, so nothing but the tick runs while allocations are counted.
    for (int i = 0; i < n_sessions; ++i) {
      Client& client = *clients[static_cast<std::size_t>(i)];
      const auto frame = client.Read();
      if (!frame || frame->type != FrameType::kAssignment) {
        ADD_FAILURE() << "session " << i << " missed tick " << tick;
        return {};
      }
      FlowStatsReport report;
      report.flow = static_cast<FlowId>(i + 1);
      report.type = FlowType::kVideo;
      report.tx_bytes = static_cast<std::uint64_t>(100 + 20 * (i % 16));
      report.rbs = 8;
      EXPECT_TRUE(
          client.Send(FrameType::kStatsReport, EncodeStatsReport(report)));
    }
    reports += static_cast<std::uint64_t>(n_sessions);
    EXPECT_TRUE(WaitFor([&] { return service.stats_received() >= reports; }));
  }
  EXPECT_EQ(service.assignments_sent(),
            static_cast<std::uint64_t>(n_sessions) *
                static_cast<std::uint64_t>(kWarmupTicks + measured));
  EXPECT_EQ(service.assignments_dropped(), 0u);
  service.Stop();
  return allocations;
}

TEST(OneApiServiceAlloc, SteadyTickAllocationsDoNotGrowWithSessions) {
  constexpr int kMeasured = 3;
  const std::vector<std::size_t> small = TickAllocations(32, kMeasured);
  const std::vector<std::size_t> large = TickAllocations(256, kMeasured);
  ASSERT_EQ(small.size(), static_cast<std::size_t>(kMeasured));
  ASSERT_EQ(large.size(), static_cast<std::size_t>(kMeasured));
  for (int k = 0; k < kMeasured; ++k) {
    EXPECT_EQ(large[static_cast<std::size_t>(k)],
              small[static_cast<std::size_t>(k)])
        << "tick " << k << ": 32 sessions allocate "
        << small[static_cast<std::size_t>(k)] << " times, 256 sessions "
        << large[static_cast<std::size_t>(k)] << " times";
  }
}

}  // namespace
}  // namespace flare
