// Minimal epoll event loop for background service threads.
//
// The telemetry plane (obs/telemetry_server) needs a real socket server
// that can never stall the simulation: all IO runs on one dedicated
// thread inside this loop, and the only cross-thread surface is Post(),
// which enqueues a closure and wakes the loop through an eventfd. The
// loop is deliberately small and reusable — ROADMAP item 2's standalone
// OneAPI control-plane server is expected to ride on the same classes
// (listener, buffered connections, loop) with a different protocol on
// top.
//
// Threading contract: Watch/Unwatch/Run are loop-thread-only (call Watch
// before Run for the initial set, or from a Post()ed task / IO callback
// afterwards). Post() and Stop() are safe from any thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

namespace flare {

class EpollLoop {
 public:
  /// Bitmask passed to IO callbacks; values match EPOLLIN/EPOLLOUT so the
  /// header does not leak <sys/epoll.h> into every includer.
  static constexpr std::uint32_t kReadable = 0x001;   // EPOLLIN
  static constexpr std::uint32_t kWritable = 0x004;   // EPOLLOUT
  static constexpr std::uint32_t kError = 0x008 | 0x010;  // EPOLLERR|HUP

  using IoCallback = std::function<void(std::uint32_t events)>;

  EpollLoop();
  ~EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// False when epoll/eventfd creation failed (the loop is inert).
  bool ok() const { return epoll_fd_ >= 0 && wake_fd_ >= 0; }

  /// Register (or re-register with a new mask) a level-triggered watch.
  /// The callback runs on the loop thread; it may Unwatch its own fd.
  /// Re-watching with the mask already registered swaps the callback
  /// without a syscall.
  void Watch(int fd, std::uint32_t events, IoCallback callback);
  /// Drop the watch; safe for fds that were never watched. Does not
  /// close the fd — ownership stays with the caller.
  void Unwatch(int fd);

  /// Run `task` on the loop thread at the next wakeup. Thread-safe.
  void Post(std::function<void()> task);

  /// Dispatch IO and posted tasks until Stop(). Returns immediately when
  /// construction failed.
  void Run();
  /// Request Run() to return after the current dispatch round.
  /// Thread-safe and idempotent.
  void Stop();

 private:
  void DrainWake();
  void RunPostedTasks();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Post()/Stop() wakeups
  struct WatchEntry {
    std::uint32_t events = 0;  // mask registered with the kernel
    IoCallback callback;
  };
  std::map<int, WatchEntry> watches_;

  std::mutex post_mu_;
  std::vector<std::function<void()>> posted_;
  bool stop_requested_ = false;  // under post_mu_
};

}  // namespace flare
