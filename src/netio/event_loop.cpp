#include "netio/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace flare {

EpollLoop::EpollLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (ok()) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
}

EpollLoop::~EpollLoop() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
}

void EpollLoop::Watch(int fd, std::uint32_t events, IoCallback callback) {
  if (!ok() || fd < 0) return;
  const auto [it, added] = watches_.try_emplace(fd);
  it->second.callback = std::move(callback);
  if (!added && it->second.events == events) return;
  epoll_event ev{};
  ev.events = events;  // kReadable/kWritable/kError mirror EPOLL* values
  ev.data.fd = fd;
  epoll_ctl(epoll_fd_, added ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev);
  it->second.events = events;
}

void EpollLoop::Unwatch(int fd) {
  if (!ok() || fd < 0) return;
  if (watches_.erase(fd) != 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EpollLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EpollLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    stop_requested_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void EpollLoop::DrainWake() {
  std::uint64_t count = 0;
  while (read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EpollLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void EpollLoop::Run() {
  if (!ok()) return;
  epoll_event ready[64];
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      if (stop_requested_) return;
    }
    const int n = epoll_wait(epoll_fd_, ready, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = ready[i].data.fd;
      if (fd == wake_fd_) {
        DrainWake();
        continue;
      }
      // Look the callback up fresh: an earlier callback this round may
      // have unwatched (and closed) this fd.
      const auto it = watches_.find(fd);
      if (it == watches_.end()) continue;
      // Copy: the callback may Unwatch itself, destroying the map entry.
      IoCallback cb = it->second.callback;
      cb(ready[i].events);
    }
    RunPostedTasks();
  }
}

}  // namespace flare
