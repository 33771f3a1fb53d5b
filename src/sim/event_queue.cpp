#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace flare {

void EventQueue::PushKey(SimTime at, std::uint32_t tag) {
  if (next_seq_ >> (64 - kTagBits) != 0) {
    throw std::overflow_error("EventQueue: sequence numbers exhausted");
  }
  heap_.push_back(Key{at, next_seq_++ << kTagBits | tag});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::Push(SimTime at, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  } else {
    if (slots_.size() >= kRecurring) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  }
  PushKey(at, slot);
}

void EventQueue::PushEvery(SimTime at, SimTime period, EventFn fn) {
  if (tasks_.size() >= kRecurring) {
    throw std::length_error("EventQueue: too many recurring events");
  }
  tasks_.push_back(Task{std::move(fn), std::max<SimTime>(period, 0)});
  PushKey(at, kRecurring | static_cast<std::uint32_t>(tasks_.size() - 1));
}

void EventQueue::RunNext() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  const auto tag = static_cast<std::uint32_t>(
      key.seq_tag & ((std::uint64_t{1} << kTagBits) - 1));
  // Move the callback out before running it: it may push events, which
  // can grow (and reallocate) the slab or the task table under a
  // reference into them.
  if ((tag & kRecurring) == 0) {
    EventFn fn = std::move(slots_[tag]);
    slots_[tag] = nullptr;
    free_slots_.push_back(tag);
    fn();
    return;
  }
  const std::uint32_t task = tag & ~kRecurring;
  EventFn fn = std::move(tasks_[task].fn);
  fn();
  tasks_[task].fn = std::move(fn);
  PushKey(key.at + tasks_[task].period, tag);
}

void EventQueue::Clear() {
  heap_.clear();
  slots_.clear();
  free_slots_.clear();
  tasks_.clear();
  next_seq_ = 0;
}

}  // namespace flare
