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

void EventQueue::Push(SimTime at, EventFn fn, const void* owner) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot].fn = std::move(fn);
    slots_[slot].owner = owner;
  } else {
    if (slots_.size() >= kRecurring) {
      throw std::length_error("EventQueue: too many pending events");
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), owner});
  }
  PushKey(at, slot);
}

void EventQueue::CancelOwned(const void* owner) {
  if (owner == nullptr) return;
  for (Slot& slot : slots_) {
    if (slot.owner == owner) {
      slot.fn = nullptr;
      slot.owner = nullptr;
    }
  }
}

std::size_t EventQueue::OwnedPending() const {
  return static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(),
      [](const Slot& slot) { return slot.owner != nullptr; }));
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
    Slot& slot = slots_[tag];
    EventFn fn = std::move(slot.fn);
    slot.fn = nullptr;
    slot.owner = nullptr;
    free_slots_.push_back(tag);
    if (fn) fn();
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
