// Discrete-event queue.
//
// Events fire in (time, sequence number) order: every push takes the next
// value of a monotonically increasing counter, so events at the same
// timestamp fire in scheduling order regardless of heap internals.
//
// The heap holds 16-byte POD keys; each names a slot in a slab of
// callbacks, and freed slots are reused through a free list. The slot
// number never decides the order, so reuse cannot reorder events. Once
// warm, a push/run cycle allocates nothing beyond what the callable itself
// needs. A one-shot callback is moved out of its slot before it runs and
// destroyed right after, so its captured state is released as soon as it
// has fired. A recurring event keeps its callable in a task table and is
// re-pushed with a fresh sequence number after each run.
// A one-shot event may name an owner whose CancelOwned empties its slots
// in place; each emptied slot is freed when its key pops.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/time.h"

namespace flare {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  void Push(SimTime at, EventFn fn, const void* owner = nullptr);

  /// Empties every pending callable pushed with `owner` (null: none).
  /// Their keys stay and pop as no-ops, so size and order are unchanged.
  void CancelOwned(const void* owner);

  /// Pending one-shot callables that name an owner.
  std::size_t OwnedPending() const;

  /// Run `fn` at `at`, then every `period` after the previous run. Each
  /// occurrence is re-pushed after `fn` returns, so an event `fn` pushes
  /// for the instant of its next occurrence fires before that occurrence.
  void PushEvery(SimTime at, SimTime period, EventFn fn);

  bool Empty() const { return heap_.empty(); }
  std::size_t Size() const { return heap_.size(); }

  /// Time of the earliest pending event; undefined when empty.
  SimTime NextTime() const { return heap_.front().at; }

  /// Pops and runs the earliest event (nothing, if it was cancelled).
  /// Caller must check Empty() first. The callback may push and cancel
  /// events but must not Clear() the queue.
  void RunNext();

  /// Drops every pending event (recurring ones included), releasing the
  /// callables, and restarts the sequence counter.
  void Clear();

 private:
  /// A heap key: the time, then one word holding the sequence number in
  /// its high bits above a tag naming the callback. Sequence numbers are
  /// unique, so comparing the word compares them; the tag never decides.
  struct Key {
    SimTime at;
    std::uint64_t seq_tag;
  };
  /// Heap order: true when `a` fires after `b`.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq_tag > b.seq_tag;
    }
  };
  /// A tag is a slab slot, or kRecurring | an index into tasks_.
  static constexpr int kTagBits = 24;
  static constexpr std::uint32_t kRecurring = 1u << (kTagBits - 1);
  struct Slot {
    EventFn fn;
    const void* owner;
  };
  struct Task {
    EventFn fn;
    SimTime period;
  };

  void PushKey(SimTime at, std::uint32_t tag);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;  // one-shot callbacks
  std::vector<std::uint32_t> free_slots_;
  std::vector<Task> tasks_;  // recurring callbacks, kept until Clear()
  std::uint64_t next_seq_ = 0;
};

}  // namespace flare
