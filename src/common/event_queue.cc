#include "common/event_queue.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace ads::common {

void EventQueue::ScheduleAt(SimTime when, Callback cb) {
  ADS_CHECK(when >= now_) << "event scheduled in the past: " << when
                          << " < " << now_;
  uint32_t slot;
  if (free_slots_.empty()) {
    ADS_CHECK(slots_.size() < std::numeric_limits<uint32_t>::max())
        << "too many pending events";
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Key{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later());
}

void EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  ADS_CHECK(delay >= 0.0) << "negative delay";
  ScheduleAt(now_ + delay, std::move(cb));
}

bool EventQueue::Step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  const Key key = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it, so events
  // the callback schedules can reuse the slot.
  Callback cb = std::move(slots_[key.slot]);
  slots_[key.slot] = nullptr;
  free_slots_.push_back(key.slot);
  now_ = key.when;
  cb(now_);
  return true;
}

void EventQueue::RunUntil(SimTime horizon) {
  while (!heap_.empty() && heap_.front().when <= horizon) {
    Step();
  }
  if (now_ < horizon) now_ = horizon;
}

void EventQueue::RunAll() {
  while (Step()) {
  }
}

}  // namespace ads::common
