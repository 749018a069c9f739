#ifndef ADS_COMMON_EVENT_QUEUE_H_
#define ADS_COMMON_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace ads::common {

/// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

/// Discrete-event simulation kernel shared by the infrastructure and engine
/// simulators. Events are (time, sequence, callback) tuples; ties on time
/// break by insertion order so simulations are deterministic.
///
/// The heap orders small trivially-copyable (when, seq, slot) keys; each
/// callback lives in a slot vector whose freed slots are reused, and is
/// moved (never copied) out of its slot when its event runs. Callbacks
/// that capture large state (a whole request) therefore cost no copy per
/// heap sift or pop.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedules `cb` at absolute time `when`. Requires when >= now().
  void ScheduleAt(SimTime when, Callback cb);
  /// Schedules `cb` after `delay` seconds from now.
  void ScheduleAfter(SimTime delay, Callback cb);

  /// Runs events until the queue drains or now() would exceed `horizon`.
  /// Events scheduled exactly at the horizon still run.
  void RunUntil(SimTime horizon);
  /// Runs until the queue is empty.
  void RunAll();
  /// Runs a single event; returns false if the queue is empty.
  bool Step();

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

 private:
  struct Key {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  /// Binary min-heap on (when, seq), maintained with std::push_heap /
  /// std::pop_heap.
  std::vector<Key> heap_;
  std::vector<Callback> slots_;
  std::vector<uint32_t> free_slots_;
};

/// Converts hours to simulation seconds.
constexpr SimTime Hours(double h) { return h * 3600.0; }
/// Converts minutes to simulation seconds.
constexpr SimTime Minutes(double m) { return m * 60.0; }
/// Converts days to simulation seconds.
constexpr SimTime Days(double d) { return d * 86400.0; }

}  // namespace ads::common

#endif  // ADS_COMMON_EVENT_QUEUE_H_
