// One-shot, reschedulable timer built on Simulator events.
//
// Typical users are protocol state machines (TCP retransmission timer,
// delayed-ACK timer). Rescheduling replaces any pending expiry; destruction
// cancels, so a Timer member can never fire into a destroyed object.
//
// Restarts are deferred (Varghese & Lauck, SOSP 1987): a reschedule to the
// same or a later deadline takes the deadline's order stamp right away —
// where a fresh ScheduleAt would have taken it — but leaves the queued event
// in place. When that event fires before the deadline it re-arms itself at
// (deadline, stamp), so the callback runs exactly where a cancel-and-
// reschedule would have run it, and a per-ACK RTO restart touches no queue.
// Only an earlier deadline or Cancel() removes the queued event.
#ifndef ECNSHARP_SIM_TIMER_H_
#define ECNSHARP_SIM_TIMER_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> callback)
      : sim_(sim), callback_(std::move(callback)) {}
  ~Timer() { Cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // (Re)arms the timer `delay` from now.
  void Schedule(Time delay);
  void ScheduleAt(Time when);
  void Cancel();

  bool pending() const { return order_ != 0; }
  // Absolute expiry time; meaningful only while pending().
  Time expiry() const { return expiry_; }

 private:
  // Queues the event for (expiry_, order_).
  void Arm();
  // The queued event fired; `order` is the stamp it was armed with.
  void OnEvent(std::uint64_t order);

  Simulator& sim_;
  std::function<void()> callback_;
  // The queued event; it fires at or before the deadline.
  EventId event_{};
  Time expiry_ = Time::Zero();
  // The deadline's order stamp; 0 (never issued) while idle.
  std::uint64_t order_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SIM_TIMER_H_
