#include "sim/timer.h"

namespace ecnsharp {

void Timer::Schedule(Time delay) { ScheduleAt(sim_.Now() + delay); }

void Timer::ScheduleAt(Time when) {
  if (pending() && when >= expiry_) {
    // The queued event fires no later than the new deadline; OnEvent moves
    // it there.
    expiry_ = when;
    order_ = sim_.ReserveOrder();
    return;
  }
  Cancel();
  expiry_ = when;
  order_ = sim_.ReserveOrder();
  Arm();
}

void Timer::Cancel() {
  if (pending()) {
    sim_.Cancel(event_);
    order_ = 0;
  }
}

void Timer::Arm() {
  const std::uint64_t order = order_;
  event_ = sim_.ScheduleAtOrdered(expiry_, order,
                                  [this, order] { OnEvent(order); });
}

void Timer::OnEvent(std::uint64_t order) {
  if (order != order_) {
    Arm();  // the deadline moved later after this event was queued
    return;
  }
  order_ = 0;
  callback_();
}

}  // namespace ecnsharp
