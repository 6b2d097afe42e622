// The persistent-congestion state machine of Algorithm 1, factored out of
// the sojourn-time AQM so it can run over EITHER congestion signal —
// "by nature, ECN# works with both queue length and sojourn time" (§3.2).
//
// Feed it one observation per departing packet (is the signal at/above the
// persistent target?) and it answers whether that packet should be marked,
// implementing detection (one full interval above target) and conservative
// marking (one packet per interval, shrinking as interval/sqrt(count)).
#ifndef ECNSHARP_CORE_PERSISTENT_MARKER_H_
#define ECNSHARP_CORE_PERSISTENT_MARKER_H_

#include <cmath>
#include <cstdint>

#include "sim/time.h"

namespace ecnsharp {

// Algorithm 1's mutable state. Plain data; value-initialized = idle.
struct PersistentMarkerState {
  bool marking_state = false;
  std::uint32_t marking_count = 0;
  Time marking_next = Time::Zero();
  Time first_above_time = Time::Zero();
};

class PersistentMarker {
 public:
  explicit PersistentMarker(Time pst_interval)
      : pst_interval_(pst_interval) {}

  // Algorithm 1, ShouldPersistentMark: must be called for every departure
  // so the state machine advances.
  bool ShouldMark(bool above_target, Time now) {
    PersistentMarkerState& st = state_;
    const bool detected = Detect(above_target, now);
    if (st.marking_state) {
      if (!detected) {
        st.marking_state = false;
        return false;
      }
      if (now > st.marking_next) {
        ++st.marking_count;
        st.marking_next +=
            pst_interval_ *
            (1.0 / std::sqrt(static_cast<double>(st.marking_count)));
        return true;
      }
      return false;
    }
    if (detected) {
      st.marking_state = true;
      st.marking_count = 1;
      st.marking_next = now + pst_interval_;
      return true;
    }
    return false;
  }

  // Changes the marking cadence in place (ECN# re-derivation after an RTT
  // distribution shift). The detection/marking state machine is reset: a new
  // interval means any in-progress observation window is no longer
  // comparable.
  void set_pst_interval(Time pst_interval) {
    pst_interval_ = pst_interval;
    state_ = PersistentMarkerState{};
  }

  bool marking_state() const { return state_.marking_state; }
  std::uint32_t marking_count() const { return state_.marking_count; }
  Time marking_next() const { return state_.marking_next; }
  Time first_above_time() const { return state_.first_above_time; }
  Time pst_interval() const { return pst_interval_; }

 private:
  // Algorithm 1, IsPersistentQueueBuildups.
  bool Detect(bool above_target, Time now) {
    PersistentMarkerState& st = state_;
    if (!above_target) {
      st.first_above_time = Time::Zero();
      return false;
    }
    if (st.first_above_time.IsZero()) {
      st.first_above_time = now;
      return false;
    }
    return now > st.first_above_time + pst_interval_;
  }

  Time pst_interval_;
  PersistentMarkerState state_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_CORE_PERSISTENT_MARKER_H_
