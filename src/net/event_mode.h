// Global datapath event-mode switch.
//
// The burst-drain refactor drives each port's serialization and wire
// delivery with two persistent (pinned) events re-armed in place, instead of
// allocating a fresh closure event per packet. The two modes execute
// byte-identically by construction — order stamps are reserved at exactly
// the legacy scheduling points — and the golden parity suite pins that by
// running the same scenario in both modes.
#ifndef ECNSHARP_NET_EVENT_MODE_H_
#define ECNSHARP_NET_EVENT_MODE_H_

namespace ecnsharp {

// When true, every DeliveryQueue (wire, DelayLine, host extra egress delay)
// and EgressPort's transmitter schedule one closure event per packet (the
// pre-refactor code path). Default false. Flip only between simulations,
// never mid-run.
inline bool& LegacyPerPacketEvents() {
  static bool legacy = false;
  return legacy;
}

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_EVENT_MODE_H_
