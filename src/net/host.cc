#include "net/host.h"

namespace ecnsharp {

void Host::SendPacket(std::unique_ptr<Packet> pkt) {
  if (extra_egress_delay_.IsZero()) {
    nic().Enqueue(std::move(pkt));
    return;
  }
  // The delay queue reserves each packet's order stamp here, so a constant
  // delay keeps packet order and same-instant ties resolve as they would
  // for an event scheduled at this point. After a delay change, packets
  // are delivered by their own due times: a shorter delay lets new packets
  // overtake ones still delayed, as netem would.
  egress_delay_.Push(sim_.Now() + extra_egress_delay_, std::move(pkt));
}

}  // namespace ecnsharp
