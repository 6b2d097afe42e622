// DelayLine: a netem-like stage that forwards packets to the next sink after
// an extra delay.
//
// The paper emulates RTT variation by adding sender-side delay with Linux
// netem (§2.3); a DelayLine with a fixed delay per host reproduces exactly
// that. With a stochastic sampler it models a variable-latency processing
// component (SLB, hypervisor, loaded network stack — §2.2).
//
// In-flight packets sit in a DeliveryQueue (net/delivery_queue.h): O(1) per
// packet, no closure allocation, deliveries interleaved exactly like the
// legacy one-event-per-packet scheme (net/event_mode.h switches back to it
// for parity tests).
#ifndef ECNSHARP_NET_DELAY_LINE_H_
#define ECNSHARP_NET_DELAY_LINE_H_

#include <functional>
#include <memory>
#include <utility>

#include "net/delivery_queue.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class DelayLine : public PacketSink {
 public:
  // Fixed extra delay.
  DelayLine(Simulator& sim, PacketSink& next, Time delay)
      : DelayLine(sim, next, std::function<Time()>([delay] { return delay; })) {}

  // Stochastic extra delay: `sampler` is invoked once per packet. Note that
  // a stochastic stage can reorder packets, just like a real variable-latency
  // component.
  DelayLine(Simulator& sim, PacketSink& next, std::function<Time()> sampler)
      : sim_(sim), sampler_(std::move(sampler)), queue_(sim, Next{&next}) {}

  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    queue_.Push(sim_.Now() + sampler_(), std::move(pkt));
  }

  // Runtime reconfiguration (dynamics scripts shift the delay distribution
  // mid-run). Applies to packets that arrive after the call; packets already
  // in flight keep the delay they were scheduled with.
  void SetDelay(Time delay) {
    sampler_ = [delay] { return delay; };
  }
  void SetSampler(std::function<Time()> sampler) {
    sampler_ = std::move(sampler);
  }

 private:
  struct Next {
    PacketSink* sink;
    void operator()(std::unique_ptr<Packet> pkt, bool) const {
      sink->HandlePacket(std::move(pkt));
    }
  };

  Simulator& sim_;
  std::function<Time()> sampler_;
  DeliveryQueue<Next> queue_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_DELAY_LINE_H_
