// DeliveryQueue: packets in flight through a delay stage — a link's wire,
// a DelayLine, a host's extra egress delay — delivered in (deliver_at,
// order) sequence by one pinned event armed for the front packet.
//
// The order stamp of each packet is reserved when it enters the queue,
// exactly where the one-closure-per-packet scheme scheduled its delivery
// event, so batched deliveries interleave with every other event as that
// scheme's did. Under LegacyPerPacketEvents() (net/event_mode.h) Push
// schedules that closure instead; the parity suites run both.
//
// Storage is a power-of-two ring allocated on first use. Entries are kept
// sorted: with a fixed delay and a monotone clock a push appends, and only
// a shortened delay (a per-packet sampler, SetPropagationDelay, a host
// delay change) walks back past later deliveries.
#ifndef ECNSHARP_NET_DELIVERY_QUEUE_H_
#define ECNSHARP_NET_DELIVERY_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/event_mode.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ecnsharp {

// `Deliver` is a small callable, `void(std::unique_ptr<Packet> pkt, bool
// flag)`, that receives each packet when its delay has elapsed together
// with the flag it was pushed with (the wire uses it for corruption).
template <typename Deliver>
class DeliveryQueue {
 public:
  DeliveryQueue(Simulator& sim, Deliver deliver)
      : sim_(sim), deliver_(std::move(deliver)) {
    event_ = sim_.CreatePinned(
        [](void* q) { static_cast<DeliveryQueue*>(q)->DeliverFront(); },
        this);
  }
  ~DeliveryQueue() { sim_.DestroyPinned(event_); }
  DeliveryQueue(const DeliveryQueue&) = delete;
  DeliveryQueue& operator=(const DeliveryQueue&) = delete;

  void Push(Time deliver_at, std::unique_ptr<Packet> pkt, bool flag = false) {
    if (deliver_at < sim_.Now()) deliver_at = sim_.Now();
    if (LegacyPerPacketEvents()) {
      sim_.ScheduleAt(deliver_at, [this, p = std::move(pkt), flag]() mutable {
        deliver_(std::move(p), flag);
      });
      return;
    }
    Insert(Entry{deliver_at, (sim_.ReserveOrder() << 1) | (flag ? 1u : 0u),
                 std::move(pkt)});
  }

 private:
  // 24 bytes: the flag rides in the low bit of the order key. Order stamps
  // are unique, so comparing keys compares stamps.
  struct Entry {
    Time deliver_at;
    std::uint64_t key = 0;  // order << 1 | flag
    std::unique_ptr<Packet> pkt;
  };
  static constexpr std::size_t kInitialCapacity = 8;

  static bool Before(const Entry& a, const Entry& b) {
    return a.deliver_at < b.deliver_at ||
           (a.deliver_at == b.deliver_at && a.key < b.key);
  }
  Entry& at(std::size_t i) { return ring_[(head_ + i) & (ring_.size() - 1)]; }

  void Insert(Entry entry) {
    if (size_ == ring_.size()) Grow();
    // Walk back past later deliveries, shifting each up one place.
    std::size_t pos = size_;
    while (pos != 0 && Before(entry, at(pos - 1))) {
      at(pos) = std::move(at(pos - 1));
      --pos;
    }
    at(pos) = std::move(entry);
    ++size_;
    if (pos == 0) {
      // New front: the pinned event tracks its reserved (when, order).
      if (sim_.PinnedArmed(event_)) sim_.CancelPinned(event_);
      ArmFront();
    }
  }

  void ArmFront() {
    const Entry& front = at(0);
    sim_.SchedulePinnedAtOrdered(event_, front.deliver_at, front.key >> 1);
  }

  Entry PopFront() {
    Entry entry = std::move(at(0));
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    return entry;
  }

  void DeliverFront() {
    Entry entry = PopFront();
    if (size_ != 0) ArmFront();
    deliver_(std::move(entry.pkt), (entry.key & 1) != 0);
  }

  void Grow() {
    std::vector<Entry> bigger(ring_.empty() ? kInitialCapacity
                                            : ring_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move(at(i));
    ring_.swap(bigger);
    head_ = 0;
  }

  Simulator& sim_;
  Deliver deliver_;
  std::vector<Entry> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  PinnedEventId event_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_DELIVERY_QUEUE_H_
