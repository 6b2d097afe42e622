// Strict-priority scheduler: class 0 is always served first, then class 1,
// and so on. Each class has its own FIFO and optional AQM instance — the
// second scheduler used to demonstrate that sojourn-time AQMs (TCN, ECN#)
// compose with arbitrary schedulers (§3.2, §5.4).
#ifndef ECNSHARP_SCHED_SP_QUEUE_DISC_H_
#define ECNSHARP_SCHED_SP_QUEUE_DISC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "buffer/buffer_policy.h"
#include "net/packet.h"
#include "net/packet_ring.h"
#include "net/queue_disc.h"

namespace ecnsharp {

class SpQueueDisc final : public QueueDisc {
 public:
  struct ClassConfig {
    std::unique_ptr<AqmPolicy> aqm;  // may be null
  };

  SpQueueDisc(std::uint64_t capacity_bytes, std::vector<ClassConfig> classes,
              std::function<std::size_t(const Packet&)> classifier = nullptr);

  // Draws buffer from a shared policy instead of a static capacity: each
  // class registers one policy queue with priority = its class index (which
  // is also its strict-priority rank). The policy must outlive the disc.
  SpQueueDisc(BufferPolicy& policy, std::vector<ClassConfig> classes,
              std::function<std::size_t(const Packet&)> classifier = nullptr);

  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override;
  std::unique_ptr<Packet> Dequeue(Time now) override;
  std::uint32_t PurgeAll(Time now) override;
  QueueSnapshot Snapshot() const override {
    return QueueSnapshot{total_packets_, total_bytes_};
  }

  std::size_t class_count() const { return classes_.size(); }
  QueueSnapshot ClassSnapshot(std::size_t cls) const;

 private:
  struct ClassState {
    std::unique_ptr<AqmPolicy> aqm;
    PacketRing queue;
    std::size_t pool_queue = 0;  // this class's queue id with the policy
    // Cached AqmFastPath verdict for this class's policy.
    bool aqm_threshold_mark = false;
    std::uint64_t aqm_threshold = 0;
    std::uint32_t packets = 0;
    std::uint64_t bytes = 0;
  };

  std::uint64_t capacity_bytes_;
  BufferPolicy* pool_ = nullptr;  // non-owning; null = static capacity
  std::function<std::size_t(const Packet&)> classifier_;
  std::vector<ClassState> classes_;
  std::uint32_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_SP_QUEUE_DISC_H_
