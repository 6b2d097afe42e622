// Deficit Weighted Round Robin scheduler (Shreedhar & Varghese) with one
// child FIFO queue per service class and a per-class AQM policy instance.
//
// This is the configuration of the paper's Fig. 13 experiment: 3 queues with
// weights 2:1:1, each running its own sojourn-time AQM (per-queue AQM is
// exactly how TCN and ECN# compose with schedulers — a sojourn threshold
// stays meaningful even when the class's drain rate varies with the set of
// active classes).
#ifndef ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_
#define ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "buffer/buffer_policy.h"
#include "net/packet.h"
#include "net/packet_ring.h"
#include "net/queue_disc.h"

namespace ecnsharp {

class DwrrQueueDisc final : public QueueDisc {
 public:
  struct ClassConfig {
    std::uint32_t weight = 1;
    std::unique_ptr<AqmPolicy> aqm;  // may be null (drop-tail class)
  };

  // `classifier` maps a packet to a class index; the default uses
  // Packet::traffic_class (clamped to the number of classes).
  // `quantum_bytes` is the base quantum for weight 1; one MTU by default.
  DwrrQueueDisc(std::uint64_t capacity_bytes,
                std::vector<ClassConfig> classes,
                std::function<std::size_t(const Packet&)> classifier = nullptr,
                std::uint32_t quantum_bytes = kFullPacketBytes);

  // Draws buffer from a shared policy instead of a static capacity: each
  // class registers one policy queue with priority = its class index, so a
  // per-priority DT alpha maps directly onto service classes. The policy
  // must outlive the disc.
  DwrrQueueDisc(BufferPolicy& policy, std::vector<ClassConfig> classes,
                std::function<std::size_t(const Packet&)> classifier = nullptr,
                std::uint32_t quantum_bytes = kFullPacketBytes);

  bool Enqueue(std::unique_ptr<Packet> pkt, Time now) override;
  std::unique_ptr<Packet> Dequeue(Time now) override;
  std::uint32_t PurgeAll(Time now) override;
  QueueSnapshot Snapshot() const override {
    return QueueSnapshot{total_packets_, total_bytes_};
  }

  std::size_t class_count() const { return classes_.size(); }
  QueueSnapshot ClassSnapshot(std::size_t cls) const;
  AqmPolicy* class_aqm(std::size_t cls) { return classes_[cls].aqm.get(); }

  // Enables MQ-ECN (Bai et al., NSDI 2016) queue-length marking: each class
  // gets a *dynamic* threshold proportional to its current service share,
  //   K_i(t) = w_i / (sum of weights of backlogged classes) * K_total,
  // and an arriving packet is CE-marked when its class exceeds K_i. This is
  // the queue-length alternative to per-class sojourn AQMs; the fig13
  // ablation compares the two. Not meaningful combined with per-class AQM.
  void EnableMqEcn(std::uint64_t total_threshold_bytes) {
    mq_ecn_total_bytes_ = total_threshold_bytes;
  }
  // The dynamic threshold MQ-ECN currently applies to `cls`.
  std::uint64_t MqEcnThresholdBytes(std::size_t cls) const;

 private:
  struct ClassState {
    std::uint32_t weight = 1;
    std::unique_ptr<AqmPolicy> aqm;
    PacketRing queue;
    std::uint64_t deficit = 0;
    bool in_active_list = false;
    std::size_t pool_queue = 0;  // this class's queue id with the policy
    // Cached AqmFastPath verdict for this class's policy.
    bool aqm_threshold_mark = false;
    std::uint64_t aqm_threshold = 0;
    std::uint32_t packets = 0;
    std::uint64_t bytes = 0;
  };

  std::unique_ptr<Packet> PopFrom(ClassState& cls, Time now);

  std::uint64_t capacity_bytes_;
  std::uint32_t quantum_bytes_;
  BufferPolicy* pool_ = nullptr;  // non-owning; null = static capacity
  std::function<std::size_t(const Packet&)> classifier_;
  std::vector<ClassState> classes_;
  std::deque<std::size_t> active_;   // round-robin order of backlogged classes
  // Class currently being served (already granted its quantum); -1 if none.
  std::ptrdiff_t current_ = -1;
  std::uint32_t total_packets_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t mq_ecn_total_bytes_ = 0;  // 0 = MQ-ECN disabled
};

}  // namespace ecnsharp

#endif  // ECNSHARP_SCHED_DWRR_QUEUE_DISC_H_
