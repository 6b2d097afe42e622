#include "sched/fifo_queue_disc.h"

#include <utility>

namespace ecnsharp {

std::uint32_t FifoQueueDisc::PurgeAll(Time now) {
  // Pop-then-notify: accounting is fully updated before each tracer
  // callback, so a tracer observing Snapshot() mid-purge sees consistent
  // state (packets, bytes, and pool reservation all exclude the purged
  // packet).
  std::uint32_t n = 0;
  while (!queue_.empty()) {
    std::unique_ptr<Packet> pkt = queue_.pop_front();
    --packets_;
    bytes_ -= pkt->size_bytes;
    if (pool_ != nullptr) pool_->Release(pool_queue_, pkt->size_bytes);
    ++stats_.purged;
    ++n;
    if (tracer_ != nullptr) tracer_->OnPurge(*pkt, now, Snapshot());
  }
  return n;
}

}  // namespace ecnsharp
