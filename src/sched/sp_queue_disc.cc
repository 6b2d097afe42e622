#include "sched/sp_queue_disc.h"

#include <cassert>
#include <utility>

namespace ecnsharp {

SpQueueDisc::SpQueueDisc(std::uint64_t capacity_bytes,
                         std::vector<ClassConfig> classes,
                         std::function<std::size_t(const Packet&)> classifier)
    : capacity_bytes_(capacity_bytes), classifier_(std::move(classifier)) {
  assert(!classes.empty());
  classes_.reserve(classes.size());
  for (auto& c : classes) {
    ClassState state;
    state.aqm = std::move(c.aqm);
    state.aqm_threshold_mark =
        state.aqm != nullptr &&
        state.aqm->fast_path() == AqmFastPath::kThresholdMark;
    state.aqm_threshold =
        state.aqm_threshold_mark ? state.aqm->fast_path_threshold() : 0;
    classes_.push_back(std::move(state));
  }
  if (!classifier_) {
    const std::size_t n = classes_.size();
    classifier_ = [n](const Packet& p) {
      return std::min<std::size_t>(p.traffic_class, n - 1);
    };
  }
}

SpQueueDisc::SpQueueDisc(BufferPolicy& policy, std::vector<ClassConfig> classes,
                         std::function<std::size_t(const Packet&)> classifier)
    : SpQueueDisc(policy.total_bytes(), std::move(classes),
                  std::move(classifier)) {
  pool_ = &policy;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    classes_[i].pool_queue = policy.RegisterQueue(static_cast<std::uint8_t>(i));
  }
}

bool SpQueueDisc::Enqueue(std::unique_ptr<Packet> pkt, Time now) {
  ClassState& cls = classes_[classifier_(*pkt)];
  if (pool_ != nullptr) {
    if (!pool_->TryReserve(cls.pool_queue, pkt->size_bytes)) {
      ++stats_.dropped_overflow;
      if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kOverflow);
      return false;
    }
  } else if (total_bytes_ + pkt->size_bytes > capacity_bytes_) {
    ++stats_.dropped_overflow;
    if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kOverflow);
    return false;
  }
  if (cls.aqm_threshold_mark) {
    // Inlined kThresholdMark contract (see FifoQueueDisc::Enqueue).
    if (cls.bytes + pkt->size_bytes > cls.aqm_threshold &&
        !pkt->IsCeMarked()) {
      pkt->MarkCe();
      if (pkt->IsCeMarked()) {
        ++stats_.ce_marked;
        if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
      }
    }
  } else if (cls.aqm != nullptr) {
    const bool was_ce = pkt->IsCeMarked();
    const QueueSnapshot snap{cls.packets, cls.bytes};
    if (!cls.aqm->AllowEnqueue(*pkt, snap, now)) {
      ++stats_.dropped_aqm;
      if (pool_ != nullptr) pool_->Release(cls.pool_queue, pkt->size_bytes);
      if (tracer_ != nullptr) tracer_->OnDrop(*pkt, now, DropReason::kAqm);
      return false;
    }
    if (!was_ce && pkt->IsCeMarked()) {
      ++stats_.ce_marked;
      if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
    }
  }
  pkt->enqueue_time = now;
  ++cls.packets;
  cls.bytes += pkt->size_bytes;
  total_bytes_ += pkt->size_bytes;
  ++total_packets_;
  cls.queue.push_back(std::move(pkt));
  ++stats_.enqueued;
  if (tracer_ != nullptr) {
    tracer_->OnEnqueue(*cls.queue.back(), now, Snapshot());
  }
  return true;
}

std::unique_ptr<Packet> SpQueueDisc::Dequeue(Time now) {
  for (ClassState& cls : classes_) {
    if (cls.queue.empty()) continue;
    std::unique_ptr<Packet> pkt = cls.queue.pop_front();
    --cls.packets;
    cls.bytes -= pkt->size_bytes;
    total_bytes_ -= pkt->size_bytes;
    --total_packets_;
    if (pool_ != nullptr) pool_->Release(cls.pool_queue, pkt->size_bytes);
    ++stats_.dequeued;
    if (tracer_ != nullptr) {
      tracer_->OnDequeue(*pkt, now, Snapshot(), now - pkt->enqueue_time);
    }
    // kThresholdMark policies have no dequeue hook by contract.
    if (cls.aqm != nullptr && !cls.aqm_threshold_mark) {
      const bool was_ce = pkt->IsCeMarked();
      const QueueSnapshot snap{cls.packets, cls.bytes};
      cls.aqm->OnDequeue(*pkt, snap, now, now - pkt->enqueue_time);
      if (!was_ce && pkt->IsCeMarked()) {
        ++stats_.ce_marked;
        if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
      }
    }
    return pkt;
  }
  return nullptr;
}

std::uint32_t SpQueueDisc::PurgeAll(Time now) {
  // Pop-then-notify: accounting is updated before each tracer callback so
  // Snapshot() stays consistent mid-purge.
  const std::uint32_t n = total_packets_;
  for (ClassState& cls : classes_) {
    while (!cls.queue.empty()) {
      std::unique_ptr<Packet> pkt = cls.queue.pop_front();
      --cls.packets;
      cls.bytes -= pkt->size_bytes;
      total_bytes_ -= pkt->size_bytes;
      --total_packets_;
      if (pool_ != nullptr) pool_->Release(cls.pool_queue, pkt->size_bytes);
      ++stats_.purged;
      if (tracer_ != nullptr) tracer_->OnPurge(*pkt, now, Snapshot());
    }
  }
  return n;
}

QueueSnapshot SpQueueDisc::ClassSnapshot(std::size_t cls) const {
  const ClassState& c = classes_.at(cls);
  return QueueSnapshot{c.packets, c.bytes};
}

}  // namespace ecnsharp
