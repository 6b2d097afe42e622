#include "sched/dwrr_queue_disc.h"

#include <cassert>
#include <utility>

namespace ecnsharp {

DwrrQueueDisc::DwrrQueueDisc(
    std::uint64_t capacity_bytes, std::vector<ClassConfig> classes,
    std::function<std::size_t(const Packet&)> classifier,
    std::uint32_t quantum_bytes)
    : capacity_bytes_(capacity_bytes),
      quantum_bytes_(quantum_bytes),
      classifier_(std::move(classifier)) {
  assert(!classes.empty());
  classes_.reserve(classes.size());
  for (auto& c : classes) {
    ClassState state;
    state.weight = c.weight;
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

DwrrQueueDisc::DwrrQueueDisc(
    BufferPolicy& policy, std::vector<ClassConfig> classes,
    std::function<std::size_t(const Packet&)> classifier,
    std::uint32_t quantum_bytes)
    : DwrrQueueDisc(policy.total_bytes(), std::move(classes),
                    std::move(classifier), quantum_bytes) {
  pool_ = &policy;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    classes_[i].pool_queue = policy.RegisterQueue(static_cast<std::uint8_t>(i));
  }
}

std::uint64_t DwrrQueueDisc::MqEcnThresholdBytes(std::size_t cls_index) const {
  std::uint64_t active_weight = 0;
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    const bool backlogged =
        !classes_[i].queue.empty() ||
        current_ == static_cast<std::ptrdiff_t>(i) || i == cls_index;
    if (backlogged) active_weight += classes_[i].weight;
  }
  if (active_weight == 0) return mq_ecn_total_bytes_;
  return mq_ecn_total_bytes_ * classes_[cls_index].weight / active_weight;
}

bool DwrrQueueDisc::Enqueue(std::unique_ptr<Packet> pkt, Time now) {
  const std::size_t idx = classifier_(*pkt);
  assert(idx < classes_.size());
  ClassState& cls = classes_[idx];
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
  if (mq_ecn_total_bytes_ != 0) {
    const bool was_ce = pkt->IsCeMarked();
    if (cls.bytes + pkt->size_bytes > MqEcnThresholdBytes(idx)) {
      pkt->MarkCe();
    }
    if (!was_ce && pkt->IsCeMarked()) {
      ++stats_.ce_marked;
      if (tracer_ != nullptr) tracer_->OnMark(*pkt, now);
    }
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
  if (!cls.in_active_list && current_ != static_cast<std::ptrdiff_t>(idx)) {
    cls.in_active_list = true;
    active_.push_back(idx);
  }
  return true;
}

std::unique_ptr<Packet> DwrrQueueDisc::PopFrom(ClassState& cls, Time now) {
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

std::unique_ptr<Packet> DwrrQueueDisc::Dequeue(Time now) {
  if (total_packets_ == 0) return nullptr;
  // At most one full rotation over the active classes is needed to find a
  // class whose deficit covers its head packet.
  for (;;) {
    if (current_ < 0) {
      if (active_.empty()) return nullptr;  // defensive; cannot happen
      current_ = static_cast<std::ptrdiff_t>(active_.front());
      active_.pop_front();
      ClassState& cls = classes_[static_cast<std::size_t>(current_)];
      cls.in_active_list = false;
      cls.deficit +=
          static_cast<std::uint64_t>(cls.weight) * quantum_bytes_;
    }
    ClassState& cls = classes_[static_cast<std::size_t>(current_)];
    if (cls.queue.empty()) {
      // Served dry during its turn: reset the deficit so an idle class does
      // not accumulate credit (work-conserving DWRR).
      cls.deficit = 0;
      current_ = -1;
      continue;
    }
    if (cls.queue.front()->size_bytes <= cls.deficit) {
      cls.deficit -= cls.queue.front()->size_bytes;
      std::unique_ptr<Packet> pkt = PopFrom(cls, now);
      if (cls.queue.empty()) {
        cls.deficit = 0;
        current_ = -1;
      }
      return pkt;
    }
    // Deficit exhausted: move the class to the back of the round.
    cls.in_active_list = true;
    active_.push_back(static_cast<std::size_t>(current_));
    current_ = -1;
  }
}

std::uint32_t DwrrQueueDisc::PurgeAll(Time now) {
  // Pop-then-notify: per-class and aggregate accounting are updated before
  // each tracer callback so Snapshot() stays consistent mid-purge.
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
    cls.deficit = 0;
    cls.in_active_list = false;
  }
  active_.clear();
  current_ = -1;
  return n;
}

QueueSnapshot DwrrQueueDisc::ClassSnapshot(std::size_t cls) const {
  const ClassState& c = classes_.at(cls);
  return QueueSnapshot{c.packets, c.bytes};
}

}  // namespace ecnsharp
