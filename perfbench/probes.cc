#include "probes.h"

#include <bit>
#include <utility>

namespace perfbench {

using ecnsharp::Packet;
using ecnsharp::QueueSnapshot;
using ecnsharp::Time;

std::size_t SpanAgg::Bucket(std::uint64_t v) {
  if (v < 8) return static_cast<std::size_t>(v);
  int e = std::bit_width(v) - 1;  // >= 3
  if (e > kMaxExponent) return kBuckets - 1;
  const auto sub = static_cast<std::size_t>((v >> (e - 2)) & 3);
  return 8 + static_cast<std::size_t>(e - 3) * 4 + sub;
}

void SpanAgg::Merge(const SpanAgg& other) {
  count_ += other.count_;
  total_ns_ += other.total_ns_;
  for (std::size_t i = 0; i < kBuckets; ++i) hist_[i] += other.hist_[i];
}

double SpanAgg::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count).
  auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_));
  if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += hist_[i];
    if (seen < rank) continue;
    if (i < 8) return static_cast<double>(i) + 0.5;
    const std::size_t e = (i - 8) / 4 + 3;
    const std::size_t sub = (i - 8) % 4;
    const double width = static_cast<double>(std::uint64_t{1} << (e - 2));
    return static_cast<double>(4 + sub) * width + width / 2.0;
  }
  return 0.0;
}

void PortProbe::Merge(const PortProbe& other) {
  sched_enqueue.Merge(other.sched_enqueue);
  sched_dequeue.Merge(other.sched_dequeue);
  core_allow_enqueue.Merge(other.core_allow_enqueue);
  core_on_dequeue.Merge(other.core_on_dequeue);
  sched_drops += other.sched_drops;
  core_marks += other.core_marks;
}

bool TimedAqm::AllowEnqueue(Packet& pkt, const QueueSnapshot& snapshot,
                            Time now) {
  const bool was_marked = pkt.IsCeMarked();
  const std::int64_t start = NowNs();
  const bool allowed = inner_->AllowEnqueue(pkt, snapshot, now);
  probe_.core_allow_enqueue.Add(NowNs() - start);
  if (!was_marked && pkt.IsCeMarked()) ++probe_.core_marks;
  return allowed;
}

void TimedAqm::OnDequeue(Packet& pkt, const QueueSnapshot& snapshot, Time now,
                         Time sojourn) {
  const bool was_marked = pkt.IsCeMarked();
  const std::int64_t start = NowNs();
  inner_->OnDequeue(pkt, snapshot, now, sojourn);
  probe_.core_on_dequeue.Add(NowNs() - start);
  if (!was_marked && pkt.IsCeMarked()) ++probe_.core_marks;
}

bool TimedDisc::Enqueue(std::unique_ptr<Packet> pkt, Time now) {
  const std::int64_t start = NowNs();
  const bool accepted = inner_->Enqueue(std::move(pkt), now);
  probe_.sched_enqueue.Add(NowNs() - start);
  if (!accepted) ++probe_.sched_drops;
  stats_ = inner_->stats();
  return accepted;
}

std::unique_ptr<Packet> TimedDisc::Dequeue(Time now) {
  const std::int64_t start = NowNs();
  std::unique_ptr<Packet> pkt = inner_->Dequeue(now);
  probe_.sched_dequeue.Add(NowNs() - start);
  stats_ = inner_->stats();
  return pkt;
}

std::uint32_t TimedDisc::PurgeAll(Time now) {
  const std::uint32_t purged = inner_->PurgeAll(now);
  stats_ = inner_->stats();
  return purged;
}

PortProbe LayerProbes::MergedPorts() const {
  PortProbe total;
  for (const PortProbe& port : ports_) total.Merge(port);
  return total;
}

CountingTransportTracer LayerProbes::MergedStacks() const {
  CountingTransportTracer total;
  for (const CountingTransportTracer& stack : stacks_) {
    total.rtt_samples += stack.rtt_samples;
    total.retransmits += stack.retransmits;
    total.rtos += stack.rtos;
  }
  return total;
}

}  // namespace perfbench
