// Per-layer probes for the traced benchmark run.
//
// The benchmark records spans from its own code, at the boundaries where it
// calls into a layer: the coarse phases (topo.build, harness.bind, sim.run,
// stats.result) are kept one by one, and the per-packet calls into the
// queue disc (sched) and the AQM policy (core) are aggregated per name. The
// per-packet spans come from two decorators the benchmark hands to the
// topology through its public disc factory:
//
//   TimedDisc wraps the QueueDisc -> sched.enqueue / sched.dequeue
//   TimedAqm  wraps the AqmPolicy -> core.allow_enqueue / core.on_dequeue
//
// so each core span nests inside the sched span of the same packet. Every
// decorator owns its own PortProbe, and the totals are merged after the
// run. CountingTransportTracer does the same for one host stack.
#ifndef ECNSHARP_PERFBENCH_PROBES_H_
#define ECNSHARP_PERFBENCH_PROBES_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/queue_disc.h"
#include "trace/transport_tracer.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Count, total and a log-linear histogram (four buckets per power of two,
// so a quantile is resolved to within 25%) of one span name.
class SpanAgg {
 public:
  void Add(std::int64_t ns) {
    const std::uint64_t v = ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    ++count_;
    total_ns_ += v;
    ++hist_[Bucket(v)];
  }
  void Merge(const SpanAgg& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t total_ns() const { return total_ns_; }
  // Midpoint of the bucket holding the q-quantile (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kMaxExponent = 40;  // ~18 minutes; larger spans clamp
  static constexpr std::size_t kBuckets = 8 + (kMaxExponent - 2) * 4;
  static std::size_t Bucket(std::uint64_t v);

  std::uint64_t count_ = 0;
  std::uint64_t total_ns_ = 0;
  std::array<std::uint32_t, kBuckets> hist_{};
};

// Everything the decorators of one egress port measure.
struct PortProbe {
  SpanAgg sched_enqueue;
  SpanAgg sched_dequeue;
  SpanAgg core_allow_enqueue;
  SpanAgg core_on_dequeue;
  std::uint64_t sched_drops = 0;  // Enqueue returned false
  std::uint64_t core_marks = 0;   // packets the policy CE-marked

  void Merge(const PortProbe& other);
};

// AqmPolicy decorator: times both hooks and counts CE marks. Forwards every
// virtual of the interface, including the chip hot-state binding, so the
// wrapped policy behaves exactly as it would unwrapped. A policy that
// advertises AqmFastPath::kThresholdMark is inlined by the FIFO disc and
// never reaches these hooks; ECN# takes the generic path.
class TimedAqm final : public ecnsharp::AqmPolicy {
 public:
  TimedAqm(std::unique_ptr<ecnsharp::AqmPolicy> inner, PortProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool AllowEnqueue(ecnsharp::Packet& pkt,
                    const ecnsharp::QueueSnapshot& snapshot,
                    ecnsharp::Time now) override;
  void OnDequeue(ecnsharp::Packet& pkt, const ecnsharp::QueueSnapshot& snapshot,
                 ecnsharp::Time now, ecnsharp::Time sojourn) override;
  std::string name() const override { return inner_->name(); }
  ecnsharp::AqmFastPath fast_path() const override {
    return inner_->fast_path();
  }
  std::uint64_t fast_path_threshold() const override {
    return inner_->fast_path_threshold();
  }
  void BindChipHotState(ecnsharp::ChipHotBlock& block) override {
    inner_->BindChipHotState(block);
  }

 private:
  std::unique_ptr<ecnsharp::AqmPolicy> inner_;
  PortProbe& probe_;
};

// QueueDisc decorator: times Enqueue and Dequeue and counts drops.
// QueueDisc::stats() is not virtual, so the inner disc's counters are
// copied into this disc's after every call that can change them; the
// topology's drop/mark totals therefore read the same numbers as without
// the decorator. SetTracer is not forwarded: the benchmark runs no packet
// tracer.
class TimedDisc final : public ecnsharp::QueueDisc {
 public:
  TimedDisc(std::unique_ptr<ecnsharp::QueueDisc> inner, PortProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool Enqueue(std::unique_ptr<ecnsharp::Packet> pkt,
               ecnsharp::Time now) override;
  std::unique_ptr<ecnsharp::Packet> Dequeue(ecnsharp::Time now) override;
  ecnsharp::QueueSnapshot Snapshot() const override {
    return inner_->Snapshot();
  }
  std::uint32_t PurgeAll(ecnsharp::Time now) override;
  void BindChipHotState(ecnsharp::ChipHotBlock& block) override {
    inner_->BindChipHotState(block);
  }

 private:
  std::unique_ptr<ecnsharp::QueueDisc> inner_;
  PortProbe& probe_;
};

// Counts transport events of one host stack.
class CountingTransportTracer final : public ecnsharp::TransportTracer {
 public:
  void OnRttSample(const ecnsharp::FlowKey&, ecnsharp::Time,
                   ecnsharp::Time) override {
    ++rtt_samples;
  }
  void OnRetransmit(const ecnsharp::FlowKey&, ecnsharp::Time,
                    std::uint64_t) override {
    ++retransmits;
  }
  void OnRto(const ecnsharp::FlowKey&, ecnsharp::Time,
             std::uint32_t) override {
    ++rtos;
  }

  std::uint64_t rtt_samples = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rtos = 0;
};

// One coarse span, kept individually. Times are steady-clock nanoseconds.
struct Span {
  std::string name;
  std::string parent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// The probes of one traced run: the per-port and per-stack probes (stable
// addresses, owned here) and the coarse spans.
class LayerProbes {
 public:
  PortProbe& AddPort() { return ports_.emplace_back(); }
  CountingTransportTracer& AddStack() { return stacks_.emplace_back(); }
  void Record(std::string name, std::string parent, std::int64_t start_ns,
              std::int64_t end_ns) {
    spans_.push_back(Span{std::move(name), std::move(parent), start_ns,
                          end_ns});
  }

  // Sum over every port / stack probe.
  PortProbe MergedPorts() const;
  CountingTransportTracer MergedStacks() const;
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::deque<PortProbe> ports_;
  std::deque<CountingTransportTracer> stacks_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // ECNSHARP_PERFBENCH_PROBES_H_
