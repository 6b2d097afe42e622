// ECN# ("ECN-sharp") — the paper's contribution (§3).
//
// ECN# is an AQM that marks a departing packet when EITHER of two conditions
// holds:
//
//  1. Instantaneous congestion: the packet's sojourn time reaches
//     `ins_target` (inclusive — both comparisons against a target use >=,
//     like Algorithm 1), a threshold derived from a HIGH-percentile base RTT via
//     Equation (2) (T = lambda * RTT). This preserves DCTCP-RED/TCN's
//     throughput and burst tolerance.
//
//  2. Persistent congestion (Algorithm 1): the sojourn time has stayed above
//     `pst_target` for at least one `pst_interval`. ECN# then marks ONE
//     packet, schedules the next mark one interval later, and shortens the
//     interval as pst_interval/sqrt(marking_count) while the standing queue
//     persists. This conservatively drains the queues that flows with small
//     base RTTs build under a tail-RTT-sized instantaneous threshold —
//     queues that add latency but contribute nothing to throughput.
//
// The sojourn-time signal (rather than queue length) keeps ECN# correct
// under any packet scheduler (§3.2); attach one EcnSharpAqm instance per
// scheduler class.
#ifndef ECNSHARP_CORE_ECN_SHARP_H_
#define ECNSHARP_CORE_ECN_SHARP_H_

#include <cstdint>
#include <string>

#include "core/persistent_marker.h"
#include "net/queue_disc.h"
#include "sim/time.h"

namespace ecnsharp {

struct EcnSharpConfig {
  // Instantaneous sojourn marking threshold (Equation (2) with a high-
  // percentile RTT, e.g. the 90th).
  Time ins_target = Time::FromMicroseconds(200);
  // Persistent-queueing target the sojourn time is compared against.
  Time pst_target = Time::FromMicroseconds(85);
  // Observation window before persistent queueing is confirmed, and the
  // base cadence of conservative marking. Recommended ~ one worst-case RTT.
  Time pst_interval = Time::FromMicroseconds(200);
};

// Rule-of-thumb parameter derivation (§3.4): ins_target from the high-
// percentile RTT, pst_interval ~ the high-percentile RTT, pst_target >=
// lambda * average RTT. `lambda` is the transport's ECN gain (1.0 for
// classic ECN TCP, ~0.17 for DCTCP in theory).
EcnSharpConfig RuleOfThumbConfig(Time rtt_high_percentile, Time rtt_average,
                                 double lambda);

class EcnSharpAqm : public AqmPolicy {
 public:
  explicit EcnSharpAqm(const EcnSharpConfig& config)
      : config_(config), marker_(config.pst_interval) {}

  void OnDequeue(Packet& pkt, const QueueSnapshot& snapshot, Time now,
                 Time sojourn) override;

  std::string name() const override { return "ecn-sharp"; }
  const EcnSharpConfig& config() const { return config_; }

  // Swaps in freshly derived thresholds mid-run — the re-estimation path for
  // a live RTT distribution shift (dynamics scripts call this through
  // ScenarioEngine). The persistent state machine restarts; the cumulative
  // mark counters are preserved.
  void Reconfigure(const EcnSharpConfig& config);

  // Observable state, exposed for tests and for the Tofino-pipeline
  // equivalence checks.
  bool marking_state() const { return marker_.marking_state(); }
  std::uint32_t marking_count() const { return marker_.marking_count(); }
  Time marking_next() const { return marker_.marking_next(); }
  Time first_above_time() const { return marker_.first_above_time(); }
  std::uint64_t instantaneous_marks() const { return instantaneous_marks_; }
  std::uint64_t persistent_marks() const { return persistent_marks_; }

 private:
  EcnSharpConfig config_;
  PersistentMarker marker_;  // Algorithm 1 over the sojourn-time signal
  std::uint64_t instantaneous_marks_ = 0;
  std::uint64_t persistent_marks_ = 0;
};

// ECN# over the queue-length signal (§3.2's other option): instantaneous
// marking against K = lambda * C * RTT bytes at enqueue, and Algorithm 1
// driven by "queue length >= pst_target_bytes". Queue-length mode is only
// correct for single-queue ports (a class's capacity under a scheduler
// varies), which is exactly why the paper's implementation uses sojourn
// time; this variant exists for that comparison.
struct EcnSharpQlenConfig {
  std::uint64_t ins_target_bytes = 250'000;
  std::uint64_t pst_target_bytes = 12'500;
  Time pst_interval = Time::FromMicroseconds(200);
};

class EcnSharpQlenAqm : public AqmPolicy {
 public:
  explicit EcnSharpQlenAqm(const EcnSharpQlenConfig& config)
      : config_(config), marker_(config.pst_interval) {}

  bool AllowEnqueue(Packet& pkt, const QueueSnapshot& snapshot,
                    Time now) override {
    const std::uint64_t bytes = snapshot.bytes + pkt.size_bytes;
    const bool persistent =
        marker_.ShouldMark(bytes >= config_.pst_target_bytes, now);
    const bool instantaneous = bytes >= config_.ins_target_bytes;
    if (instantaneous || persistent) pkt.MarkCe();
    return true;
  }

  std::string name() const override { return "ecn-sharp-qlen"; }
  const PersistentMarker& marker() const { return marker_; }

 private:
  EcnSharpQlenConfig config_;
  PersistentMarker marker_;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_CORE_ECN_SHARP_H_
