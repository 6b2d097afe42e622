// Scripted sender-side tests: drive a TcpSender with hand-crafted ACK
// streams and verify congestion-control state machines directly (window
// growth, fast retransmit, RTO backoff, DCTCP alpha arithmetic, classic-ECN
// reaction, CWR emission).
#include "transport/tcp_sender.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "net/host.h"
#include "sched/fifo_queue_disc.h"
#include "sim/simulator.h"

namespace ecnsharp {
namespace {

// Captures every segment the sender's host transmits.
class SegmentCapture : public PacketSink {
 public:
  void HandlePacket(std::unique_ptr<Packet> pkt) override {
    segments.push_back(std::move(pkt));
  }
  std::vector<std::unique_ptr<Packet>> segments;
};

struct SenderHarness {
  Simulator sim;
  SegmentCapture capture;
  Host host{sim, 0};
  std::optional<FlowRecord> completed;
  std::unique_ptr<TcpSender> sender;

  explicit SenderHarness(const TcpConfig& config, std::uint64_t flow_size) {
    auto nic = std::make_unique<EgressPort>(
        sim, DataRate::GigabitsPerSecond(100), Time::Zero(),
        std::make_unique<FifoQueueDisc>(1ull << 26, nullptr));
    nic->ConnectTo(capture);
    host.AttachNic(std::move(nic));
    sender = std::make_unique<TcpSender>(
        host, config, FlowKey{0, 1, 100, 80}, flow_size, 0,
        [this](const FlowRecord& r) { completed = r; });
    sender->Start();
    Flush();
  }

  // Runs the NIC dry without firing the >=5 ms RTO timer.
  void Flush() { sim.RunFor(Time::Microseconds(50)); }

  void Ack(std::uint64_t ack_no, bool ece = false) {
    Packet ack;
    ack.flow = FlowKey{1, 0, 80, 100};
    ack.type = PacketType::kAck;
    ack.ack = ack_no;
    ack.ece = ece;
    sender->OnAck(ack);
    Flush();
  }

  std::size_t sent() const { return capture.segments.size(); }
  const Packet& segment(std::size_t i) const { return *capture.segments[i]; }
  const Packet& last() const { return *capture.segments.back(); }
};

TcpConfig NoEcn() {
  TcpConfig config;
  config.ecn_mode = EcnMode::kNone;
  return config;
}

TEST(TcpSenderTest, InitialWindowBurst) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 10;
  SenderHarness h(config, 100 * 1460);
  EXPECT_EQ(h.sent(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(h.segment(i).seq, i * 1460);
    EXPECT_EQ(h.segment(i).payload_bytes, 1460u);
    EXPECT_EQ(h.segment(i).size_bytes, 1500u);
  }
}

TEST(TcpSenderTest, ShortFlowSendsPartialSegmentWithPsh) {
  SenderHarness h(NoEcn(), 2000);
  ASSERT_EQ(h.sent(), 2u);
  EXPECT_EQ(h.segment(0).payload_bytes, 1460u);
  EXPECT_FALSE(h.segment(0).psh);
  EXPECT_EQ(h.segment(1).payload_bytes, 540u);
  EXPECT_TRUE(h.segment(1).psh);
}

TEST(TcpSenderTest, SlowStartDoublesPerRtt) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 2;
  SenderHarness h(config, 1000 * 1460);
  EXPECT_EQ(h.sent(), 2u);
  // Each ACK of new data in slow start grows cwnd by the bytes acked:
  // acking both segments doubles the window.
  h.Ack(2 * 1460);
  EXPECT_EQ(h.sent(), 2u + 4u);
  h.Ack(6 * 1460);
  EXPECT_EQ(h.sent(), 6u + 8u);
  EXPECT_NEAR(h.sender->cwnd_bytes(), 8 * 1460.0, 1.0);
}

TEST(TcpSenderTest, CompletionFiresOnceFullyAcked) {
  SenderHarness h(NoEcn(), 3 * 1460);
  h.Ack(2 * 1460);
  EXPECT_FALSE(h.completed.has_value());
  h.Ack(3 * 1460);
  ASSERT_TRUE(h.completed.has_value());
  EXPECT_TRUE(h.sender->complete());
  EXPECT_EQ(h.completed->size_bytes, 3u * 1460);
  EXPECT_EQ(h.completed->timeouts, 0u);
}

TEST(TcpSenderTest, ThreeDupAcksTriggerFastRetransmit) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 8;
  SenderHarness h(config, 100 * 1460);
  ASSERT_EQ(h.sent(), 8u);
  // Segment 0 lost: receiver dupacks at 0.
  h.Ack(0);
  h.Ack(0);
  EXPECT_EQ(h.sender->record().fast_retransmits, 0u);
  h.Ack(0);
  EXPECT_EQ(h.sender->record().fast_retransmits, 1u);
  // The retransmission is the missing head segment.
  EXPECT_EQ(h.last().seq, 0u);
}

TEST(TcpSenderTest, RecoveryExitsOnFullAck) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 8;
  SenderHarness h(config, 100 * 1460);
  const double before = h.sender->cwnd_bytes();
  h.Ack(0);
  h.Ack(0);
  h.Ack(0);
  // Full cumulative ack of everything sent so far ends recovery with
  // cwnd = ssthresh = half the pre-loss window.
  h.Ack(8 * 1460);
  EXPECT_NEAR(h.sender->cwnd_bytes(), before / 2.0, 1.0);
}

TEST(TcpSenderTest, NewRenoPartialAckRetransmitsNextHole) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 8;
  SenderHarness h(config, 100 * 1460);
  h.Ack(0);
  h.Ack(0);
  h.Ack(0);  // fast retransmit of segment 0
  const std::size_t sent_before = h.sent();
  // Partial ack: segment 0 repaired but segment 1 also lost.
  h.Ack(1460);
  EXPECT_GT(h.sent(), sent_before);
  EXPECT_EQ(h.last().seq, 1460u);
}

TEST(TcpSenderTest, RtoRetransmitsHeadAndCollapsesWindow) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 8;
  config.min_rto = Time::Milliseconds(5);
  SenderHarness h(config, 100 * 1460);
  ASSERT_EQ(h.sent(), 8u);
  h.sim.RunFor(Time::Milliseconds(10));  // no ACKs: RTO fires
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  EXPECT_EQ(h.last().seq, 0u);
  EXPECT_NEAR(h.sender->cwnd_bytes(), 1460.0, 1.0);
}

TEST(TcpSenderTest, RtoBacksOffExponentially) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 2;
  config.min_rto = Time::Milliseconds(5);
  SenderHarness h(config, 100 * 1460);
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  // Second timeout waits ~10 ms, so nothing at +6 ms...
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  // ...but it arrives by +12 ms.
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 2u);
}

TEST(TcpSenderTest, DctcpAlphaFollowsMarkedFraction) {
  TcpConfig config;  // DCTCP
  config.init_cwnd_segments = 4;
  config.dctcp_init_alpha = 1.0;
  SenderHarness h(config, 10'000 * 1460);
  // Whole windows with no ECE: alpha decays by (1-g) per window.
  double expected = 1.0;
  std::uint64_t acked = 0;
  for (int window = 0; window < 5; ++window) {
    // Ack everything outstanding in one cumulative ACK (window boundary).
    const std::uint64_t outstanding = h.sent() * 1460;
    acked = outstanding;
    h.Ack(acked, /*ece=*/false);
    expected *= (1.0 - config.dctcp_g);
    EXPECT_NEAR(h.sender->dctcp_alpha(), expected, 1e-9) << window;
  }
  // A fully marked window pulls alpha back up: alpha = (1-g)a + g*1.
  h.Ack(h.sent() * 1460, /*ece=*/true);
  expected = (1.0 - config.dctcp_g) * expected + config.dctcp_g;
  EXPECT_NEAR(h.sender->dctcp_alpha(), expected, 1e-9);
}

TEST(TcpSenderTest, DctcpCutsProportionallyToAlpha) {
  TcpConfig config;
  config.init_cwnd_segments = 8;
  config.dctcp_init_alpha = 0.5;
  SenderHarness h(config, 10'000 * 1460);
  const double before = h.sender->cwnd_bytes();
  // ECE-marked ack covering the first window triggers the per-window cut
  // cwnd *= (1 - alpha/2) with the refreshed alpha.
  h.Ack(8 * 1460, /*ece=*/true);
  const double alpha = h.sender->dctcp_alpha();
  // cwnd also grew by the slow-start byte counting before/after the cut;
  // accept the cut factor within that slack.
  EXPECT_LT(h.sender->cwnd_bytes(), before);
  EXPECT_GT(h.sender->cwnd_bytes(), before * (1.0 - alpha / 2.0) * 0.9);
}

TEST(TcpSenderTest, ClassicEcnHalvesOncePerWindow) {
  TcpConfig config;
  config.ecn_mode = EcnMode::kClassic;
  config.init_cwnd_segments = 8;
  SenderHarness h(config, 10'000 * 1460);
  const double before = h.sender->cwnd_bytes();
  h.Ack(1460, /*ece=*/true);
  const double after_first = h.sender->cwnd_bytes();
  // Halved, plus at most one congestion-avoidance increment of growth.
  EXPECT_NEAR(after_first, before / 2.0, 500.0);
  // A second ECE within the same window must NOT cut again.
  h.Ack(2 * 1460, /*ece=*/true);
  EXPECT_GE(h.sender->cwnd_bytes(), after_first);
}

TEST(TcpSenderTest, CwrSetOnFirstSegmentAfterEcnCut) {
  TcpConfig config;
  config.ecn_mode = EcnMode::kClassic;
  config.init_cwnd_segments = 4;
  SenderHarness h(config, 10'000 * 1460);
  for (std::size_t i = 0; i < h.sent(); ++i) {
    EXPECT_FALSE(h.segment(i).cwr);
  }
  const std::size_t before = h.sent();
  h.Ack(4 * 1460, /*ece=*/true);
  ASSERT_GT(h.sent(), before);
  EXPECT_TRUE(h.segment(before).cwr);          // first post-cut segment
  if (h.sent() > before + 1) {
    EXPECT_FALSE(h.segment(before + 1).cwr);   // only one
  }
}

TEST(TcpSenderTest, DataPacketsAreEctExactlyWhenEcnEnabled) {
  SenderHarness with_ecn(TcpConfig{}, 4 * 1460);
  EXPECT_EQ(with_ecn.segment(0).ecn, EcnCodepoint::kEct0);
  SenderHarness without(NoEcn(), 4 * 1460);
  EXPECT_EQ(without.segment(0).ecn, EcnCodepoint::kNotEct);
}

TEST(TcpSenderTest, StaleAckIsIgnored) {
  SenderHarness h(NoEcn(), 100 * 1460);
  h.Ack(5 * 1460);
  const double cwnd = h.sender->cwnd_bytes();
  const std::size_t sent = h.sent();
  h.Ack(2 * 1460);  // below snd_una: pure stale ack, no dupack counting
  EXPECT_DOUBLE_EQ(h.sender->cwnd_bytes(), cwnd);
  EXPECT_EQ(h.sent(), sent);
  EXPECT_EQ(h.sender->record().fast_retransmits, 0u);
}

// --- Karn's algorithm: RTO backoff vs the RTT probe ------------------------
//
// Three regressions for the interaction between exponential RTO backoff and
// the single un-retransmitted RTT probe, shaped by ms-RTT inter-DC paths
// where min_rto (5 ms) sits BELOW the path RTT:
//
//  * before the first RTT sample, ACK progress must NOT clear the backoff —
//    the backed-off timer is the only thing that lets the first probe ACK
//    arrive before the next spurious RTO;
//  * once a sample exists, ACK progress MUST clear it — waiting for a fresh
//    sample instead ratchets the backoff across independent loss events;
//  * a go-back-N resend re-covers old sequence ranges, and an ACK of the
//    original transmission must not satisfy a probe armed on the resend
//    (the near-zero sample would pin the RTO at min_rto forever).

TEST(TcpSenderTest, RtoBackoffHeldUntilFirstRttSample) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 2;
  config.min_rto = Time::Milliseconds(5);
  SenderHarness h(config, 1000 * 1460);
  // No ACKs for 6 ms: the un-sampled 5 ms timer fires spuriously (a WAN
  // path's first ACK is still in flight).
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  // The original transmissions' ACK lands. It is new-data progress, but no
  // RTT sample was taken (the resend cancelled the probe and re-covered the
  // range) — the backoff must survive, keeping the next RTO at ~10 ms.
  h.Ack(2 * 1460);
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 1u);  // 5 ms timer would have fired
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 2u);  // the 10 ms one does
}

TEST(TcpSenderTest, RtoBackoffClearsOnAckProgressOnceRttValid) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 2;
  config.min_rto = Time::Milliseconds(5);
  SenderHarness h(config, 1000 * 1460);
  // Prompt ACK of the initial window: a valid (tiny) RTT sample.
  h.Ack(2 * 1460);
  // Two back-to-back timeouts: backoff reaches 2 (next RTO 20 ms).
  h.sim.RunFor(Time::Milliseconds(6));
  h.sim.RunFor(Time::Milliseconds(12));
  EXPECT_EQ(h.sender->record().timeouts, 2u);
  // ACK progress with a valid estimate ends the backed-off regime: the next
  // RTO is srtt-based (~5 ms floor), not 20 ms. Anything else ratchets the
  // backoff across a loss-heavy elephant's whole lifetime.
  h.Ack(6 * 1460);
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 3u);
}

TEST(TcpSenderTest, GoBackNResendDoesNotArmRttProbe) {
  TcpConfig config = NoEcn();
  config.init_cwnd_segments = 2;
  config.min_rto = Time::Milliseconds(5);
  SenderHarness h(config, 1000 * 1460);
  // Spurious RTO at 5 ms; the go-back-N resend re-covers [0, 1460).
  h.sim.RunFor(Time::Milliseconds(6));
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  // ACK of the ORIGINAL initial window, ~1 ms after the resend. A probe
  // armed on the resend would read this as a ~1 ms RTT and poison srtt;
  // it must instead be ignored (no sample: the range was re-sent).
  h.Ack(2 * 1460);
  // Fresh data went out above (seq past everything ever sent) and armed the
  // real probe; its ACK arrives a WAN-like 8 ms later.
  h.sim.RunFor(Time::Milliseconds(8));
  EXPECT_EQ(h.sender->record().timeouts, 1u);  // backed-off timer: 10 ms
  h.Ack(3 * 1460);
  // srtt is now ~8 ms, so the restarted RTO is srtt + 4*rttvar ~ 24 ms. A
  // poisoned ~1 ms estimate would put it at the 5 ms floor instead.
  h.sim.RunFor(Time::Milliseconds(20));
  EXPECT_EQ(h.sender->record().timeouts, 1u);
  h.sim.RunFor(Time::Milliseconds(8));
  EXPECT_EQ(h.sender->record().timeouts, 2u);
}

}  // namespace
}  // namespace ecnsharp
