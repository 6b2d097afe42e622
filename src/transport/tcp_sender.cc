#include "transport/tcp_sender.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/packet_pool.h"

namespace ecnsharp {

TcpSender::TcpSender(Host& host, const TcpConfig& config, FlowKey flow,
                     std::uint64_t flow_size, std::uint8_t traffic_class,
                     CompletionCallback on_complete)
    : host_(host),
      config_(config),
      flow_(flow),
      flow_size_(flow_size),
      traffic_class_(traffic_class),
      on_complete_(std::move(on_complete)),
      dctcp_alpha_(config.dctcp_init_alpha),
      rto_timer_(host.sim(), [this] { OnRtoExpired(); }),
      pace_timer_(host.sim(), [this] { PacedSend(); }) {
  assert(flow_size_ > 0);
  cwnd_ = static_cast<double>(config_.init_cwnd_segments) * config_.mss;
  ssthresh_ = static_cast<double>(config_.max_cwnd_bytes);
  record_.flow = flow_;
  record_.size_bytes = flow_size_;
}

void TcpSender::Start() {
  record_.start_time = host_.sim().Now();
  EmitCwnd();
  SendAvailable();
  RestartRtoTimer();
}

void TcpSender::SendAvailable() {
  if (complete_) return;
  if (config_.pacing) {
    PacedSend();
    return;
  }
  const auto cwnd = static_cast<std::uint64_t>(cwnd_);
  while (snd_nxt_ < flow_size_) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    const std::uint64_t payload =
        std::min<std::uint64_t>(config_.mss, flow_size_ - snd_nxt_);
    if (in_flight + payload > cwnd) break;
    SendSegment(snd_nxt_, /*is_retransmit=*/false);
    snd_nxt_ += payload;
  }
}

void TcpSender::PacedSend() {
  if (complete_ || pace_timer_.pending()) return;
  if (snd_nxt_ >= flow_size_) return;
  const auto cwnd = static_cast<std::uint64_t>(cwnd_);
  const std::uint64_t payload =
      std::min<std::uint64_t>(config_.mss, flow_size_ - snd_nxt_);
  if (snd_nxt_ - snd_una_ + payload > cwnd) return;  // ACKs will re-kick us
  SendSegment(snd_nxt_, /*is_retransmit=*/false);
  snd_nxt_ += payload;
  if (snd_nxt_ >= flow_size_) return;
  // Space the next transmission at pacing_gain * cwnd per srtt.
  Time gap;
  if (rtt_valid_ && srtt_.IsPositive()) {
    const double rate_bytes_per_s =
        config_.pacing_gain * cwnd_ / srtt_.ToSeconds();
    gap = Time::FromSeconds(static_cast<double>(payload) /
                            std::max(rate_bytes_per_s, 1.0));
  } else {
    gap = config_.initial_pacing_rate.TransmissionTime(payload);
  }
  pace_timer_.Schedule(gap);
}

void TcpSender::SendSegment(std::uint64_t seq, bool is_retransmit) {
  const std::uint64_t payload =
      std::min<std::uint64_t>(config_.mss, flow_size_ - seq);
  assert(payload > 0);
  auto pkt = NewPacket();
  pkt->flow = flow_;
  pkt->type = PacketType::kData;
  pkt->payload_bytes = static_cast<std::uint32_t>(payload);
  pkt->size_bytes = static_cast<std::uint32_t>(payload) + kDataHeaderBytes;
  pkt->seq = seq;
  pkt->psh = (seq + payload >= flow_size_);
  pkt->traffic_class = traffic_class_;
  if (config_.ecn_mode != EcnMode::kNone) pkt->ecn = EcnCodepoint::kEct0;
  if (cwr_pending_) {
    pkt->cwr = true;
    cwr_pending_ = false;
  }
  pkt->sent_time = host_.sim().Now();

  if (is_retransmit) {
    if (tracer_ != nullptr) {
      tracer_->OnRetransmit(flow_, host_.sim().Now(), seq);
    }
    // Karn: never sample RTT across a retransmission.
    probe_armed_ = false;
  } else if (!probe_armed_ && seq >= sent_high_) {
    // Only genuinely new data is unambiguous: after a go-back-N resend the
    // ACK for a re-covered range may belong to the original transmission.
    probe_armed_ = true;
    probe_seq_end_ = seq + payload;
    probe_sent_at_ = host_.sim().Now();
  }
  sent_high_ = std::max(sent_high_, seq + payload);
  host_.SendPacket(std::move(pkt));
}

void TcpSender::OnAck(const Packet& ack) {
  if (complete_) return;
  if (ack.ack > snd_una_) {
    OnNewDataAcked(ack.ack, ack.ece);
  } else if (ack.ack == snd_una_ && snd_nxt_ > snd_una_) {
    if (ack.ece && config_.ecn_mode == EcnMode::kClassic) HandleEceClassic();
    OnDupAck();
  }
  // Acks below snd_una are stale reordered duplicates: ignored.
}

void TcpSender::OnNewDataAcked(std::uint64_t ack_no, bool ece) {
  const std::uint64_t newly = ack_no - snd_una_;

  if (probe_armed_ && ack_no >= probe_seq_end_) {
    probe_armed_ = false;
    UpdateRttEstimate(host_.sim().Now() - probe_sent_at_);
  }
  // New-data ACK progress ends the backed-off regime (BSD/Linux practice) —
  // but only once an RTT sample exists. Waiting for a fresh sample instead
  // would ratchet the backoff across independent loss events (after a
  // go-back-N resend no probe can arm until snd_nxt passes sent_high_, so a
  // loss-heavy elephant pins its RTO at max_rto for its whole lifetime).
  // Before the first sample the opposite holds: with min_rto below the path
  // RTT every un-backed-off timer fires spuriously mid-flight and the resend
  // cancels the probe, so clearing the backoff here would re-arm the 1-RTT
  // death spiral forever — the backoff is the only thing that lets the first
  // probe ACK arrive before the timer.
  if (rtt_valid_) rto_backoff_ = 0;
  dupacks_ = 0;

  switch (config_.ecn_mode) {
    case EcnMode::kClassic:
      if (ece) HandleEceClassic();
      break;
    case EcnMode::kDctcp:
      DctcpWindowUpdate(newly, ece);
      break;
    case EcnMode::kNone:
      break;
  }

  snd_una_ = ack_no;

  if (in_fast_recovery_) {
    if (snd_una_ >= recover_point_) {
      in_fast_recovery_ = false;
      cwnd_ = ssthresh_;
    } else {
      // NewReno partial ACK: the next hole is lost too — retransmit it and
      // stay in recovery without waiting for more dupacks.
      SendSegment(snd_una_, /*is_retransmit=*/true);
    }
  } else {
    if (cwnd_ < ssthresh_) {
      // Slow start with full byte counting (Linux tcp_slow_start): cwnd
      // grows by the bytes newly acked, so the window doubles per RTT even
      // under delayed ACKs.
      cwnd_ += static_cast<double>(newly);
    } else {
      CongestionAvoidanceIncrease(newly);
    }
    cwnd_ = std::min(cwnd_, static_cast<double>(config_.max_cwnd_bytes));
  }

  EmitCwnd();
  if (snd_una_ >= flow_size_) {
    Complete();
    return;
  }
  RestartRtoTimer();
  SendAvailable();
}

void TcpSender::OnDupAck() {
  ++dupacks_;
  if (in_fast_recovery_) {
    // Window inflation keeps the pipe full while the hole is repaired.
    cwnd_ += config_.mss;
    EmitCwnd();
    SendAvailable();
    return;
  }
  if (dupacks_ >= config_.dupack_threshold) {
    ++record_.fast_retransmits;
    ssthresh_ = SsthreshAfterLoss();
    in_fast_recovery_ = true;
    recover_point_ = snd_nxt_;
    cwnd_ = ssthresh_ + 3.0 * config_.mss;
    EmitCwnd();
    SendSegment(snd_una_, /*is_retransmit=*/true);
    RestartRtoTimer();
  }
}

void TcpSender::OnRtoExpired() {
  if (complete_) return;
  ++record_.timeouts;
  ++rto_backoff_;
  if (tracer_ != nullptr) {
    tracer_->OnRto(flow_, host_.sim().Now(), rto_backoff_);
  }
  ssthresh_ = SsthreshAfterLoss();
  cwnd_ = config_.mss;
  dupacks_ = 0;
  in_fast_recovery_ = false;
  EmitCwnd();
  // Go-back-N: everything past snd_una_ is considered lost.
  snd_nxt_ = snd_una_;
  SendSegment(snd_una_, /*is_retransmit=*/true);
  snd_nxt_ = snd_una_ + std::min<std::uint64_t>(config_.mss,
                                                flow_size_ - snd_una_);
  RestartRtoTimer();
}

void TcpSender::RestartRtoTimer() { rto_timer_.Schedule(CurrentRto()); }

Time TcpSender::CurrentRto() const {
  Time base = config_.min_rto;
  if (rtt_valid_) {
    base = std::max(config_.min_rto, srtt_ + 4 * rttvar_);
  }
  // Exponential backoff under consecutive timeouts.
  for (std::uint32_t i = 0; i < rto_backoff_ && base < config_.max_rto; ++i) {
    base = base * 2;
  }
  return std::min(base, config_.max_rto);
}

void TcpSender::UpdateRttEstimate(Time sample) {
  if (tracer_ != nullptr) {
    tracer_->OnRttSample(flow_, host_.sim().Now(), sample);
  }
  if (!rtt_valid_) {
    rtt_valid_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2;
    return;
  }
  const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
  rttvar_ = (rttvar_ * 3 + err) / 4;
  srtt_ = (srtt_ * 7 + sample) / 8;
}

void TcpSender::HandleEceClassic() {
  // One multiplicative cut per window of data (RFC 3168 behaviour).
  if (snd_una_ < ecn_cut_window_end_) return;
  ReduceWindowOnEcn(0.5);
  ecn_cut_window_end_ = snd_nxt_;
}

void TcpSender::DctcpWindowUpdate(std::uint64_t newly_acked, bool ece) {
  dctcp_bytes_acked_ += newly_acked;
  if (ece) dctcp_bytes_marked_ += newly_acked;
  // Once per window of data: refresh alpha, and cut proportionally if any
  // byte of the window was marked.
  if (snd_una_ + newly_acked <= dctcp_window_end_) return;
  if (dctcp_bytes_acked_ > 0) {
    const double fraction = static_cast<double>(dctcp_bytes_marked_) /
                            static_cast<double>(dctcp_bytes_acked_);
    dctcp_alpha_ = (1.0 - config_.dctcp_g) * dctcp_alpha_ +
                   config_.dctcp_g * fraction;
    if (dctcp_bytes_marked_ > 0 && !in_fast_recovery_) {
      ReduceWindowOnEcn(dctcp_alpha_ / 2.0);
    }
  }
  dctcp_bytes_acked_ = 0;
  dctcp_bytes_marked_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void TcpSender::CongestionAvoidanceIncrease(std::uint64_t newly_acked) {
  cwnd_ += static_cast<double>(config_.mss) *
           static_cast<double>(newly_acked) / cwnd_;
}

double TcpSender::SsthreshAfterLoss() {
  return std::max(cwnd_ / 2.0, 2.0 * config_.mss);
}

void TcpSender::ReduceWindowOnEcn(double factor) {
  cwnd_ = std::max(cwnd_ * (1.0 - factor),
                   static_cast<double>(config_.mss));
  ssthresh_ = cwnd_;
  cwr_pending_ = true;
  EmitCwnd();
}

void TcpSender::EmitCwnd() {
  if (tracer_ == nullptr) return;
  if (cwnd_ == last_cwnd_emitted_ && ssthresh_ == last_ssthresh_emitted_) {
    return;
  }
  last_cwnd_emitted_ = cwnd_;
  last_ssthresh_emitted_ = ssthresh_;
  tracer_->OnCwnd(flow_, host_.sim().Now(), cwnd_, ssthresh_);
}

void TcpSender::Complete() {
  complete_ = true;
  rto_timer_.Cancel();
  pace_timer_.Cancel();
  record_.completion_time = host_.sim().Now();
  if (on_complete_) on_complete_(record_);
}

}  // namespace ecnsharp
