#include "transport/tcp_stack.h"

#include <cassert>
#include <utility>

#include "transport/cubic_sender.h"

namespace ecnsharp {

TcpStack::TcpStack(Host& host, const TcpConfig& config)
    : host_(host), config_(config) {
  host_.SetProtocolHandler(*this);
}

TcpSender& TcpStack::StartFlow(std::uint32_t dst, std::uint64_t size_bytes,
                               TcpSender::CompletionCallback on_complete,
                               std::uint8_t traffic_class,
                               std::optional<CcKind> cc) {
  FlowKey key;
  key.src = host_.address();
  key.dst = dst;
  key.dst_port = 80;
  // Find an unused source port (wraps; skips ports of still-tracked flows).
  do {
    key.src_port = next_port_++;
    if (next_port_ == 0) next_port_ = 1;
  } while (senders_.contains(key));

  const CcKind kind = cc.value_or(config_.cc_kind);
  std::unique_ptr<TcpSender> sender;
  if (kind == CcKind::kCubic) {
    // Cubic flows carry their own ECN stance; kDctcp is not a meaningful
    // Cubic response, so it degrades to the classic one-cut-per-window.
    TcpConfig cubic_config = config_;
    cubic_config.ecn_mode = config_.cubic_ecn_mode == EcnMode::kDctcp
                                ? EcnMode::kClassic
                                : config_.cubic_ecn_mode;
    sender = std::make_unique<CubicSender>(host_, cubic_config, key,
                                           size_bytes, traffic_class,
                                           std::move(on_complete));
  } else {
    sender = std::make_unique<TcpSender>(host_, config_, key, size_bytes,
                                         traffic_class, std::move(on_complete));
  }
  TcpSender& ref = *sender;
  ref.set_tracer(transport_tracer_);
  senders_.emplace(key, std::move(sender));
  ref.Start();
  return ref;
}

void TcpStack::HandlePacket(std::unique_ptr<Packet> pkt) {
  assert(pkt->flow.dst == host_.address());
  if (pkt->type == PacketType::kAck) {
    const auto it = senders_.find(pkt->flow.Reversed());
    if (it != senders_.end()) it->second->OnAck(*pkt);
    return;
  }
  auto it = receivers_.find(pkt->flow);
  if (it == receivers_.end()) {
    it = receivers_
             .emplace(pkt->flow, std::make_unique<TcpReceiver>(
                                     host_, config_, pkt->flow))
             .first;
  }
  it->second->OnData(*pkt);
}

std::size_t TcpStack::active_senders() const {
  std::size_t n = 0;
  for (const auto& [key, sender] : senders_) {
    if (!sender->complete()) ++n;
  }
  return n;
}

}  // namespace ecnsharp
