#include "forward.h"

#include <memory>
#include <vector>

#include "harness/schemes.h"
#include "probes.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "topo/fat_tree.h"
#include "workloads.h"

namespace perfbench {

using namespace ecnsharp;

namespace {

constexpr std::size_t kPairs = 4096;

struct Hop {
  SwitchNode* node;
  FlowKey flow;
};

}  // namespace

ForwardResult TimeForwarding(std::uint64_t seed, std::size_t batches,
                             std::size_t batch_size) {
  Simulator sim;
  const SchemeParams params = SimulationSchemeParams();
  FatTreeConfig topo_config;
  topo_config.k = 16;
  topo_config.buffer_bytes = params.buffer_bytes;
  FatTree topo(sim, topo_config, [&params](BufferPolicy* pool) {
    return MakeFifoDisc(Scheme::kEcnSharp, params, pool);
  });

  const std::size_t half = topo.k() / 2;
  Rng rng(seed);
  std::vector<Hop> hops;
  for (std::size_t i = 0; i < kPairs; ++i) {
    auto [stack, dst] = topo.SampleFlowPair(rng);
    const std::uint32_t src = stack->host().address();
    const FlowKey flow{src, dst, static_cast<std::uint16_t>(1 + i), 80};
    const std::size_t src_pod = topo.PodOfHost(src);
    const std::size_t dst_pod = topo.PodOfHost(dst);
    hops.push_back(Hop{&topo.edge(topo.EdgeOfHost(src)), flow});
    if (topo.EdgeOfHost(src) == topo.EdgeOfHost(dst)) continue;
    hops.push_back(Hop{&topo.agg(src_pod * half + i % half), flow});
    if (src_pod != dst_pod) {
      hops.push_back(Hop{&topo.core(i % topo.core_count()), flow});
      hops.push_back(Hop{&topo.agg(dst_pod * half + (i / half) % half), flow});
    }
    hops.push_back(Hop{&topo.edge(topo.EdgeOfHost(dst)), flow});
  }

  ForwardResult result;
  std::vector<std::unique_ptr<Packet>> packets(batch_size);
  std::size_t next = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t j = 0; j < batch_size; ++j) {
      auto pkt = std::make_unique<Packet>();
      pkt->flow = hops[(next + j) % hops.size()].flow;
      pkt->type = PacketType::kData;
      pkt->size_bytes = kFullPacketBytes;
      pkt->payload_bytes = kMaxSegmentSize;
      pkt->psh = true;
      pkt->ecn = EcnCodepoint::kEct0;
      pkt->sent_time = sim.Now();
      packets[j] = std::move(pkt);
    }
    const std::int64_t start = NowNs();
    for (std::size_t j = 0; j < batch_size; ++j) {
      hops[(next + j) % hops.size()].node->HandlePacket(std::move(packets[j]));
    }
    result.total_ns += static_cast<std::uint64_t>(NowNs() - start);
    result.calls += batch_size;
    next += batch_size;
    sim.Run();
  }
  result.no_route_drops = NoRouteDrops(topo);
  return result;
}

}  // namespace perfbench
