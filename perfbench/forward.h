// Switch-forwarding driver: times SwitchNode::HandlePacket (range lookup,
// salted ECMP, egress enqueue) on the edge, aggregation and core switches
// of a k=16 FatTree, with flow pairs drawn by the fabric's own
// SampleFlowPair — the pair distribution of the fat-tree workloads.
//
// Each pair contributes one call per switch of a path it would take: the
// source edge, a source-pod aggregation switch, and for inter-pod pairs a
// core, a destination-pod aggregation switch and the destination edge
// (intra-pod pairs skip the core tier, same-edge pairs stop at the edge).
// Packets are built before a batch is timed, and the simulator is drained
// untimed after it, so every batch meets the near-empty queues of a
// lightly loaded fabric.
#ifndef ECNSHARP_PERFBENCH_FORWARD_H_
#define ECNSHARP_PERFBENCH_FORWARD_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct ForwardResult {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t no_route_drops = 0;
};

ForwardResult TimeForwarding(std::uint64_t seed, std::size_t batches,
                             std::size_t batch_size);

}  // namespace perfbench

#endif  // ECNSHARP_PERFBENCH_FORWARD_H_
