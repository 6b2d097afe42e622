// Output-queued switch with static routing and per-flow ECMP.
//
// Forwarding model: a packet arriving at the switch is looked up by
// destination address; if several egress ports match (multiple equal-cost
// uplinks), one is selected by hashing the flow key with a per-switch salt,
// so every packet of a flow takes the same path (per-flow ECMP, as in the
// paper's leaf-spine simulations). Queueing happens only at egress ports.
//
// Three route granularities, consulted most-specific-first:
//   * exact:   AddRoute(dst, port) — one destination address,
//   * range:   AddRouteRange(lo, hi, port) — a contiguous address block
//              (a fat-tree pod or edge subnet),
//   * default: AddDefaultRoute(port) — everything else (the "up" route of
//              an edge/aggregation switch).
// Range and default routes keep table memory independent of host count: a
// k=32 fat-tree edge switch carries 16 exact routes plus one 16-way default
// set instead of 8192 per-host entries per uplink.
//
// Table layout: every ECMP set is a contiguous run of one shared port-pointer
// array, and the exact and range tables are sorted flat vectors of small
// records pointing into it, so a lookup touches two or three dense lines
// instead of a hash bucket, a node and a per-set vector.
#ifndef ECNSHARP_NET_SWITCH_NODE_H_
#define ECNSHARP_NET_SWITCH_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/egress_port.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace ecnsharp {

class SwitchNode : public PacketSink {
 public:
  SwitchNode(Simulator& sim, std::string name, std::uint64_t ecmp_salt = 0)
      : sim_(sim), ecmp_salt_(ecmp_salt), name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  // Installs an egress port; the switch owns it.
  EgressPort& AddPort(std::unique_ptr<EgressPort> port) {
    ports_.push_back(std::move(port));
    return *ports_.back();
  }
  std::size_t port_count() const { return ports_.size(); }
  EgressPort& port(std::size_t i) { return *ports_.at(i); }
  const EgressPort& port(std::size_t i) const { return *ports_.at(i); }

  // Adds `port` to the ECMP set for destination address `dst`.
  void AddRoute(std::uint32_t dst, EgressPort& port);

  // Adds `port` to the ECMP set for every destination in [lo, hi]
  // (inclusive) that has no exact route. Ranges must either coincide with an
  // existing range (extending its ECMP set) or be disjoint from all others;
  // anything else (or lo > hi) is a configuration error and exits 2.
  void AddRouteRange(std::uint32_t lo, std::uint32_t hi, EgressPort& port);

  // Adds `port` to the ECMP set used when neither an exact nor a range
  // route matches.
  void AddDefaultRoute(EgressPort& port) { Widen(default_route_, port); }

  void HandlePacket(std::unique_ptr<Packet> pkt) override;

  // The ECMP bucket for a flow-key hash under a per-switch salt: a
  // splitmix64-style finalizer over (key_hash, salt). Every input bit
  // avalanches into the bucket choice, so structured key populations
  // (sequential addresses/ports) spread uniformly and consecutive salted
  // hops choose independently — no polarization. `buckets` must be > 0.
  // The bucket is h % buckets; a power-of-two set (every fat-tree set) takes
  // it with a mask instead of a 64-bit divide.
  static std::size_t EcmpBucket(std::uint64_t key_hash, std::uint64_t salt,
                                std::size_t buckets) {
    std::uint64_t h = key_hash + salt * 0x9e3779b97f4a7c15ull;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    if ((buckets & (buckets - 1)) == 0) {
      return static_cast<std::size_t>(h & (buckets - 1));
    }
    return static_cast<std::size_t>(h % buckets);
  }

  std::uint64_t rx_packets() const { return rx_packets_; }
  std::uint64_t no_route_drops() const { return no_route_drops_; }

  // Locality tag for sharded event lanes: topologies annotate each switch
  // with the lane its events belong to (e.g. the fat-tree pod index).
  void set_locality_id(std::uint32_t id) { locality_id_ = id; }
  std::uint32_t locality_id() const { return locality_id_; }

 private:
  // One ECMP set: route_ports_[first, first + count). Empty when count is 0.
  struct PortSet {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  struct ExactRoute {
    std::uint32_t dst;
    PortSet set;
  };
  struct RangeRoute {
    std::uint32_t lo;
    std::uint32_t hi;  // inclusive
    PortSet set;
  };

  // Appends `port` to `set`, opening the set at the end of route_ports_ if
  // it is empty and shifting every set stored after it otherwise.
  void Widen(PortSet& set, EgressPort& port);
  const PortSet* LookupExact(std::uint32_t dst) const;
  const PortSet* LookupRange(std::uint32_t dst) const;
  EgressPort& SelectEcmp(const PortSet& set, const FlowKey& flow) const {
    const std::uint32_t i =
        set.count == 1 ? 0
                       : static_cast<std::uint32_t>(EcmpBucket(
                             FlowKeyHash{}(flow), ecmp_salt_, set.count));
    return *route_ports_[set.first + i];
  }

  Simulator& sim_;
  std::uint64_t ecmp_salt_;
  std::vector<ExactRoute> exact_routes_;  // sorted by dst
  std::vector<RangeRoute> range_routes_;  // sorted by lo, pairwise disjoint
  PortSet default_route_;
  std::vector<EgressPort*> route_ports_;  // every set's ports, contiguous
  std::uint64_t rx_packets_ = 0;
  std::uint64_t no_route_drops_ = 0;
  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::string name_;
  std::uint32_t locality_id_ = 0;
};

}  // namespace ecnsharp

#endif  // ECNSHARP_NET_SWITCH_NODE_H_
