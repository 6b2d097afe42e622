#include "net/switch_node.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace ecnsharp {

namespace {

std::string RangeText(std::uint32_t lo, std::uint32_t hi) {
  return "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

}  // namespace

void SwitchNode::Widen(PortSet& set, EgressPort& port) {
  if (set.count == 0) {
    set.first = static_cast<std::uint32_t>(route_ports_.size());
  }
  const std::uint32_t pos = set.first + set.count;
  route_ports_.insert(route_ports_.begin() + pos, &port);
  ++set.count;
  if (pos + 1 == route_ports_.size()) return;  // appended: nothing moved
  auto shift = [pos](PortSet& s) {
    if (s.count != 0 && s.first >= pos) ++s.first;
  };
  // `set` itself starts before pos, so only the sets stored after it move.
  for (ExactRoute& r : exact_routes_) shift(r.set);
  for (RangeRoute& r : range_routes_) shift(r.set);
  shift(default_route_);
}

void SwitchNode::AddRoute(std::uint32_t dst, EgressPort& port) {
  auto it = std::lower_bound(
      exact_routes_.begin(), exact_routes_.end(), dst,
      [](const ExactRoute& r, std::uint32_t value) { return r.dst < value; });
  if (it == exact_routes_.end() || it->dst != dst) {
    it = exact_routes_.insert(it, ExactRoute{dst, PortSet{}});
  }
  Widen(it->set, port);
}

void SwitchNode::AddRouteRange(std::uint32_t lo, std::uint32_t hi,
                               EgressPort& port) {
  if (lo > hi) {
    FatalConfigError("switch " + name_ + ": route range " + RangeText(lo, hi) +
                     " has lo > hi");
  }
  auto it = std::lower_bound(
      range_routes_.begin(), range_routes_.end(), lo,
      [](const RangeRoute& r, std::uint32_t value) { return r.lo < value; });
  if (it != range_routes_.end() && it->lo == lo && it->hi == hi) {
    Widen(it->set, port);  // same block: widen the ECMP set
    return;
  }
  const RangeRoute* clash = nullptr;
  if (it != range_routes_.end() && it->lo <= hi) {
    clash = &*it;
  } else if (it != range_routes_.begin() && std::prev(it)->hi >= lo) {
    clash = &*std::prev(it);
  }
  if (clash != nullptr) {
    FatalConfigError("switch " + name_ + ": route range " + RangeText(lo, hi) +
                     " overlaps " + RangeText(clash->lo, clash->hi) +
                     "; ranges must be identical or disjoint");
  }
  it = range_routes_.insert(it, RangeRoute{lo, hi, PortSet{}});
  Widen(it->set, port);
}

const SwitchNode::PortSet* SwitchNode::LookupExact(std::uint32_t dst) const {
  const auto it = std::lower_bound(
      exact_routes_.begin(), exact_routes_.end(), dst,
      [](const ExactRoute& r, std::uint32_t value) { return r.dst < value; });
  return it != exact_routes_.end() && it->dst == dst ? &it->set : nullptr;
}

const SwitchNode::PortSet* SwitchNode::LookupRange(std::uint32_t dst) const {
  // First range whose lo > dst; the candidate (if any) is the one before it.
  const auto it = std::upper_bound(
      range_routes_.begin(), range_routes_.end(), dst,
      [](std::uint32_t value, const RangeRoute& r) { return value < r.lo; });
  if (it == range_routes_.begin()) return nullptr;
  const RangeRoute& r = *std::prev(it);
  return dst <= r.hi ? &r.set : nullptr;
}

void SwitchNode::HandlePacket(std::unique_ptr<Packet> pkt) {
  ++rx_packets_;
  const std::uint32_t dst = pkt->flow.dst;
  const PortSet* set = LookupExact(dst);
  if (set == nullptr) set = LookupRange(dst);
  if (set == nullptr && default_route_.count != 0) set = &default_route_;
  if (set == nullptr) {
    ++no_route_drops_;
    return;  // packet destroyed: no route
  }
  SelectEcmp(*set, pkt->flow).Enqueue(std::move(pkt));
}

}  // namespace ecnsharp
