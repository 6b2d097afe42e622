// The benchmark's workloads and the phase-timed compositions that run them.
//
// The serial workloads are composed exactly like RunDumbbell / RunFatTree
// (ExperimentSession + topology constructor + Bind / Run / Result), but
// from here, so each phase can be timed from outside. The laned workload
// calls RunFatTreeRelaxed, which rejects observers, so it runs untraced.
// parity_test.cc pins every composition to the library runner it mirrors.
#ifndef ECNSHARP_PERFBENCH_WORKLOADS_H_
#define ECNSHARP_PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "harness/experiment.h"
#include "probes.h"

namespace perfbench {

enum class Workload { kDumbbellWebsearch, kFatTreeK16, kFatTreeK16Lanes2 };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
// The run length of one simulation: the number of open-loop flows.
std::size_t DefaultFlows(Workload workload);
// Lane count of the laned workload.
inline constexpr std::size_t kLanes = 2;

// The paper testbed: 7 senders, 10 Gbps, 70 us base RTT, RTT variation 3,
// load 0.7, ECN# with the testbed parameters, websearch flow sizes.
ecnsharp::DumbbellExperimentConfig DumbbellWebsearch(std::uint64_t seed,
                                                     std::size_t flows);
// k=16 fat-tree (1024 hosts), load 0.5, ECN# with the large-scale
// simulation parameters, websearch flow sizes.
ecnsharp::FatTreeExperimentConfig FatTreeK16(std::uint64_t seed,
                                             std::size_t flows);

// Wall time of each phase, in seconds.
struct Phases {
  double build_s = 0.0;   // topology constructor
  double bind_s = 0.0;    // ExperimentSession::Bind
  double run_s = 0.0;     // ExperimentSession::Run
  double result_s = 0.0;  // ExperimentSession::Result
};

struct RunRecord {
  ecnsharp::ExperimentResult result;
  Phases phases;
  // Process CPU seconds (every thread) spent in the run phase.
  double run_cpu_s = 0.0;
  // Engine and packet counts. RunRelaxed cannot see inside
  // RunFatTreeRelaxed and leaves them 0; every other run fills them.
  std::uint64_t events = 0;  // executed events, every lane summed
  std::uint64_t no_route_drops = 0;
  // Deltas of the packet pool's total / fresh (heap) allocations.
  std::uint64_t packet_allocs = 0;
  std::uint64_t packet_heap_allocs = 0;
  std::size_t ports = 0;  // switch egress ports carrying the AQM
  // Minimum number of MSS segments the completed flows' bytes need.
  std::uint64_t min_segments = 0;
};

// Phase-timed serial runs; with `probes`, the queue discs, AQM policies and
// host stacks are instrumented and the coarse spans recorded. With
// `setup_only` the run stops after Bind (only build_s / bind_s are set).
RunRecord RunSerial(const ecnsharp::DumbbellExperimentConfig& config,
                    LayerProbes* probes, bool setup_only = false);
RunRecord RunSerial(const ecnsharp::FatTreeExperimentConfig& config,
                    LayerProbes* probes, bool setup_only = false);

// The laned workload: phases.build_s times a lane-aware FatTree built on
// its own, phases.run_s the whole RunFatTreeRelaxed call. With
// `setup_only` only the build is timed.
RunRecord RunRelaxed(const ecnsharp::FatTreeExperimentConfig& config,
                     std::size_t lanes, bool setup_only = false);

// Sum of no_route_drops over every switch of the fabric.
std::uint64_t NoRouteDrops(ecnsharp::FatTree& topo);

// Hex digest of the model outputs: the overall / short / large FCT
// summaries, flows started and completed, timeouts, packets the switch
// ports enqueued and dequeued (the hops both throughput metrics divide by),
// CE marks, drops and simulated seconds. Engine counts (executed events)
// are deliberately left out, so an optimisation that changes them keeps
// the digest.
std::string Digest(const ecnsharp::ExperimentResult& result);

}  // namespace perfbench

#endif  // ECNSHARP_PERFBENCH_WORKLOADS_H_
