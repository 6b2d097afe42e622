#include "workloads.h"

#include <sys/resource.h>

#include <cstdio>
#include <memory>
#include <utility>

#include "harness/relaxed_lanes.h"
#include "harness/schemes.h"
#include "harness/session.h"
#include "net/packet_pool.h"
#include "sched/fifo_queue_disc.h"
#include "sim/lane_executor.h"
#include "topo/dumbbell.h"
#include "topo/fat_tree.h"
#include "topo/rtt_variation.h"

namespace perfbench {

using namespace ecnsharp;

namespace {

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// MakeFifoDisc with both decorators around it: the AQM policy inside the
// FIFO, the FIFO inside the disc decorator.
std::unique_ptr<QueueDisc> ProbedFifoDisc(Scheme scheme,
                                          const SchemeParams& params,
                                          BufferPolicy* pool,
                                          PortProbe& probe) {
  std::unique_ptr<AqmPolicy> aqm = MakeAqm(scheme, params);
  if (aqm != nullptr) aqm = std::make_unique<TimedAqm>(std::move(aqm), probe);
  std::unique_ptr<QueueDisc> fifo =
      pool != nullptr
          ? std::make_unique<FifoQueueDisc>(*pool, std::move(aqm))
          : std::make_unique<FifoQueueDisc>(params.buffer_bytes,
                                            std::move(aqm));
  return std::make_unique<TimedDisc>(std::move(fifo), probe);
}

template <typename Config>
auto DiscFactory(const Config& config, LayerProbes* probes) {
  return [&config, probes](BufferPolicy* pool) -> std::unique_ptr<QueueDisc> {
    if (probes == nullptr) {
      return MakeFifoDisc(config.scheme, config.params, pool);
    }
    return ProbedFifoDisc(config.scheme, config.params, pool,
                          probes->AddPort());
  };
}

std::uint64_t MinSegments(std::uint64_t bytes) {
  return (bytes + kMaxSegmentSize - 1) / kMaxSegmentSize;
}

std::uint64_t NoRouteDrops(Dumbbell& topo) {
  return topo.switch_node().no_route_drops();
}
using perfbench::NoRouteDrops;

// Session wiring as in RunDumbbell (harness/experiment.cc). The benchmark
// configs set no scenario, trace or sketch, so those fields stay default.
ExperimentSessionConfig SessionConfig(const DumbbellExperimentConfig& config) {
  ExperimentSessionConfig session_config;
  session_config.workload = config.workload;
  session_config.load = config.load;
  session_config.flows = config.flows;
  session_config.seed = config.seed;
  session_config.rtt_assignment =
      ExperimentSessionConfig::RttAssignment::kQuantiles;
  session_config.max_rtt_extra = config.base_rtt * (config.rtt_variation - 1.0);
  session_config.rtt_profile = RttProfile::kTestbed;
  session_config.queue_sample_period = config.queue_sample_period;
  session_config.max_sim_time = config.max_sim_time;
  session_config.cc_mix = config.cc_mix;
  return session_config;
}

// Session wiring as in RunFatTree (harness/experiment.cc).
ExperimentSessionConfig SessionConfig(const FatTreeExperimentConfig& config) {
  ExperimentSessionConfig session_config;
  session_config.workload = config.workload;
  session_config.load = config.load;
  session_config.flows = config.flows;
  session_config.seed = config.seed;
  session_config.rtt_assignment =
      ExperimentSessionConfig::RttAssignment::kPerHostSample;
  session_config.max_rtt_extra = config.max_extra_delay;
  session_config.rtt_profile = RttProfile::kLeafSpine;
  session_config.queue_sample_period = config.queue_sample_period;
  session_config.max_sim_time = config.max_sim_time;
  session_config.cc_mix = config.cc_mix;
  return session_config;
}

std::unique_ptr<Dumbbell> BuildTopology(Simulator& sim,
                                        const DumbbellExperimentConfig& config,
                                        LayerProbes* probes) {
  DumbbellConfig topo_config;
  topo_config.senders = config.senders;
  topo_config.rate = config.rate;
  topo_config.base_rtt = config.base_rtt;
  topo_config.buffer_bytes = config.params.buffer_bytes;
  topo_config.tcp = config.tcp;
  topo_config.buffer_policy = config.buffer_policy;
  return std::make_unique<Dumbbell>(sim, topo_config,
                                    DiscFactory(config, probes));
}

FatTreeConfig FabricConfig(const FatTreeExperimentConfig& config) {
  FatTreeConfig topo_config = config.topo;
  topo_config.buffer_bytes = config.params.buffer_bytes;
  topo_config.buffer_policy = config.buffer_policy;
  return topo_config;
}

std::unique_ptr<FatTree> BuildTopology(Simulator& sim,
                                       const FatTreeExperimentConfig& config,
                                       LayerProbes* probes) {
  return std::make_unique<FatTree>(sim, FabricConfig(config),
                                   DiscFactory(config, probes));
}

// The body RunDumbbell / RunFatTree share, with every phase timed. With
// `setup_only` it returns after Bind.
template <typename Config>
RunRecord RunPhased(const Config& config, LayerProbes* probes,
                    bool setup_only) {
  RunRecord record;
  const PacketPool& pool = ThreadLocalPacketPool();
  const std::uint64_t allocs_before = pool.total_allocations();
  const std::uint64_t fresh_before = pool.fresh_allocations();

  ExperimentSession session(SessionConfig(config));
  const std::int64_t t0 = NowNs();
  auto topo = BuildTopology(session.sim(), config, probes);
  const std::int64_t t1 = NowNs();
  session.Bind(*topo);
  const std::int64_t t2 = NowNs();
  record.phases.build_s = Seconds(t1 - t0);
  record.phases.bind_s = Seconds(t2 - t1);
  record.ports = topo->bottleneck_count();
  if (setup_only) return record;

  if (probes != nullptr) {
    for (std::size_t i = 0; i < topo->host_count(); ++i) {
      topo->stack(i).SetTransportTracer(&probes->AddStack());
    }
  }
  const double cpu_before = ProcessCpuSeconds();
  const std::int64_t t3 = NowNs();
  session.Run();
  const std::int64_t t4 = NowNs();
  record.run_cpu_s = ProcessCpuSeconds() - cpu_before;
  record.result = session.Result();
  const std::int64_t t5 = NowNs();

  record.phases.run_s = Seconds(t4 - t3);
  record.phases.result_s = Seconds(t5 - t4);
  if (probes != nullptr) {
    probes->Record("topo.build", "run", t0, t1);
    probes->Record("harness.bind", "run", t1, t2);
    probes->Record("sim.run", "run", t3, t4);
    probes->Record("stats.result", "run", t4, t5);
  }
  record.events = session.sim().events_executed();
  record.no_route_drops = NoRouteDrops(*topo);
  record.packet_allocs = pool.total_allocations() - allocs_before;
  record.packet_heap_allocs = pool.fresh_allocations() - fresh_before;
  for (const FctCollector::Sample& sample : session.collector().samples()) {
    record.min_segments += MinSegments(sample.size_bytes);
  }
  return record;
}

void AppendDouble(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g,", value);
  out += buf;
}

void AppendSummary(std::string& out, const FctSummary& s) {
  out += std::to_string(s.count) + ",";
  for (double v : {s.avg_us, s.stddev_us, s.p50_us, s.p90_us, s.p99_us,
                   s.max_us}) {
    AppendDouble(out, v);
  }
}

}  // namespace

std::uint64_t NoRouteDrops(FatTree& topo) {
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < topo.edge_count(); ++i) {
    drops += topo.edge(i).no_route_drops();
  }
  for (std::size_t i = 0; i < topo.agg_count(); ++i) {
    drops += topo.agg(i).no_route_drops();
  }
  for (std::size_t i = 0; i < topo.core_count(); ++i) {
    drops += topo.core(i).no_route_drops();
  }
  return drops;
}

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kDumbbellWebsearch, Workload::kFatTreeK16,
                     Workload::kFatTreeK16Lanes2}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kDumbbellWebsearch:
      return "dumbbell_websearch";
    case Workload::kFatTreeK16:
      return "fattree_k16";
    case Workload::kFatTreeK16Lanes2:
      return "fattree_k16_lanes2";
  }
  return "?";
}

std::size_t DefaultFlows(Workload workload) {
  switch (workload) {
    case Workload::kDumbbellWebsearch:
      return 10000;
    case Workload::kFatTreeK16:
    case Workload::kFatTreeK16Lanes2:
      return 2000;
  }
  return 0;
}

DumbbellExperimentConfig DumbbellWebsearch(std::uint64_t seed,
                                           std::size_t flows) {
  DumbbellExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.params = SchemeParams();
  config.workload = &WebSearchWorkload();
  config.load = 0.7;
  config.flows = flows;
  config.rtt_variation = 3.0;
  config.base_rtt = Time::FromMicroseconds(70);
  config.senders = 7;
  config.rate = DataRate::GigabitsPerSecond(10);
  config.seed = seed;
  return config;
}

FatTreeExperimentConfig FatTreeK16(std::uint64_t seed, std::size_t flows) {
  FatTreeExperimentConfig config;
  config.scheme = Scheme::kEcnSharp;
  config.params = SimulationSchemeParams();
  config.workload = &WebSearchWorkload();
  config.load = 0.5;
  config.flows = flows;
  config.topo.k = 16;
  config.seed = seed;
  return config;
}

RunRecord RunSerial(const DumbbellExperimentConfig& config,
                    LayerProbes* probes, bool setup_only) {
  return RunPhased(config, probes, setup_only);
}

RunRecord RunSerial(const FatTreeExperimentConfig& config,
                    LayerProbes* probes, bool setup_only) {
  return RunPhased(config, probes, setup_only);
}

RunRecord RunRelaxed(const FatTreeExperimentConfig& config, std::size_t lanes,
                     bool setup_only) {
  RunRecord record;
  {
    // Cold, separately timed construction of the lane-aware fabric the
    // relaxed runner builds internally.
    LaneSet lane_set(lanes);
    const std::int64_t t0 = NowNs();
    FatTree topo(lane_set, FabricConfig(config), DiscFactory(config, nullptr));
    record.phases.build_s = Seconds(NowNs() - t0);
    record.ports = topo.bottleneck_count();
  }
  if (setup_only) return record;
  const double cpu_before = ProcessCpuSeconds();
  const std::int64_t t0 = NowNs();
  record.result = RunFatTreeRelaxed(config, lanes);
  record.phases.run_s = Seconds(NowNs() - t0);
  record.run_cpu_s = ProcessCpuSeconds() - cpu_before;
  return record;
}

std::string Digest(const ExperimentResult& result) {
  std::string text;
  AppendSummary(text, result.overall);
  AppendSummary(text, result.short_flows);
  AppendSummary(text, result.large_flows);
  text += std::to_string(result.flows_started) + "," +
          std::to_string(result.flows_completed) + "," +
          std::to_string(result.timeouts) + "," +
          std::to_string(result.bottleneck.enqueued) + "," +
          std::to_string(result.bottleneck.dequeued) + "," +
          std::to_string(result.bottleneck.ce_marked) + "," +
          std::to_string(result.bottleneck.dropped_overflow) + "," +
          std::to_string(result.bottleneck.dropped_aqm) + ",";
  AppendDouble(text, result.sim_seconds);
  // 64-bit FNV-1a.
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace perfbench
