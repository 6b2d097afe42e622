// perfbench_driver: runs ONE simulation of one benchmark workload and
// prints its raw measurements as a JSON object on stdout. run.py starts
// one fresh process per simulation, so set-up time and peak memory are
// never flattered by storage a previous simulation left behind.
//
//   perfbench_driver --workload <name> --seed <n> [--trace 0|1]
//                    [--spans-out <file>] [--setup-only 0|1]
//
// --setup-only 1 stops after the set-up phase (topology constructor and
// Bind) and reports only its times: run.py samples cold set-up time from
// several such processes per run.
// --trace 1 attaches the layer probes, runs the switch-forwarding driver
// after the simulation, and reports the per-layer metrics under "layers";
// --spans-out writes the recorded spans there. The relaxed runner behind
// fattree_k16_lanes2 rejects observers, so that workload runs untraced
// only. Exit 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "forward.h"
#include "harness/config_json.h"
#include "harness/json.h"
#include "probes.h"
#include "workloads.h"

namespace {

using ecnsharp::Json;
using perfbench::LayerProbes;
using perfbench::RunRecord;
using perfbench::Workload;

constexpr std::size_t kForwardBatches = 1024;
constexpr std::size_t kForwardBatchSize = 128;

[[noreturn]] void Usage(const std::string& message) {
  std::cerr << "perfbench_driver: " << message << "\n"
            << "usage: perfbench_driver --workload "
               "<dumbbell_websearch|fattree_k16|fattree_k16_lanes2> "
               "--seed <n> [--trace 0|1] [--spans-out <file>] "
               "[--setup-only 0|1]\n";
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Json Metric(double value, const char* unit) {
  return Json::Object().Set("value", Json::Num(value)).Set("unit",
                                                           Json::Str(unit));
}

Json AggJson(const perfbench::SpanAgg& agg, const char* name,
             const char* parent) {
  return Json::Object()
      .Set("name", Json::Str(name))
      .Set("parent", Json::Str(parent))
      .Set("count", Json::UInt(agg.count()))
      .Set("total_ns", Json::UInt(agg.total_ns()))
      .Set("p50_ns", Json::Num(agg.Quantile(0.50)))
      .Set("p99_ns", Json::Num(agg.Quantile(0.99)));
}

// The per-layer metrics of a traced (serial) run.
Json Layers(const RunRecord& record, const LayerProbes& probes,
            const perfbench::ForwardResult& forward) {
  const ecnsharp::ExperimentResult& result = record.result;
  const perfbench::PortProbe ports = probes.MergedPorts();
  const perfbench::CountingTransportTracer transport = probes.MergedStacks();
  const double run_s = record.phases.run_s;
  const double hops = static_cast<double>(result.bottleneck.dequeued);
  const double sched_ns = static_cast<double>(ports.sched_enqueue.total_ns() +
                                              ports.sched_dequeue.total_ns());
  const double core_ns =
      static_cast<double>(ports.core_allow_enqueue.total_ns() +
                          ports.core_on_dequeue.total_ns());
  const auto mean_ns = [](const perfbench::SpanAgg& agg) {
    return Ratio(static_cast<double>(agg.total_ns()),
                 static_cast<double>(agg.count()));
  };
  const double started = static_cast<double>(result.flows_started);
  const double completed = static_cast<double>(result.flows_completed);

  Json layers = Json::Object();
  layers.Set("topo.build_s", Metric(record.phases.build_s, "s"))
      .Set("topo.ports", Metric(static_cast<double>(record.ports), "count"))
      .Set("harness.bind_s", Metric(record.phases.bind_s, "s"))
      .Set("stats.result_s", Metric(record.phases.result_s, "s"))
      .Set("sim.events",
           Metric(static_cast<double>(record.events), "count"))
      .Set("sim.events_per_hop",
           Metric(Ratio(static_cast<double>(record.events), hops),
                  "ratio"))
      .Set("sim.run_s", Metric(run_s, "s"))
      .Set("sim.run_other_s",
           Metric(run_s - sched_ns * 1e-9, "s"))
      .Set("net.hops", Metric(hops, "count"))
      .Set("net.forward_ns",
           Metric(Ratio(static_cast<double>(forward.total_ns),
                        static_cast<double>(forward.calls)),
                  "ns"))
      .Set("net.forward_calls",
           Metric(static_cast<double>(forward.calls), "count"))
      .Set("net.packet_allocs_per_hop",
           Metric(Ratio(static_cast<double>(record.packet_allocs),
                        hops),
                  "ratio"))
      .Set("net.packet_heap_allocs",
           Metric(static_cast<double>(record.packet_heap_allocs),
                  "count"))
      .Set("net.no_route_drops",
           Metric(static_cast<double>(record.no_route_drops +
                                      forward.no_route_drops),
                  "count"))
      .Set("sched.enqueue_ns", Metric(mean_ns(ports.sched_enqueue), "ns"))
      .Set("sched.dequeue_ns", Metric(mean_ns(ports.sched_dequeue), "ns"))
      .Set("sched.calls",
           Metric(static_cast<double>(ports.sched_enqueue.count() +
                                      ports.sched_dequeue.count()),
                  "count"))
      .Set("sched.busy_share",
           Metric(Ratio(sched_ns * 1e-9, run_s), "ratio"))
      .Set("sched.drop_ratio",
           Metric(Ratio(static_cast<double>(ports.sched_drops),
                        static_cast<double>(ports.sched_enqueue.count())),
                  "ratio"))
      .Set("core.allow_enqueue_ns",
           Metric(mean_ns(ports.core_allow_enqueue), "ns"))
      .Set("core.on_dequeue_ns", Metric(mean_ns(ports.core_on_dequeue), "ns"))
      .Set("core.busy_share",
           Metric(Ratio(core_ns * 1e-9, run_s), "ratio"))
      .Set("core.mark_ratio",
           Metric(Ratio(static_cast<double>(ports.core_marks),
                        static_cast<double>(ports.core_allow_enqueue.count())),
                  "ratio"))
      .Set("transport.rtt_samples",
           Metric(static_cast<double>(transport.rtt_samples), "count"))
      .Set("transport.retransmits",
           Metric(static_cast<double>(transport.retransmits), "count"))
      .Set("transport.rtos", Metric(static_cast<double>(transport.rtos),
                                    "count"))
      .Set("transport.retx_per_segment",
           Metric(Ratio(static_cast<double>(transport.retransmits),
                        static_cast<double>(record.min_segments)),
                  "ratio"))
      .Set("workload.flows_started", Metric(started, "count"))
      .Set("workload.flows_completed", Metric(completed, "count"))
      .Set("workload.failed_frac",
           Metric(Ratio(started - completed, started), "ratio"));
  // Counts the decorators see, for run.py's cross-checks against the
  // topology's own accounting.
  layers.Set("check",
             Json::Object()
                 .Set("core_marks", Json::UInt(ports.core_marks))
                 .Set("sched_enqueues", Json::UInt(ports.sched_enqueue.count()))
                 .Set("sched_drops", Json::UInt(ports.sched_drops)));
  return layers;
}

void WriteSpans(const std::string& path, const LayerProbes& probes) {
  Json coarse = Json::Array();
  for (const perfbench::Span& span : probes.spans()) {
    coarse.Push(Json::Object()
                    .Set("name", Json::Str(span.name))
                    .Set("parent", Json::Str(span.parent))
                    .Set("start_ns", Json::Int(span.start_ns))
                    .Set("end_ns", Json::Int(span.end_ns)));
  }
  const perfbench::PortProbe ports = probes.MergedPorts();
  Json aggregated = Json::Array();
  aggregated.Push(AggJson(ports.sched_enqueue, "sched.enqueue", "sim.run"))
      .Push(AggJson(ports.sched_dequeue, "sched.dequeue", "sim.run"))
      .Push(AggJson(ports.core_allow_enqueue, "core.allow_enqueue",
                    "sched.enqueue"))
      .Push(AggJson(ports.core_on_dequeue, "core.on_dequeue",
                    "sched.dequeue"));
  std::ofstream out(path);
  out << Json::Object()
             .Set("spans", std::move(coarse))
             .Set("aggregated", std::move(aggregated))
             .Dump();
  if (!out) {
    std::cerr << "perfbench_driver: cannot write " << path << "\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Workload> workload;
  std::optional<std::uint64_t> seed;
  bool trace = false;
  bool setup_only = false;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = perfbench::ParseWorkload(value);
      if (!workload) Usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      seed = ParseUnsigned(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--setup-only") {
      if (value != "0" && value != "1") Usage("--setup-only takes 0 or 1");
      setup_only = value == "1";
    } else if (flag == "--spans-out") {
      spans_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!workload || !seed) Usage("--workload and --seed are required");
  if (trace && setup_only) {
    Usage("--trace 1 and --setup-only 1 exclude each other");
  }
  if (trace && *workload == Workload::kFatTreeK16Lanes2) {
    Usage("fattree_k16_lanes2 runs untraced only");
  }
  const std::size_t flow_count = perfbench::DefaultFlows(*workload);

  LayerProbes probes;
  RunRecord record;
  std::size_t lanes = 1;
  switch (*workload) {
    case Workload::kDumbbellWebsearch:
      record = perfbench::RunSerial(
          perfbench::DumbbellWebsearch(*seed, flow_count),
          trace ? &probes : nullptr, setup_only);
      break;
    case Workload::kFatTreeK16:
      record = perfbench::RunSerial(perfbench::FatTreeK16(*seed, flow_count),
                                    trace ? &probes : nullptr, setup_only);
      break;
    case Workload::kFatTreeK16Lanes2:
      lanes = perfbench::kLanes;
      record = perfbench::RunRelaxed(perfbench::FatTreeK16(*seed, flow_count),
                                     lanes, setup_only);
      break;
  }
  if (setup_only) {
    std::cout << Json::Object()
                     .Set("workload",
                          Json::Str(perfbench::WorkloadName(*workload)))
                     .Set("seed", Json::UInt(*seed))
                     .Set("setup_only", Json::Bool(true))
                     .Set("build_s", Json::Num(record.phases.build_s))
                     .Set("bind_s", Json::Num(record.phases.bind_s))
                     .Dump();
    return 0;
  }

  const ecnsharp::ExperimentResult& result = record.result;
  const perfbench::Phases& phases = record.phases;
  Json out = Json::Object();
  out.Set("workload", Json::Str(perfbench::WorkloadName(*workload)))
      .Set("seed", Json::UInt(*seed))
      .Set("flows", Json::UInt(flow_count))
      .Set("trace", Json::Bool(trace))
      .Set("digest", Json::Str(perfbench::Digest(result)))
      .Set("flows_started", Json::UInt(result.flows_started))
      .Set("flows_completed", Json::UInt(result.flows_completed))
      .Set("sim_seconds", Json::Num(result.sim_seconds))
      .Set("overall_avg_us", Json::Num(result.overall.avg_us))
      .Set("bottleneck", ecnsharp::ToJson(result.bottleneck))
      .Set("build_s", Json::Num(phases.build_s))
      .Set("bind_s", Json::Num(phases.bind_s))
      .Set("run_s", Json::Num(phases.run_s))
      .Set("result_s", Json::Num(phases.result_s))
      .Set("run_cpu_s", Json::Num(record.run_cpu_s))
      .Set("lanes", Json::UInt(lanes))
      .Set("build", Json::Object()
                        .Set("compiler", Json::Str(__VERSION__))
                        .Set("build_type", Json::Str(PERFBENCH_BUILD_TYPE)));
  if (trace) {
    const perfbench::ForwardResult forward =
        perfbench::TimeForwarding(*seed, kForwardBatches, kForwardBatchSize);
    out.Set("layers", Layers(record, probes, forward));
    if (!spans_out.empty()) WriteSpans(spans_out, probes);
  }
  std::cout << out.Dump();
  return 0;
}
