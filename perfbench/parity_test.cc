// Parity test of the benchmark's compositions, at reduced flow counts.
//
//  1. The phase-timed serial composition returns an ExperimentResult
//     identical to RunDumbbell / RunFatTree for the same config.
//  2. The traced serial run — disc and AQM decorators plus transport
//     tracers attached — returns the same result as the untraced one.
//  3. The timed laned run returns the same result as RunFatTreeRelaxed.
//  4. The decorators see every packet: their CE-mark count equals the
//     topology's, and their enqueue calls cover every enqueue and drop.
//
// Results are compared through their full JSON serialization. Exits 1 on
// the first mismatch.
#include <cstdlib>
#include <iostream>
#include <string>

#include "harness/config_json.h"
#include "harness/relaxed_lanes.h"
#include "probes.h"
#include "workloads.h"

namespace {

using ecnsharp::ExperimentResult;

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

void ExpectSame(const ExperimentResult& a, const ExperimentResult& b,
                const std::string& what) {
  Check(ecnsharp::ToJson(a).Dump() == ecnsharp::ToJson(b).Dump() &&
            perfbench::Digest(a) == perfbench::Digest(b),
        what);
}

void ExpectProbesSawEverything(const perfbench::LayerProbes& probes,
                               const ExperimentResult& result,
                               const std::string& what) {
  const perfbench::PortProbe ports = probes.MergedPorts();
  const ecnsharp::QueueDiscStats& stats = result.bottleneck;
  Check(ports.core_marks == stats.ce_marked,
        what + ": decorator CE marks == topology CE marks");
  Check(ports.sched_enqueue.count() ==
            stats.enqueued + stats.dropped_overflow + stats.dropped_aqm,
        what + ": decorator enqueues == enqueued + dropped");
  Check(ports.sched_drops == stats.dropped_overflow + stats.dropped_aqm,
        what + ": decorator drops == topology drops");
  Check(probes.MergedStacks().rtt_samples > 0,
        what + ": transport tracers saw RTT samples");
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 3;

  {
    const auto config = perfbench::DumbbellWebsearch(kSeed, 400);
    const ExperimentResult reference = ecnsharp::RunDumbbell(config);
    Check(reference.flows_completed == 400, "dumbbell: all flows complete");
    ExpectSame(perfbench::RunSerial(config, nullptr).result, reference,
               "dumbbell: phased composition == RunDumbbell");
    perfbench::LayerProbes probes;
    const perfbench::RunRecord traced = perfbench::RunSerial(config, &probes);
    ExpectSame(traced.result, reference, "dumbbell: traced == untraced");
    ExpectProbesSawEverything(probes, traced.result, "dumbbell");
    Check(traced.result.bottleneck.ce_marked > 0,
          "dumbbell: the ECN# standing queue is marked");
  }

  {
    const auto config = perfbench::FatTreeK16(kSeed, 150);
    const ExperimentResult reference = ecnsharp::RunFatTree(config);
    Check(reference.flows_completed == 150, "fattree: all flows complete");
    ExpectSame(perfbench::RunSerial(config, nullptr).result, reference,
               "fattree: phased composition == RunFatTree");
    perfbench::LayerProbes probes;
    const perfbench::RunRecord traced = perfbench::RunSerial(config, &probes);
    ExpectSame(traced.result, reference, "fattree: traced == untraced");
    ExpectProbesSawEverything(probes, traced.result, "fattree");
  }

  {
    const auto config = perfbench::FatTreeK16(kSeed, 150);
    const ExperimentResult reference =
        ecnsharp::RunFatTreeRelaxed(config, perfbench::kLanes);
    Check(reference.flows_completed == 150, "lanes: all flows complete");
    ExpectSame(perfbench::RunRelaxed(config, perfbench::kLanes).result,
               reference, "lanes: timed run == RunFatTreeRelaxed");
  }

  std::cout << (failures == 0 ? "all parity checks passed\n"
                              : "parity checks FAILED\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
