#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds perfbench/ (and the
simulator sources under src/) into .bench_build/; later runs only check that
the build is current. Each simulation runs in a fresh perfbench_driver
process. Run seed s stands for the INPUTS inputs drawn with simulator seeds
s*INPUTS .. s*INPUTS+INPUTS-1; the run cycles through them until --seconds
have passed, so every input runs at least once and most run more than once:

  --trace 0  end-to-end metrics: hops_per_s, cpu_ns_per_hop, peak_rss_mb
             (each input's median, averaged over the inputs), setup_s
             (median, also sampled from several set-up-only processes)
  --trace 1  per-layer metrics (medians), from traced simulations
             alternating with untraced ones (the untraced run time is
             reported beside the traced one, so the tracing overhead is on
             record); fattree_k16 also runs each input on 2 lanes

Simulations of one input must agree on their model-output digest, and with
perfbench/digests.json where that file records the simulator seed. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics.
A run record (all samples, machine and build provenance) is written to
.bench_build/records/, and a traced run's spans beside it.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
RECORD_DIR = os.path.join(ROOT, ".bench_build", "records")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")

WORKLOADS = ("dumbbell_websearch", "fattree_k16")
# The traced run of a workload with a laned runner also runs the same inputs
# through it (untraced: the relaxed runner rejects observers), for the
# sim.lanes.* metrics and the laned digest check.
LANED = {"fattree_k16": "fattree_k16_lanes2"}
# Inputs per run seed. Per-hop cost differs between inputs (one fattree_k16
# input ran ~15% slower per hop than others, repeatably); cycling through
# several inputs keeps one draw from setting a run's median.
INPUTS = 4
MIN_SIMULATIONS = INPUTS   # untraced simulations per --trace 0 run
SETUP_SAMPLES_PER_SIMULATION = 4  # set-up-only processes after each one
CHILD_TIMEOUT_S = 150      # one simulation; the whole run stays under 180 s
RUN_BUDGET_S = 160         # no new simulation starts past this point


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def fail(message, code=1):
    log(message)
    sys.exit(code)


def build():
    """Configures (once) and builds perfbench_driver; build output goes to
    stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", code=2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found", code=2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "perfbench_driver"],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def run_driver(args):
    """Runs one driver process; returns (parsed stdout, wall s, rusage)."""
    start = time.monotonic()
    proc = subprocess.Popen([DRIVER] + args, stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        fail(f"driver {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out), wall, usage


def metric(value, unit):
    return {"value": value, "unit": unit}


def load_digests():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


class Checker:
    """Correctness of a run: every simulation completes every flow, agrees
    on the digest with the other simulations of its workload and input, and
    with the recorded one if any."""

    def __init__(self):
        recorded = load_digests()
        self.flows = recorded["flows"]
        self.expected = recorded["digests"]
        self.seen = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0

    def add(self, sim):
        started, completed = sim["flows_started"], sim["flows_completed"]
        self.attempted += started
        ok = True
        workload, flows = sim["workload"], self.flows[sim["workload"]]
        if sim["flows"] != flows or started != flows:
            self.errors.append(f"{workload}: started {started} of {flows} "
                               "flows")
            ok = False
        if not (sim["sim_seconds"] > 0 and math.isfinite(sim["overall_avg_us"])
                and sim["overall_avg_us"] > 0):
            self.errors.append("degenerate FCT summary")
            ok = False
        seed = str(sim["seed"])
        seen = self.seen.setdefault((workload, seed), sim["digest"])
        if sim["digest"] != seen:
            self.errors.append(f"{workload} seed {seed}: digest "
                               f"{sim['digest']} != {seen} within one run")
            ok = False
        expected = self.expected.get(workload, {}).get(seed)
        if expected is not None and sim["digest"] != expected:
            self.errors.append(f"{workload} seed {seed}: digest "
                               f"{sim['digest']} != recorded {expected}")
            ok = False
        # A wrong model output fails every flow of that simulation.
        self.failed += started if not ok else started - completed
        if completed != started:
            self.errors.append(f"completed {completed} of {started} flows")
        layers = sim.get("layers")
        if layers is not None:
            stats, seen = sim["bottleneck"], layers["check"]
            if layers["net.no_route_drops"]["value"] != 0:
                self.errors.append("packets dropped for lack of a route")
            if seen["core_marks"] != stats["ce_marked"]:
                self.errors.append("AQM decorator missed CE marks")
            if seen["sched_enqueues"] != (stats["enqueued"] +
                                          stats["dropped_overflow"] +
                                          stats["dropped_aqm"]):
                self.errors.append("disc decorator missed enqueues")

    @property
    def correct(self):
        return not self.errors


def driver_args(workload, seed, i, trace=0):
    """Arguments of the i-th simulation of run seed `seed`."""
    return ["--workload", workload, "--seed", str(seed * INPUTS + i % INPUTS),
            "--trace", str(trace)]


def hops(sim):
    """Switch-hop dequeues: the packet work a simulation did. The model
    fixes it, so it is part of the digest."""
    return sim["bottleneck"]["dequeued"]


def sim_to_wall(sim):
    return sim["sim_seconds"] / (sim["run_s"] + sim["result_s"])


def hops_per_s(sim):
    return hops(sim) / (sim["run_s"] + sim["result_s"])


def per_input(sims, value):
    """Mean over the run's inputs of each input's median `value`, so an
    input that ran more often than the others does not weigh more."""
    by_seed = {}
    for sim in sims:
        by_seed.setdefault(sim["seed"], []).append(value(sim))
    return statistics.mean(statistics.median(v) for v in by_seed.values())


def end_to_end(workload, seed, seconds, checker, record):
    sims, setups = [], []
    start = time.monotonic()
    while True:
        args = driver_args(workload, seed, len(sims))
        sim, wall, usage = run_driver(args)
        checker.add(sim)
        sim["cpu_s"] = usage.ru_utime + usage.ru_stime
        sim["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB
        sim["process_wall_s"] = wall
        sim["cpu_share"] = sim["cpu_s"] / wall
        sims.append(sim)
        setups.append(sim["build_s"] + sim["bind_s"])
        # Cold set-up samples spread over the whole run, so the median sees
        # more than one moment of the machine's load.
        for _ in range(SETUP_SAMPLES_PER_SIMULATION):
            sample, _, _ = run_driver(args + ["--setup-only", "1"])
            setups.append(sample["build_s"] + sample["bind_s"])
        elapsed = time.monotonic() - start
        if len(sims) >= MIN_SIMULATIONS and elapsed >= seconds:
            break
        if elapsed + wall > RUN_BUDGET_S:
            break
    record["simulations"] = sims
    record["setup_samples_s"] = setups
    record["sim_to_wall"] = statistics.median(sim_to_wall(s) for s in sims)
    return {
        "hops_per_s": metric(per_input(sims, hops_per_s), "1/s"),
        "cpu_ns_per_hop": metric(per_input(
            sims, lambda s: s["cpu_s"] * 1e9 / hops(s)), "ns"),
        "peak_rss_mb": metric(per_input(
            sims, lambda s: s["peak_rss_mb"]), "MB"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def per_layer(workload, seed, seconds, checker, record):
    os.makedirs(RECORD_DIR, exist_ok=True)
    spans = os.path.join(RECORD_DIR, f"{workload}-seed{seed}-spans.json")
    traced, untraced, laned = [], [], []
    start = time.monotonic()
    while True:
        i = len(traced)
        sim, wall, _ = run_driver(driver_args(workload, seed, i, trace=1) +
                                  ["--spans-out", spans])
        checker.add(sim)
        traced.append(sim)
        sim, wall2, _ = run_driver(driver_args(workload, seed, i))
        checker.add(sim)
        untraced.append(sim)
        if workload in LANED:
            sim, wall3, _ = run_driver(driver_args(LANED[workload], seed, i))
            checker.add(sim)
            laned.append(sim)
            wall2 += wall3
        elapsed = time.monotonic() - start
        if elapsed >= seconds or elapsed + wall + wall2 > RUN_BUDGET_S:
            break
    record["simulations"] = traced + untraced + laned
    names = [n for n in traced[0]["layers"] if n != "check"]
    metrics = {}
    for name in names:
        metrics[name] = metric(
            statistics.median([s["layers"][name]["value"] for s in traced]),
            traced[0]["layers"][name]["unit"])
    run_untraced = statistics.median([s["run_s"] for s in untraced])
    metrics["sim.run_untraced_s"] = metric(run_untraced, "s")
    metrics["sim.sim_to_wall"] = metric(
        statistics.median(sim_to_wall(s) for s in untraced), "ratio")
    metrics["sim.trace_overhead"] = metric(
        metrics["sim.run_s"]["value"] / run_untraced, "ratio")
    # The laned runs where the workload has them, else the serial run as
    # one lane.
    lane_sims = laned or untraced
    metrics["sim.lanes.cpu_share"] = metric(statistics.median(
        s["run_cpu_s"] / (s["run_s"] * s["lanes"]) for s in lane_sims),
        "ratio")
    metrics["sim.lanes.hops_per_s"] = metric(
        statistics.median(hops_per_s(s) for s in lane_sims), "1/s")
    log(f"traced sim.run_s {metrics['sim.run_s']['value']:.3f} s vs "
        f"untraced {run_untraced:.3f} s "
        f"(overhead x{metrics['sim.trace_overhead']['value']:.3f})")
    return metrics


def provenance():
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        info["git_describe"] = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10).stdout.strip() or \
            "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        info["git_describe"] = "unknown (git unavailable)"
    return info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    checker = Checker()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        metrics = per_layer(args.workload, args.seed, args.seconds, checker,
                            record)
    else:
        metrics = end_to_end(args.workload, args.seed, args.seconds, checker,
                             record)
    for error in checker.errors:
        log(f"INCORRECT: {error}")

    first = record["simulations"][0]
    record.update(provenance())
    record["build"] = first["build"]
    record["metrics"] = metrics
    record["correct"] = checker.correct
    os.makedirs(RECORD_DIR, exist_ok=True)
    path = os.path.join(RECORD_DIR, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)

    print(json.dumps({"correct": checker.correct,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
