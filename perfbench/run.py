#!/usr/bin/env python3
"""Repo benchmark: builds the workload binary, runs a workload, prints metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness [--runs N] [--seconds S] [--out FILE]
    python3 perfbench/run.py --compare FIRST.json SECOND.json

Run from the repository root. The first call configures and builds
perfbench/ (and through it the simulator's libraries) into .bench_build/.

A run repeats the workload, each repetition in a fresh process,
until --seconds of host time have passed (at least MIN_REPS times), and
reports medians. With --trace 0 it prints the end-to-end metrics of the
untraced repetitions; with --trace 1 it alternates untraced and traced
repetitions and prints the per-layer metrics. Every repetition's output
checks must pass and every repetition of one seed must deliver the same
completions; otherwise the run prints `"correct": false` and exits 1.

--steadiness runs every workload --runs times with distinct seeds and
prints, per metric, the median, quartiles and interquartile spread,
with a host fingerprint (nproc, load average before and after, compiler,
build type). --compare reads two such reports and checks, per workload
and end-to-end metric, that each spread and the change of the median
from the first report to the second stay within BENCHMARK.json's bound.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_BIN = os.path.join(BUILD, "perfbench_workload")
BUILD_TYPE = "Release"
MIN_REPS = 3
REP_TIMEOUT_S = 120

WORKLOADS = ("ring_scored", "fed_openloop", "sessions_failover")
SHARDED = ("fed_openloop",)
SCORED = ("ring_scored",)

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_goodput_per_s": "1/s",
    "ok_frac": "frac",
}

# Host-time metrics: medians over repetitions. Everything else a
# repetition reports is simulated, hence identical across repetitions.
HOST_METRICS = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                "setup.build_s", "setup.deploy_s", "setup.warm_s")

LAT_SPANS = ("session", "gather", "merge", "query", "inject", "failover",
             "doc", "stage_fe", "stage_ffe0", "stage_ffe1", "stage_compress",
             "stage_score0", "stage_score1", "stage_score2", "dma_response")

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_req": "count",
    "sim.ns_per_event": "ns",
    "sim.group.rounds": "count",
    "sim.group.round_items": "count",
    "sim.group.messages": "count",
    "sim.group.events_per_round": "count",
    "sim.group.mean_epoch_us": "us",
    "sim.group.par2_wall_s": "s",
    "sim.group.par2_speedup": "x",
    "rank.fe_ns_per_doc": "ns",
    "rank.ffe_ns_per_doc": "ns",
    "rank.compress_ns_per_doc": "ns",
    "rank.score_ns_per_doc": "ns",
    "rank.host_share": "frac",
    "rank.model_switches": "count",
    "shell.router_packets": "count",
    "shell.sl3_flits": "count",
    "shell.sl3_drops": "count",
    "shell.pcie_transactions": "count",
    "shell.dma_transfers": "count",
    "shell.fdr_records": "count",
    "host.slot_dma_sends": "count",
    "host.timeouts": "count",
    "service.injected": "count",
    "service.completed": "count",
    "service.failovers": "count",
    "service.rejected": "count",
    "service.partial": "count",
    "service.stragglers": "count",
    "service.refused": "count",
    "setup.build_s": "s",
    "setup.deploy_s": "s",
    "setup.warm_s": "s",
    "mgmt.reattach_sim_ms": "ms",
    "mgmt.faults_classified": "count",
    "mgmt.reboots": "count",
    "log.lines": "count",
    "obs.trace_overhead_frac": "frac",
    "obs.export_s": "s",
    "obs.spans": "count",
    "sim.samples": "count",
}
for _span in LAT_SPANS:
    PER_LAYER[f"lat.{_span}_self_p50_us"] = "us"
    PER_LAYER[f"lat.{_span}_self_p99_us"] = "us"

# Simulated outputs that every repetition of one seed, traced or not and
# lock-step or parallel, must reproduce exactly.
DETERMINISTIC = ("digest", "attempted", "answered", "ok", "sim_p50_us",
                 "sim_p99_us", "sim_goodput_per_s", "ok_frac")


class BenchError(Exception):
    pass


def build():
    """Configure once, then let the build tool bring the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no repository sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_rep(workload, seed, mode, replay=False):
    """One repetition in a fresh process: its values and stderr line count."""
    cmd = [WORKLOAD_BIN, workload, str(seed), mode]
    if replay:
        cmd.append("replay")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} {mode}: perfbench_workload printed "
                         f"nothing (exit {proc.returncode})")
    out = json.loads(lines[-1])
    values = out["values"]
    values["log.lines"] = float(len(proc.stderr.splitlines()))
    failures = list(out["failures"])
    if proc.returncode != 0 and not failures:
        failures.append(f"exit code {proc.returncode}")
    return values, failures


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """The repetitions of one run and the checks across them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.reps = {"plain": [], "traced": [], "par2": []}
        self.failures = []

    def rep(self, mode, replay=False):
        values, failures = run_rep(self.workload, self.seed, mode, replay)
        self.failures += [f"{mode}: {f}" for f in failures]
        self.reps[mode].append(values)

    def check_deterministic(self):
        reference = self.reps["plain"][0]
        for mode, reps in self.reps.items():
            for values in reps:
                for key in DETERMINISTIC:
                    if values.get(key) != reference.get(key):
                        self.failures.append(
                            f"{mode} repetition differs in {key}: "
                            f"{values.get(key)} != {reference.get(key)}")
                events = (values["sim.events"] -
                          values.get("obs.tick_events", 0))
                if events != reference["sim.events"]:
                    self.failures.append(
                        f"{mode} repetition fired {events} simulator events, "
                        f"untraced fired {reference['sim.events']}")

    def host_median(self, mode, key):
        return median([v[key] for v in self.reps[mode] if key in v])


def measure(workload, seed, seconds, trace):
    """Repeat the workload for `seconds`; returns the Run."""
    run = Run(workload, seed)
    start = time.monotonic()
    # The first untraced repetition of a scored workload also replays
    # every delivered score through rank::RankingFunction (checked bit
    # for bit); the rest are checked against its completion digest.
    run.rep("plain", replay=workload in SCORED)
    if trace:
        run.rep("traced")
        if workload in SHARDED:
            run.rep("par2")
    count = 1
    while count < MIN_REPS or time.monotonic() - start < seconds:
        run.rep("plain")
        if trace:
            run.rep("traced")
        count += 1
    run.check_deterministic()
    return run


def end_to_end_metrics(run):
    plain = run.reps["plain"]
    first = plain[0]
    metrics = {}
    for name, unit in END_TO_END.items():
        value = run.host_median("plain", name) if name in HOST_METRICS \
            else first[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer_metrics(run):
    first = run.reps["plain"][0]
    traced = run.reps["traced"][0]
    wall = run.host_median("plain", "wall_s")
    # The replay runs in the first repetition's process, right after its
    # timed phase; its share of that repetition's wall time is the
    # least noisy estimate of the rank layer's share.
    rank_share = first.get("rank.host_share", 0.0)
    values = {}
    for name in PER_LAYER:
        if name.startswith(("lat.", "obs.")):
            values[name] = traced.get(name, 0.0)
        elif name in HOST_METRICS:
            values[name] = run.host_median("plain", name)
        else:
            values[name] = first.get(name, 0.0)
    values["sim.samples"] = first["sim_samples"]
    values["obs.export_s"] = run.host_median("traced", "obs.export_s")
    traced_wall = run.host_median("traced", "wall_s")
    values["obs.trace_overhead_frac"] = \
        traced_wall / wall - 1.0 if wall else 0.0
    # Host time inside the simulator that no outside timer can split
    # further: what is left of wall_s after the measured rank work,
    # divided by the events fired. Where rank does nearly all the work
    # the remainder is within the replay's timing error and can read
    # below zero.
    events = first["sim.events"]
    values["sim.ns_per_event"] = \
        wall * (1.0 - rank_share) * 1e9 / events if events else 0.0
    if run.reps["par2"]:
        par2 = run.reps["par2"][0]["wall_s"]
        values["sim.group.par2_wall_s"] = par2
        values["sim.group.par2_speedup"] = traced_wall / par2 if par2 else 0.0
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def result_line(run, trace):
    plain = run.reps["plain"]
    attempted = int(sum(v["attempted"] for v in plain))
    failed = int(sum(v["attempted"] - v["answered"] for v in plain))
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    return {"correct": not run.failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tool_version(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True).stdout
        return out.splitlines()[0] if out else "unknown"
    except OSError:
        return "unknown"


def fingerprint():
    compiler = "unknown"
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        for line in open(cache):
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = tool_version([line.split("=", 1)[1].strip(),
                                         "--version"])
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "machine": platform.machine(), "compiler": compiler,
            "build_type": BUILD_TYPE}


def steadiness(runs, seconds, first_seed, out_path):
    report = {"host_before": fingerprint(), "seconds": seconds,
              "runs": runs, "first_seed": first_seed, "workloads": {},
              "repetition_wall_s": {}}
    for workload in WORKLOADS:
        per_metric = {}
        rep_walls = report["repetition_wall_s"][workload] = []
        for i in range(runs):
            run = measure(workload, first_seed + i, seconds, trace=False)
            line = result_line(run, trace=False)
            if not line["correct"]:
                raise BenchError(f"{workload} seed {first_seed + i}: "
                                 f"{run.failures}")
            for name, m in line["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            rep_walls.append([v["wall_s"] for v in run.reps["plain"]])
            print(f"{workload} seed {first_seed + i}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in line["metrics"].items()),
                file=sys.stderr)
        summary = {}
        for name, values in per_metric.items():
            q1, q2, q3 = quartiles(values)
            summary[name] = {"median": q2, "q1": q1, "q3": q3,
                             "iqr_share": (q3 - q1) / q2 if q2 else 0.0,
                             "values": values}
        report["workloads"][workload] = summary
    report["host_after"] = fingerprint()
    text = json.dumps(report, indent=1)
    if out_path:
        with open(out_path, "w") as f:
            f.write(text + "\n")
    for workload, summary in report["workloads"].items():
        print(f"{workload}:")
        for name, s in summary.items():
            print(f"  {name:18s} median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}  iqr {100 * s['iqr_share']:.2f}%")
    print(json.dumps({"host_before": report["host_before"],
                      "host_after": report["host_after"]}))


def compare(first_path, second_path):
    """Two steadiness reports agree when every spread but setup_s's, and
    every move of a median in the worse direction, is within its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)["workloads"]
    with open(second_path) as f:
        second = json.load(f)["workloads"]
    agree = True
    for workload in WORKLOADS:
        print(f"{workload}:")
        for name, m in spec.items():
            a, b = first[workload][name], second[workload][name]
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (b["median"] - a["median"]) / a["median"] \
                if a["median"] else 0.0
            spread = max(a["iqr_share"], b["iqr_share"])
            ok = worse <= m["bound"] and (name == "setup_s" or
                                         spread <= m["bound"])
            agree = agree and ok
            print(f"  {name:18s} {a['median']:.6g} -> {b['median']:.6g}"
                  f"  worse {100 * worse:+.2f}%  spread {100 * spread:.2f}%"
                  f"  bound {100 * m['bound']:.0f}%  {'ok' if ok else 'FAIL'}")
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="REPORT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.steadiness and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.steadiness:
            steadiness(args.runs, args.seconds, args.seed, args.out)
            return 0
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    line = result_line(run, args.trace)
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    first = run.reps["plain"][0]
    print(f"{args.workload} seed {args.seed}: "
          f"{len(run.reps['plain'])} untraced repetitions, "
          f"{int(first['sim_samples'])} latency samples each, "
          f"latency limit {first['sim_limit_us']:g} us")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
