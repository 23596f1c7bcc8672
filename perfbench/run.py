#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and measures one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, then:

  --trace 0  measures the workload at a few seeds derived from N (its
             instances), one process per repetition: each instance once,
             the first twice, then in turns until S seconds have passed.
             It reports the end-to-end metrics: the throughput over the
             instances in CPU seconds, the median set-up time and peak
             RSS, and the instances' mean final file count. Host times
             are scaled to a reference host speed, measured around every
             repetition. Every repetition of an instance must reproduce
             its modelled outcome.
  --trace 1  runs the traced run once and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds the full detail
(every repetition, the modelled metrics that are not end-to-end metrics, the
host's parallelism). Build output and progress go to stderr. Any failed
check prints correct=false and exits 1. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("lake-replay", "compaction-fleet", "cold-fleet", "control-plane")
# Instances (seeds) one timed run measures, by workload: the throughput of
# one instance depends on its seed by up to about 10%, so a run averages
# several. Fewer for the workloads whose repetitions take longest.
SUB_SEEDS = {"lake-replay": 4, "compaction-fleet": 3, "cold-fleet": 3,
             "control-plane": 5}
SUB_SEED_STRIDE = 1_000_003
# CPU seconds of `perfbench reference` at the nominal host speed, about its
# time on a quiet 4-vCPU host of 2.1 GHz Xeons. Host times are reported at
# that speed: the measured time over the reference's time around it, times
# this constant.
REFERENCE_S = 0.1
HOST_TIMED = ("setup_s", "events_per_s", "peak_rss_mb")
# Simulated outcomes: every repetition of a seed must reproduce them.
MODELLED = (
    "final_files",
    "compaction_gbhr",
    "read_latency_s.p50",
    "read_latency_s.p99",
    "write_latency_s.p50",
    "write_latency_s.p99",
    "failed_ops_frac",
)

# The end-to-end metrics every workload measures, never 0, and steady across
# seeds (README.md: why the other modelled metrics are per-layer).
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "final_files": "files",
}

S, COUNT, RATIO = "s", "count", "ratio"
PER_LAYER = {
    "workload.plan_s": S,
    "engine.load_s": S,
    "engine.load_files": COUNT,
    "engine.write_s": S,
    "engine.write_calls": COUNT,
    "engine.read_s": S,
    "engine.read_calls": COUNT,
    "engine.compaction_units": COUNT,
    "engine.compaction_commits": COUNT,
    "engine.compaction_retries": COUNT,
    "engine.compaction_abandoned": COUNT,
    "engine.compaction_commit_ratio": RATIO,
    "catalog.retention_s": S,
    "catalog.snapshots_expired": COUNT,
    "catalog.files_deleted": COUNT,
    "catalog.commits": COUNT,
    "storage.open_calls": COUNT,
    "storage.create_calls": COUNT,
    "storage.delete_calls": COUNT,
    "storage.timeouts": COUNT,
    "core.generate_s": S,
    "core.observe_s": S,
    "core.orient_s": S,
    "core.decide_s": S,
    "core.cycles": COUNT,
    "core.candidates": COUNT,
    "core.selected": COUNT,
    "core.index_hits": COUNT,
    "core.index_fallbacks": COUNT,
    "core.index_hit_ratio": RATIO,
    "core.selected_ratio": RATIO,
    "sim.advance_s": S,
    "sim.lane_build_s": S,
    "sim.lanes_hydrated": COUNT,
    "sim.lanes_ghosted": COUNT,
    "sim.peak_resident_lanes": COUNT,
    "sim.lanes_evicted": COUNT,
    "sim.lanes_restored": COUNT,
    "sim.lanes_retired": COUNT,
    "sim.checkpoint_bytes_peak": "bytes",
    "sim.restore_s": S,
    "sim.checkpoint_save_s": S,
    "sim.checkpoint_restore_s": S,
    "sim.checkpoint_bytes": "bytes",
    "host.effective_parallelism": RATIO,
    "trace.coverage_frac": RATIO,
    "trace.overhead_frac": RATIO,
    "trace.wall_s": S,
    "cycle_ms.p50": "ms",
    "cycle_ms.p95": "ms",
    "cycle_ms.samples": COUNT,
    "commit_ms.p50": "ms",
    "commit_ms.p99": "ms",
    "compaction_gbhr": "GBHr",
    "read_latency_s.p50": S,
    "read_latency_s.p99": S,
    "write_latency_s.p50": S,
    "write_latency_s.p99": S,
    "failed_ops_frac": RATIO,
}
MIN_COVERAGE = 0.9


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under " + ROOT)
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(os.cpu_count() or 1)

    def attempt():
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)

    try:
        attempt()
    except subprocess.CalledProcessError:
        # A cache configured for another source location cannot build here:
        # start over once from a clean build directory.
        log("perfbench: rebuilding from a clean build directory")
        shutil.rmtree(out, ignore_errors=True)
        try:
            attempt()
        except subprocess.CalledProcessError as e:
            raise BenchError("build failed: " + str(e)) from e
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        raise BenchError("build produced no perfbench binary")
    return binary


def invoke(binary, *args):
    """Runs perfbench and parses the JSON line it prints."""
    proc = subprocess.run([binary, *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    if proc.returncode != 0:
        raise BenchError("perfbench %s exited with %d"
                         % (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("perfbench %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def quantile(values, q):
    values = sorted(values)
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def sub_seeds(workload, seed):
    """The instances one timed run measures: the seed itself, then seeds a
    fixed stride apart, so runs at different seeds share none."""
    return [seed + i * SUB_SEED_STRIDE for i in range(SUB_SEEDS[workload])]


def reference_s(binary):
    return invoke(binary, "reference")["reference_s"]


def timed_run(binary, args, probe, errors):
    seeds = sub_seeds(args.workload, args.seed)
    reps = []
    start = time.monotonic()
    before = reference_s(binary)
    # The first repetition warms up: the first instance runs untimed, so
    # every run also checks that a repetition reproduces its modelled
    # outcome. Then every instance runs once, and the instances take turns
    # until the time is up.
    while (len(reps) <= len(seeds) or
           time.monotonic() - start < args.seconds):
        seed = seeds[(len(reps) - 1) % len(seeds)] if reps else seeds[0]
        rep = invoke(binary, "rep", "--workload", args.workload,
                     "--seed", str(seed))
        after = reference_s(binary)
        # The host's slowness during the repetition: the reference's CPU
        # time around it over its time at the nominal speed.
        slowness = (before + after) / 2 / REFERENCE_S
        before = after
        rep.update(seed=seed, slowness=slowness,
                   ref_timed_s=rep["timed_s"] / slowness,
                   ref_setup_s=rep["setup_s"] / slowness)
        reps.append(rep)
        log("perfbench: %s rep %d (seed %d): %.3f s, %.1f events/s (CPU), "
            "%.1f events/s (wall), slowness %.3f, setup %.3f s, %.0f MB"
            % (args.workload, len(reps), seed, rep["host_s"],
               rep["events_per_s"], rep["events"] / rep["wall_timed_s"],
               slowness, rep["setup_s"], rep["peak_rss_mb"]))

    timed = reps[1:]
    by_seed = {seed: [r for r in timed if r["seed"] == seed] for seed in seeds}
    for seed, runs in by_seed.items():
        first = reps[0] if seed == seeds[0] else runs[0]
        for rep in runs:
            if rep is first:
                continue
            if rep["modelled_hash"] != first["modelled_hash"]:
                errors.append("seed %d: modelled outcome differs between "
                              "repetitions: %s vs %s"
                              % (seed, first["modelled_hash"],
                                 rep["modelled_hash"]))
            for name in MODELLED:
                if rep[name] != first[name]:
                    errors.append("seed %d: %s differs between repetitions: "
                                  "%r vs %r" % (seed, name, first[name],
                                                rep[name]))

    events = sum(runs[0]["events"] for runs in by_seed.values())

    def rate(seconds):
        # Events over the sum of each instance's median seconds, so an
        # instance that ran more often weighs no more.
        return events / sum(statistics.median(r[seconds] for r in runs)
                            for runs in by_seed.values())

    # Host times are at the reference speed. Set-up time is the median
    # repetition's; peak RSS the median instance's; final_files the
    # instances' mean.
    values = {
        "setup_s": statistics.median(r["ref_setup_s"] for r in timed),
        "events_per_s": rate("ref_timed_s"),
        "peak_rss_mb": statistics.median(
            statistics.median(r["peak_rss_mb"] for r in runs)
            for runs in by_seed.values()),
        "final_files": statistics.mean(
            runs[0]["final_files"] for runs in by_seed.values()),
    }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": seeds,
        "reps": len(reps),
        "values": values,
        # The same rates as measured: CPU seconds and wall seconds.
        "cpu_events_per_s": rate("timed_s"),
        "wall_events_per_s": rate("wall_timed_s"),
        "measured_setup_s": statistics.median(r["setup_s"] for r in timed),
        "per_rep": {name: [r[name] for r in reps]
                    for name in ("seed", "slowness") + HOST_TIMED},
        "modelled": {str(seed): dict({name: runs[0][name]
                                      for name in MODELLED},
                                     hash=runs[0]["modelled_hash"])
                     for seed, runs in by_seed.items()},
        "host": probe,
    }
    if "cycle_ms" in reps[0]:
        cycles = [v for r in timed for v in r["cycle_ms"]]
        commits = [v for r in timed for v in r["commit_ms"]]
        detail["cycle_ms"] = {"p50": quantile(cycles, 0.50),
                              "p95": quantile(cycles, 0.95),
                              "samples": len(cycles)}
        detail["commit_ms"] = {"p50": quantile(commits, 0.50),
                               "p99": quantile(commits, 0.99),
                               "samples": len(commits)}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END.items()}
    attempted = sum(r["attempted"] for r in reps)
    return metrics, attempted, detail


def traced_run(binary, args, probe, errors):
    result = invoke(binary, "trace", "--workload", args.workload,
                    "--seed", str(args.seed))
    values = dict(result["metrics"])
    values["host.effective_parallelism"] = probe["effective_parallelism"]
    if values["trace.coverage_frac"] < MIN_COVERAGE:
        errors.append("trace.coverage_frac %.3f below %.2f"
                      % (values["trace.coverage_frac"], MIN_COVERAGE))
    missing = [name for name in PER_LAYER if name not in values]
    if missing:
        errors.append("traced run did not report " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER.items() if name in values}
    detail = {k: v for k, v in result.items() if k != "metrics"}
    detail["host"] = probe
    attempted = int(values.get("engine.write_calls", 0) +
                    values.get("engine.read_calls", 0) +
                    values.get("core.cycles", 0)) or 1
    return metrics, attempted, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
        probe = invoke(binary, "probe")
        errors = []
        # The caller blocks while the pool works, so the pool's width is
        # its worker count.
        probe["pool_oversubscribed"] = (
            probe["pool_workers"] > probe["effective_parallelism"])
        if probe["pool_oversubscribed"]:
            log("perfbench: warning: pool of %d workers is wider than the "
                "host's effective parallelism %.2f"
                % (probe["pool_workers"], probe["effective_parallelism"]))
        run = traced_run if args.trace else timed_run
        metrics, attempted, detail = run(binary, args, probe, errors)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 1

    for error in errors:
        log("perfbench: check failed: " + error)
    detail["errors"] = errors
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": 0, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
