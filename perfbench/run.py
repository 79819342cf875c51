"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload a1_hot --seed 1 --seconds 30 --trace 0

One repetition builds one subrun's system from its sub-seed, runs the
fixed plan to quiescence and runs its checkers.  A run cycles through the
workload's subruns (sub-seeds of ``--seed``) until ``--seconds`` have
passed, at least once.  Simulated-time metrics pool the subruns and are
exact for a seed.  Host-time metrics are medians over the repetitions,
scaled by the host's current speed as :func:`calibrate` measures it,
because this kind of shared host drifts by a fifth between runs minutes
apart.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics, including ``trace.overhead``, the traced-to-untraced span ratio.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a checker fails, when two repetitions of a subrun deliver in
different orders or reach different simulated-time metrics, or when
the traced self times do not add up to the traced span.  Metric names
and units are read from ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# The simulator is imported from the sources of the checkout that holds
# this benchmark.
sys.path.insert(0, SRC)

import layers  # noqa: E402
import workloads  # noqa: E402


def _units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


#: What :func:`calibrate` takes on the reference host (a shared 2-CPU
#: x86-64 container, Python 3.11).  Host-time metrics are scaled to that
#: host's speed.
REFERENCE_CALIBRATION_S = 0.04


def calibrate() -> float:
    """Seconds a fixed pure-Python event loop takes on this host now.

    The loop never changes with the program, so the ratio of two
    calibrations is the host's speed drift between them.  It is timed
    just before every repetition, whose host-time figures it scales.
    """
    n = 8000
    rng = random.Random(0)
    t0 = time.perf_counter()
    heap = [(rng.random(), i) for i in range(n)]
    heapq.heapify(heap)
    counts = {}
    while heap:
        at, i = heapq.heappop(heap)
        counts[i % 97] = counts.get(i % 97, 0) + 1
        if i < 2 * n:
            heapq.heappush(heap, (at + rng.random(), i + n))
    return time.perf_counter() - t0


def one_repetition(workload: str, seed: int, traced: bool,
                   scale: float = 1.0) -> dict:
    """Build, run and check the workload once; returns its figures."""
    gc.collect()
    # > 1 while this host runs faster than the reference host.
    speed = REFERENCE_CALIBRATION_S / calibrate()
    build = workloads.WORKLOADS[workload]
    tracer = layers.Tracer() if traced else None
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        prepared = build(seed, traced, scale)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.profiler = prepared.system.profiler
        verdicts = workloads.run(prepared)
        t2 = time.perf_counter()
    result = workloads.outcome(prepared)
    rep = {"subseed": seed, "speed": speed, "setup_s": t1 - t0,
           "span_s": t2 - t1, "verdicts": verdicts, "outcome": result}
    if traced:
        times, problem = layers.self_times(prepared.system.profiler, t2 - t1)
        if problem is not None:
            verdicts["trace"] = f"FAIL: {problem}"
        rep["layers"] = dict(times, **layers.layer_counts(
            prepared, result.completed, len(tracer.decisions)))
        rep["layers"]["workload.plan_s"] = tracer.plan_s
    return rep


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0) -> dict:
    """Cycle through the workload's subruns for ``seconds`` (at least
    one full cycle); returns the run's result."""
    subseeds = workloads.subseeds(workload, seed)
    deadline = time.perf_counter() + seconds
    first = {}  # subseed -> the outcome of its first repetition
    reps, failures = [], set()
    attempted = failed = cycled = 0
    while cycled < len(subseeds) or time.perf_counter() < deadline:
        subseed = subseeds[cycled % len(subseeds)]
        cycled += 1
        for traced in ((False, True) if trace else (False,)):
            rep = one_repetition(workload, subseed, traced, scale)
            result = rep.pop("outcome")
            if first.setdefault(subseed, result) != result:
                failures.add(f"subrun {subseed} behaved differently on "
                             f"repetition")
            failures.update(f"{name}: {verdict}"
                            for name, verdict in rep["verdicts"].items()
                            if verdict != "ok")
            rep["ops_per_s"] = result.completed / rep["span_s"]
            attempted += result.attempted
            failed += result.failed
            reps.append(rep)
    plain = [rep for rep in reps if "layers" not in rep]
    traced = [rep for rep in reps if "layers" in rep]
    outcomes = [first[subseed] for subseed in subseeds]
    median = statistics.median
    if trace:
        metrics = {name: statistics.fmean(rep["layers"][name]
                                          for rep in traced)
                   for name in traced[0]["layers"]}
        metrics["trace.overhead"] = (sum(rep["span_s"] for rep in traced)
                                     / sum(rep["span_s"] for rep in plain))
    else:
        metrics = workloads.pooled_metrics(outcomes)
        # Each repetition is scaled by the calibration timed just before
        # it: the host's speed drifts within a run, too.
        metrics["ops_per_s"] = median(r["ops_per_s"] / r["speed"]
                                      for r in plain)
        metrics["setup_s"] = median(r["setup_s"] * r["speed"] for r in plain)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024.0)
    digest = hashlib.sha256()
    for result in outcomes:
        digest.update(result.digest.encode())
    return {
        "correct": not failures,
        "failures": sorted(failures),
        "attempted": attempted,
        "failed": failed,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "host_speed": median(rep["speed"] for rep in reps),
        "digest": digest.hexdigest(),
        "failed_ops_frac": (sum(o.failed for o in outcomes)
                            / sum(o.attempted for o in outcomes)),
        "metrics": metrics,
    }


def environment(seed: int) -> dict:
    """The stamp every result carries: host, interpreter, code, seed."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    source = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(base, name), "rb") as fh:
                source.update(name.encode() + fh.read())
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "commit": commit, "src_sha256": source.hexdigest(), "seed": seed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")
    units = _units("per_layer" if args.trace else "end_to_end")
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        result["correct"] = False
        result["failures"].append(f"metrics not measured: {missing}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"host speed {result['host_speed']:.3f} x reference (median; "
          f"host-time metrics are scaled to the reference)")
    print(f"workload {args.workload}: repetitions {result['repetitions']}, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ops_frac {result['failed_ops_frac']:g}")
    print(f"digest {result['digest']}")
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    for name, unit in units.items():
        print(f"  {name:<34} {result['metrics'].get(name, float('nan')):>14.6g}"
              f"  {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                    if name in result["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
