"""The benchmark's three workloads, built through the public construction path.

Every workload goes ``ScenarioSpec`` -> ``build_scenario_system`` ->
``run_quiescent`` -> checkers.  Parameters come from ``design.json``;
``scale`` shortens a workload's arrival window and exists for the
self-tests only.

Cast plans are generated here from the benchmark seed and handed to the
system with explicit message ids: auto ids come from a process-wide
counter, so two repetitions in one process would otherwise name casts
differently.  The store's transaction plan is generated by
``StoreCluster.attach`` from the system's seeded ``store-wl`` stream, so
it too is a function of the seed alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.adversary.spec import AdversarySpec, InjectorSpec
from repro.campaigns.runner import build_scenario_system, run_checkers
from repro.campaigns.spec import (
    CrashSpec,
    LatencySpec,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.runtime.report import RunReport, percentile
from repro.store.spec import StoreSpec
from repro.workload.generators import poisson_workload, uniform_k_groups

DESIGN_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "design.json")

#: The cast plan is scheduled by the benchmark, not by the spec.
NO_CASTS = WorkloadSpec(kind="periodic", count=0)

MAX_EVENTS = 50_000_000


@dataclass
class Prepared:
    """One built system with its whole plan scheduled."""

    system: object
    spec: ScenarioSpec
    #: The a1_hot streaming property checker (finalized after the run).
    streaming: Optional[object] = None


@functools.lru_cache(maxsize=None)
def design() -> dict:
    """The benchmark's design record (workload configs, metric table)."""
    with open(DESIGN_FILE) as fh:
        return json.load(fh)


def _config(name: str) -> dict:
    return design()["workloads"][name]["config"]


def subseeds(name: str, seed: int) -> List[int]:
    """The seeds of the workload's subruns, derived from ``seed``."""
    return [seed * 1000 + i for i in range(_config(name)["subruns"])]


def _schedule_casts(system, plans) -> None:
    for i, plan in enumerate(plans):
        system.cast_at(plan.time, plan.sender, plan.dest_groups,
                       payload=i, mid=f"m{i:06d}")


def build_a1_hot(seed: int, profile: bool, scale: float = 1.0) -> Prepared:
    cfg = _config("a1_hot")
    spec = ScenarioSpec(name="a1_hot", protocol=cfg["protocol"],
                        group_sizes=tuple(cfg["group_sizes"]),
                        workload=NO_CASTS, checkers=(), profile=profile)
    system, _, _ = build_scenario_system(spec, seed)
    streaming = system.install_streaming_checker()
    plans = plan_casts(system, seed, cfg["rate"], cfg["duration"] * scale,
                       uniform_k_groups(cfg["dest_groups"]))
    _schedule_casts(system, plans)
    return Prepared(system, spec, streaming)


def build_store_rebalance(seed: int, profile: bool,
                          scale: float = 1.0) -> Prepared:
    cfg = _config("store_rebalance")
    store = dict(cfg["store"])
    store["duration"] *= scale
    spec = ScenarioSpec(
        name="store_rebalance", protocol=cfg["protocol"],
        group_sizes=tuple(cfg["group_sizes"]), store=StoreSpec(**store),
        checkers=("properties", "serializability", "convergence",
                  "reconfig"),
        profile=profile,
    )
    system, _, _ = build_scenario_system(spec, seed)
    return Prepared(system, spec)


def build_a2_wan_lossy(seed: int, profile: bool,
                       scale: float = 1.0) -> Prepared:
    cfg = _config("a2_wan_lossy")
    duration = cfg["duration"] * scale
    # Channel faults stop when arrivals do, so the stabilization checker
    # has a fault-free suffix to certify.
    adversary = AdversarySpec(name="a2_wan_lossy", injectors=tuple(
        InjectorSpec(kind=kind, params=(("probability", cfg[kind]),
                                        ("until", duration)))
        for kind in ("drop", "duplicate", "corrupt")))
    spec = ScenarioSpec(
        name="a2_wan_lossy", protocol=cfg["protocol"],
        group_sizes=tuple(cfg["group_sizes"]),
        latency=LatencySpec.wan(**cfg["latency"]),
        workload=NO_CASTS,
        crashes=CrashSpec(kind="random-minority", window=duration,
                          probability=1.0),
        transport="reliable", detector="heartbeat",
        heartbeat_period=cfg["heartbeat_period"],
        heartbeat_timeout=cfg["heartbeat_timeout"],
        heartbeat_horizon=duration + cfg["heartbeat_tail"],
        start_rounds=True, checkers=("properties", "stabilization"),
        profile=profile,
    )
    system, _, _ = build_scenario_system(spec, seed, adversary=adversary)
    plans = plan_casts(system, seed, cfg["rate"], duration, None)
    _schedule_casts(system, plans)
    return Prepared(system, spec)


def plan_casts(system, seed: int, rate: float, duration: float,
               destinations) -> List:
    """The seeded Poisson cast plan (a layer of its own when traced)."""
    return poisson_workload(system.topology, random.Random(seed),
                            rate=rate, duration=duration,
                            destinations=destinations)


WORKLOADS: Dict[str, Callable[..., Prepared]] = {
    "a1_hot": build_a1_hot,
    "store_rebalance": build_store_rebalance,
    "a2_wan_lossy": build_a2_wan_lossy,
}


# ----------------------------------------------------------------------
# Running and checking
# ----------------------------------------------------------------------
def run(prepared: Prepared) -> Dict[str, str]:
    """Run to quiescence, then every checker; map each to "ok" or
    "FAIL: <why>"."""
    system = prepared.system
    try:
        system.run_quiescent(max_events=MAX_EVENTS)
    except AssertionError as exc:  # a streaming checker fired mid-run
        return {"streaming": f"FAIL: {exc}"}
    profiler = system.profiler
    if profiler is not None:
        profiler.push("checkers")
    try:
        verdicts = run_checkers(system, prepared.spec)
        if prepared.streaming is not None:
            try:
                prepared.streaming.finalize()
                verdicts["properties"] = "ok"
            except AssertionError as exc:
                verdicts["properties"] = f"FAIL: {exc}"
    finally:
        if profiler is not None:
            profiler.pop()
    return verdicts


@dataclass
class Outcome:
    """What one repetition computed, in virtual time and counts."""

    attempted: int
    #: Virtual latency of every completed op.
    latencies: List[float]
    #: Latency degree -> delivered casts with that degree.
    degrees: Dict[int, int]
    inter_copies: int
    copies: int
    #: Virtual time from the first issue to the last completion.
    vspan: float
    #: sha256 of every process's delivery order, mids renumbered by
    #: cast order.
    digest: str

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def outcome(prepared: Prepared) -> Outcome:
    system = prepared.system
    if prepared.spec.store is not None:
        tracker = system.store_cluster.tracker
        attempted = len(system.store_cluster.plans)
        latencies = tracker.latencies()
        span = tracker.commit_span() or (0.0, 0.0)
    else:
        attempted, latencies, span = cast_latencies(system)
    stats = system.network.stats
    return Outcome(attempted, latencies, RunReport(system).degree_histogram(),
                   stats.inter_group_messages, stats.total_messages,
                   span[1] - span[0] if latencies else 0.0,
                   delivery_digest(system))


def pooled_metrics(outcomes: List[Outcome]) -> Dict[str, float]:
    """The simulated-time end-to-end metrics over a run's subruns."""
    latencies = [x for o in outcomes for x in o.latencies]
    completed = len(latencies)
    degrees = sum(sum(o.degrees.values()) for o in outcomes)
    per_op = 1.0 / completed if completed else 0.0
    vspan = sum(o.vspan for o in outcomes)
    return {
        "vlat_p50": percentile(latencies, 0.50) if latencies else 0.0,
        "vlat_p99": percentile(latencies, 0.99) if latencies else 0.0,
        "degree_mean": (sum(d * n for o in outcomes
                            for d, n in o.degrees.items()) / degrees
                        if degrees else 0.0),
        "inter_copies_per_op": sum(o.inter_copies for o in outcomes) * per_op,
        "copies_per_op": sum(o.copies for o in outcomes) * per_op,
        "ops_per_vtime": completed / vspan if vspan else 0.0,
        "completed_ops_frac": completed / sum(o.attempted for o in outcomes),
    }


def cast_latencies(system):
    """Latencies of casts from correct senders that reached every
    correct destination.

    Returns ``(attempted, latencies, (first cast, last completion))``,
    where ``attempted`` counts every cast from a sender that stays
    correct.  A cast that misses a correct destination has no latency:
    it is a failed op.
    """
    crashes = system.crashes
    topology = system.topology
    meter = system.meter
    attempted = 0
    latencies = []
    first, last = float("inf"), float("-inf")
    for msg in system.log.cast_map.values():
        if crashes.is_faulty(msg.sender):
            continue
        attempted += 1
        record = meter.record_for(msg.mid)
        delivered = record.delivery_time
        try:
            done = max(delivered[pid]
                       for gid in msg.dest_groups
                       for pid in topology.members(gid)
                       if not crashes.is_faulty(pid))
        except KeyError:
            continue
        latencies.append(done - record.cast_time)
        first = min(first, record.cast_time)
        last = max(last, done)
    return attempted, latencies, (first, last)


def delivery_digest(system) -> str:
    """Hash of the per-process delivery orders, mids renumbered by cast
    order, so two runs that behave the same hash the same."""
    index = {mid: i for i, mid in enumerate(system.log.cast_map)}
    digest = hashlib.sha256()
    for pid in system.log.processes():
        order = ",".join(str(index[mid]) for mid in system.log.sequence(pid))
        digest.update(f"{pid}:{order};".encode())
    return digest.hexdigest()
