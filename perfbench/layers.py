"""Per-layer measurement of a traced repetition, taken from outside ``src/``.

Self times come from the program's own ``PhaseProfiler``
(``build_system(profile=True)``): the kernel, network, transport and
failure detector already push phases onto it, and it charges each phase
its span minus the spans nested inside it.  The profiler lumps several
layers together, so :class:`Tracer` adds spans of its own onto the same
profiler by wrapping public entry points of those layers while a traced
repetition is built and run.  The wrappers are installed for traced
repetitions only; untraced ones run the unmodified classes.

Counts come from the counters the program already keeps:
``NetworkStats.by_kind``, ``TransportStats``, the store and reconfig
metrics, A2's round counters and ``sim.events_executed``.
"""

from __future__ import annotations

import functools
import time
from typing import Dict, Optional, Tuple

from repro.campaigns.metrics import transport_metrics
from repro.checkers.properties import StreamingPropertyChecker
from repro.checkers.stabilization import StreamingStabilizationChecker
from repro.clocks.latency import LatencyMeter
from repro.consensus.paxos import GroupConsensus
from repro.reconfig.balancer import LoadBalancer
from repro.reconfig.metrics import reconfig_metrics
from repro.reconfig.txn import is_control
from repro.runtime.builder import System
from repro.store import cluster as store_cluster
from repro.store import service as store_service
from repro.store.client import CommitTracker
from repro.transport.reliable import ReliableTransport

import workloads

#: Profiler phase -> the per-layer self-time metric it feeds.  The first
#: eight phases are the program's own; the rest are pushed by
#: :class:`Tracer`'s wrappers (and by ``workloads.run`` for "checkers").
SELF_TIME = {
    "kernel": "sim.self_s",
    "network": "net.self_s",
    "transport": "transport.self_s",
    "protocol": "core.self_s",
    "consensus": "consensus.self_s",
    "failure_detection": "failure.self_s",
    "workload": "workload.self_s",
    "checkers": "checkers.finalize_s",
    "checkers.stream": "checkers.stream_s",
    "clocks": "clocks.meter_s",
    "store": "store.exec_s",
    "reconfig": "reconfig.balancer_s",
}

#: Largest share of the traced span that may fall outside every span.
ADDITIVITY_TOLERANCE = 0.02


class Tracer:
    """Wrap public layer entry points for the duration of a ``with``.

    Entry points that are bound while a system is built (handlers,
    hooks, scheduled ticks) are wrapped on the class, so the system must
    be built inside the ``with``.  Spans go to :attr:`profiler`, which
    the caller points at the built system's profiler; until then the
    wrappers only call through.
    """

    def __init__(self) -> None:
        self.profiler = None
        #: (namespace, group, instance) of every consensus decision.
        self.decisions = set()
        #: Host seconds spent generating workload plans.
        self.plan_s = 0.0
        self._saved = []

    def _span(self, phase: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            profiler = self.profiler
            if profiler is None:
                return fn(*args, **kwargs)
            profiler.push(phase)
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.pop()

        return spanned

    def _timed_plan(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.plan_s += time.perf_counter() - t0

        return timed

    def _counted_decisions(self, fn):
        @functools.wraps(fn)
        def set_decision_handler(consensus, handler):
            group = consensus.members[0]

            def counted(instance, value):
                self.decisions.add((consensus.ns, group, instance))
                return handler(instance, value)

            return fn(consensus, counted)

        return set_decision_handler

    def _delivery_tap(self, fn):
        @functools.wraps(fn)
        def add_delivery_tap(system, pid, tap):
            return fn(system, pid, self._span("store", tap))

        return add_delivery_tap

    def _patch(self, owner, name: str, wrapper) -> None:
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def __enter__(self) -> "Tracer":
        spans = [
            (GroupConsensus, "propose", "consensus"),
            (ReliableTransport, "sequencer", "transport"),
            (ReliableTransport, "on_frame", "transport"),
            (LatencyMeter, "record_cast", "clocks"),
            (LatencyMeter, "record_delivery", "clocks"),
            (StreamingPropertyChecker, "on_cast", "checkers.stream"),
            (StreamingPropertyChecker, "on_delivery", "checkers.stream"),
            (StreamingStabilizationChecker, "on_delivery", "checkers.stream"),
            (store_service, "execute", "store"),
            (CommitTracker, "on_delivery", "store"),
            (CommitTracker, "on_executed", "store"),
            (LoadBalancer, "_tick", "reconfig"),
        ]
        patches = [(owner, name, functools.partial(self._span, phase))
                   for owner, name, phase in spans]
        patches += [
            (GroupConsensus, "set_decision_handler",
             self._counted_decisions),
            (System, "add_delivery_tap", self._delivery_tap),
            (store_cluster, "txn_workload", self._timed_plan),
            (workloads, "plan_casts", self._timed_plan),
        ]
        try:
            for owner, name, wrapper in patches:
                self._patch(owner, name, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def self_times(profiler, span_s: float) -> Tuple[Dict[str, float],
                                                Optional[str]]:
    """Per-layer self seconds of one traced repetition, and what is
    wrong with them (None when nothing is).

    They are wrong when the profiler saw a phase with no layer, or when
    they do not add up to the traced span ``span_s`` within
    :data:`ADDITIVITY_TOLERANCE`.
    """
    timings = profiler.timings()
    out = {metric: timings.get(phase, 0.0)
           for phase, metric in SELF_TIME.items()}
    unknown = sorted(set(timings) - set(SELF_TIME))
    if unknown:
        return out, f"profiler phases with no layer: {unknown}"
    gap = abs(span_s - sum(out.values())) / span_s
    if gap > ADDITIVITY_TOLERANCE:
        return out, (f"layer self times sum to {sum(out.values()):.4f}s "
                     f"against a {span_s:.4f}s traced span ({gap:.1%} "
                     f"apart, tolerance {ADDITIVITY_TOLERANCE:.0%})")
    return out, None


def layer_counts(prepared, completed: int,
                 decisions: int) -> Dict[str, float]:
    """Count-based per-layer metrics of one finished repetition."""
    system = prepared.system
    stats = system.network.stats

    def copies(match) -> int:
        return sum(n for kind, n in stats.by_kind.items() if match(kind))

    per_op = 1.0 / completed if completed else 0.0
    endpoints = list(system.endpoints.values())
    rounds = [getattr(e, "rounds_executed", 0) for e in endpoints]
    useful = sum(getattr(e, "useful_rounds", 0) for e in endpoints)
    tsp = transport_metrics(system)
    out = {
        "consensus.copies_per_op": copies(lambda k: ".cons." in k) * per_op,
        "consensus.accepted_copies_per_op":
            copies(lambda k: k.endswith(".cons.accepted")) * per_op,
        "consensus.decisions": float(decisions),
        "consensus.ops_per_decision":
            completed / decisions if decisions else 0.0,
        "consensus.prepares":
            float(copies(lambda k: k.endswith(".cons.prepare"))),
        "consensus.nacks": float(copies(lambda k: k.endswith(".cons.nack"))),
        "net.copies": float(stats.total_messages),
        "net.copies_per_op": stats.total_messages * per_op,
        "net.dropped": float(stats.dropped),
        "net.duplicated": float(stats.duplicated),
        "sim.events": float(system.sim.events_executed),
        "sim.events_per_copy": (system.sim.events_executed
                                / stats.total_messages
                                if stats.total_messages else 0.0),
        "core.ts_copies_per_op": copies(lambda k: k.endswith(".ts")) * per_op,
        "core.bundle_copies_per_op":
            copies(lambda k: k.endswith(".bundle")) * per_op,
        "core.rounds": float(max(rounds)),
        "core.useful_round_frac": useful / sum(rounds) if sum(rounds) else 0.0,
        "rmcast.copies_per_op": copies(lambda k: ".rmc." in k) * per_op,
        "transport.data_copies": tsp["tsp_data_copies"],
        "transport.acks": tsp["tsp_acks_sent"],
        "transport.retransmits": (tsp["tsp_retransmits"]
                                  + tsp["tsp_fast_retransmits"]),
        "transport.dup_suppressed": tsp["tsp_dup_suppressed"],
        "transport.abandoned": tsp["tsp_abandoned"],
        "transport.overhead_ratio": tsp["tsp_overhead_copies"],
        "failure.hb_copies": float(copies(lambda k: k.startswith("fd."))),
    }
    out.update(_store_counts(system))
    return out


def _store_counts(system) -> Dict[str, float]:
    if getattr(system, "store_cluster", None) is None:
        return dict.fromkeys(
            ("store.dest_groups_per_txn", "store.bounces", "store.abandoned",
             "reconfig.completed", "reconfig.aborted", "reconfig.keys_moved"),
            0.0)
    reconfig = reconfig_metrics(system)
    txns = [m for m in system.log.cast_map.values()
            if not is_control(m.payload)]
    return {
        "store.dest_groups_per_txn":
            sum(len(m.dest_groups) for m in txns) / len(txns),
        "store.bounces": reconfig["wrong_epoch_bounces"],
        "store.abandoned": reconfig["txns_abandoned"],
        "reconfig.completed": reconfig["reconfigs_completed"],
        "reconfig.aborted": reconfig["reconfigs_aborted"],
        "reconfig.keys_moved": reconfig["reconfig_keys_moved"],
    }
