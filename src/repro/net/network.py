"""The simulated quasi-reliable network.

Implements the link semantics of paper Section 2.1:

* links neither corrupt nor duplicate messages;
* links are **quasi-reliable**: a message from a correct process to a
  correct process is eventually delivered; messages to or from crashed
  processes may be lost (here: messages to a crashed destination are
  dropped, messages already in flight from a now-crashed sender are still
  delivered, which quasi-reliability permits).

The network is also the instrumentation point for the modified Lamport
clocks (Section 2.3): it stamps every send with the sender's clock and
advances the receiver's clock on delivery, and it feeds the
message-complexity counters behind Figure 1.

Breaking quasi-reliability is possible, but only deliberately: the lossy
adversary kinds (``drop``/``duplicate``/``corrupt``, see
:mod:`repro.adversary.injectors`) act through the same delivery-filter
and delay-hook seams the quasi-reliable injectors use, plus the
:meth:`Network.inject_copy` seam for duplication.  Runs that enable them
either accept broken runs (that is the point of the torture explorer) or
mount the retransmitting transport of :mod:`repro.transport`, which
restores quasi-reliable semantics above the faulty links; the network
cooperates through :meth:`set_transport` and two explicit interception
points (wrap on send, frame admission on delivery) so that the protocols
above notice nothing.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.message import Message
from repro.net.topology import LatencyModel, Topology
from repro.net.trace import MessageTrace, NetworkStats
from repro.sim.events import TimerLane
from repro.sim.kernel import Simulator
from repro.sim.process import Process

# A delivery filter may veto individual copies (fault-injection in tests).
DeliveryFilter = Callable[[Message], bool]

# A delay hook may perturb the sampled link delay of one message copy
# (``hook(msg, delay) -> delay``).  Adversarial injectors use this as
# their send-side hook point: delays may grow or shrink, but the copy is
# still delivered exactly once with its payload untouched, so every
# perturbation stays within quasi-reliable link semantics.
DelayHook = Callable[[Message, float], float]

_classify_kind = None


def _phase_of_kind(kind: str) -> str:
    """Profiling phase of a message kind, via a lazily cached import.

    ``repro.runtime`` imports this module through the builder, so a
    top-level import of :func:`repro.runtime.profiler.classify_kind`
    would be circular; binding it on first profiled delivery keeps the
    per-message cost at one global load.
    """
    global _classify_kind
    if _classify_kind is None:
        from repro.runtime.profiler import classify_kind

        _classify_kind = classify_kind
    return _classify_kind(kind)


def _passes(filters: List[DeliveryFilter], msg: Message) -> bool:
    """Whether every delivery filter, asked in order, admits ``msg``."""
    for flt in filters:
        if not flt(msg):
            return False
    return True


class Network:
    """Connects :class:`Process` objects through a latency model."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: LatencyModel,
        rng: random.Random,
        trace: Optional[MessageTrace] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self.rng = rng
        self.stats = NetworkStats()
        self.trace = trace or MessageTrace(enabled=False)
        self._processes: Dict[int, Process] = {}
        self._filters: List[DeliveryFilter] = []
        self._delay_hooks: List[DelayHook] = []
        #: Optional :class:`~repro.runtime.profiler.PhaseProfiler`; the
        #: builder shares the simulator's instance here.  When set, the
        #: delivery path charges pre-handler overhead to "network" and
        #: each handler call to its kind's phase.
        self.profiler = None
        #: Optional :class:`~repro.transport.reliable.ReliableTransport`
        #: mounted by ``build_system(transport="reliable")``.  None on
        #: the hot paths costs one attribute read + is-None test.
        self.transport = None
        # Fixed link delay -> the delivery lane its copies ride.
        self._lanes: Dict[float, TimerLane] = {}
        # Per-sender route rows, src pid -> {dst pid -> (inter, delay,
        # dist)}; the members of a group share one (see _route_row).
        self._routes: Dict[int, Dict[int, tuple]] = {}
        for gid in topology.group_ids:
            row = self._route_row(gid)
            for pid in topology.members(gid):
                self._routes[pid] = row

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, process: Process) -> None:
        """Attach a process to the network."""
        if process.pid in self._processes:
            raise ValueError(f"pid {process.pid} already registered")
        self._processes[process.pid] = process
        process.attach_network(self)

    def process(self, pid: int) -> Process:
        """Look up a registered process."""
        return self._processes[pid]

    def processes(self) -> List[Process]:
        """All registered processes in pid order."""
        return [self._processes[pid] for pid in sorted(self._processes)]

    def add_delivery_filter(self, flt: DeliveryFilter) -> None:
        """Install a predicate that may drop individual message copies.

        Only test fixtures and fault injectors use this (e.g. to model a
        faulty sender whose reliable-multicast copies reached a strict
        subset of the group).  Filters must respect quasi-reliability if
        the scenario claims to.  Installing the same filter twice would
        silently double its observations (a counting filter would fire
        at half its configured threshold), so duplicates are rejected.
        """
        # ``==``, not ``is``: bound methods are recreated per attribute
        # access, and == is how list.remove matches them back.
        if flt in self._filters:
            raise ValueError("delivery filter already installed")
        self._filters.append(flt)

    def remove_delivery_filter(self, flt: DeliveryFilter) -> None:
        """Uninstall a previously added delivery filter."""
        if flt not in self._filters:
            raise ValueError("delivery filter not installed")
        self._filters.remove(flt)

    def add_delay_hook(self, hook: DelayHook) -> None:
        """Install a per-copy link-delay perturbation hook.

        Hooks run in installation order at send time, each seeing the
        previous hook's output; the final value must be a valid
        (non-negative) delay.  This is the injector hook point for
        latency skew, bounded reordering and partition spikes.
        """
        if hook in self._delay_hooks:
            raise ValueError("delay hook already installed")
        self._delay_hooks.append(hook)

    def remove_delay_hook(self, hook: DelayHook) -> None:
        """Uninstall a previously added delay hook."""
        if hook not in self._delay_hooks:
            raise ValueError("delay hook not installed")
        self._delay_hooks.remove(hook)

    def set_transport(self, transport) -> None:
        """Mount a reliable transport beneath the protocol traffic.

        Every subsequent :meth:`send`/:meth:`send_many` of a covered
        kind is wrapped into a sequenced, checksummed frame, and frame
        deliveries are admitted through the transport's dedup/reorder
        logic instead of dispatching directly (see
        :mod:`repro.transport.reliable`).  Must happen before traffic
        flows — mounting mid-run would strand unsequenced copies.
        """
        if self.transport is not None:
            raise ValueError("a transport is already mounted")
        self.transport = transport

    def inject_copy(self, msg: Message, delay: float) -> None:
        """Schedule an *extra* delivery of a copy already in flight.

        This is the duplication seam for the lossy adversary: the clone
        really does cross the wire again, so it is accounted like any
        other copy (stats, trace, ``duplicated`` counter) and delivered
        through the normal path — later filters, the transport's dedup
        window and the receiver's clock all see it.  The clone is a
        fresh :class:`Message` sharing the payload dict, never the same
        object, so a corruption of one copy cannot leak into the other.
        """
        copy = Message(msg.src, msg.dst, msg.kind, msg.payload,
                       msg.inter_group, msg.send_lamport, msg.send_time,
                       msg.wire)
        self.stats.on_send(copy)
        self.stats.duplicated += 1
        if self.trace.enabled:
            self.trace.on_send(self.sim.now, copy)
        self._post(delay, [copy])

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, kind: str, payload: dict) -> None:
        """Send one message from ``src`` to ``dst``."""
        self._send(src, (dst,), kind, payload, None)

    def send_many(
        self, src: int, dsts: Iterable[int], kind: str, payload: dict
    ) -> None:
        """Send the same logical message to each destination.

        Every copy is stamped from the sender's *current* clock, so a
        one-to-many send counts as a single logical step (at most one
        inter-group hop on any causal path), per Section 2.3.

        Copies whose link delay coincides travel as one batch: one
        kernel entry that fans out on delivery.  Delays are drawn and
        copies stamped in destination order, one batch per distinct
        delay in order of first appearance, so the RNG stream and every
        ``(time, seq)`` key are what one entry per copy would give,
        minus the entries.  A batch whose delay is a fixed link delay
        rides that delay's delivery lane (see :mod:`repro.sim.events`):
        lanes never reorder, so it costs no heap slot.  Only batches
        whose sampled or hook-perturbed delay matches no fixed link
        delay go on the heap.
        """
        self._send(src, dsts, kind, payload, None)

    def _send(self, src: int, dsts: Iterable[int], kind: str,
              payload: dict, wire: "int | None") -> None:
        """The one send path: stamp, account, trace and post copies.

        ``wire`` is None for new traffic, which the mounted transport
        (if any) sequences copy by copy; the transport passes a frame
        word of its own to put a retransmission back on the wire.
        Under profiling the whole send is charged to "network".
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.push("network")
        try:
            sender = self._processes[src]
            if sender.crashed:
                return
            now = self.sim.now
            next_wire = None
            if wire is None and self.transport is not None:
                next_wire = self.transport.sequencer(src, kind, payload, now)
            row = self._routes[src]
            lamport = sender.lamport.value  # timestamp_send leaves it
            trace = self.trace if self.trace.enabled else None
            hooks = self._delay_hooks
            rng = self.rng
            total = 0
            n_inter = 0
            buckets: Dict[float, List[Message]] = {}
            for dst in dsts:
                inter, delay, dist = row[dst]
                if next_wire is not None:
                    wire = next_wire(src, dst)
                msg = Message(src, dst, kind, payload, inter,
                              lamport + 1 if inter else lamport, now, wire)
                total += 1
                if inter:
                    n_inter += 1
                if trace is not None:
                    trace.on_send(now, msg)
                if delay is None:
                    delay = dist.sample(rng)
                if hooks:
                    for hook in hooks:
                        delay = hook(msg, delay)
                bucket = buckets.get(delay)
                if bucket is None:
                    buckets[delay] = [msg]
                else:
                    bucket.append(msg)
            self.stats.on_send_many(kind, total, n_inter)
            for delay, copies in buckets.items():
                self._post(delay, copies)
        finally:
            if profiler is not None:
                profiler.pop()

    def _route_row(self, src_gid: int) -> Dict[int, tuple]:
        """The route row of group ``src_gid``'s senders.

        Maps each ``dst`` pid to ``(inter, delay, dist)``: ``delay`` is
        the link's fixed delay, whose delivery lane this creates on
        first sight, or None when the link's distribution ``dist`` needs
        a draw per copy.  One row per group, so this state is bounded by
        groups times processes, and the lanes by the number of distinct
        fixed delays.
        """
        group_of = self.topology.group_index
        latency = self.latency
        lanes = self._lanes
        row = {}
        for dst, dst_gid in group_of.items():
            delay = latency.fixed_delay(src_gid, dst_gid)
            if delay is not None and delay not in lanes:
                lanes[delay] = self.sim.lane(delay, self._deliver_batch,
                                             f"net:{delay:g}")
            row[dst] = (src_gid != dst_gid, delay,
                        latency.distribution(src_gid, dst_gid))
        return row

    def _post(self, delay: float, copies: List[Message]) -> None:
        """Deliver one batch of copies ``delay`` from now.

        The batch rides the delivery lane of its delay when one exists
        (lanes exist for fixed link delays only, so their number stays
        bounded), and the heap otherwise.  Either way it reserves the
        next ``(time, seq)`` key, so the choice never changes the order.
        """
        lane = self._lanes.get(delay)
        if lane is not None:
            lane.arm(copies)
        else:
            self.sim.schedule_action(delay,
                                     partial(self._deliver_batch, copies))

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_batch(self, msgs: List[Message]) -> None:
        """Deliver one batch of copies: the one delivery path.

        Per-copy crash and filter checks still run individually; a
        receiver's handler may crash a later receiver in the same batch
        and that copy is then dropped, exactly as with one event per
        copy.  Under profiling, network bookkeeping (crash/filter
        checks, clock, trace) is charged to "network" and each handler
        call to the phase of its message kind (consensus /
        failure_detection / protocol); a handler's own nested sends
        re-enter "network" via :meth:`_send`, so attribution stays
        exclusive all the way down.
        """
        profiler = self.profiler
        if profiler is not None:
            profiler.push("network")
        try:
            processes = self._processes
            filters = self._filters
            trace = self.trace if self.trace.enabled else None
            now = self.sim.now
            for msg in msgs:
                receiver = processes[msg.dst]
                if receiver.crashed or (filters
                                        and not _passes(filters, msg)):
                    self.stats.on_drop(msg)
                    continue
                # Inlined LamportClock.observe_receive and
                # Process.handle (the crashed check already ran above).
                clock = receiver.lamport
                if msg.send_lamport > clock.value:
                    clock.value = msg.send_lamport
                if trace is not None:
                    trace.on_deliver(now, msg)
                handler = receiver._handlers.get(msg.kind)
                if handler is None:
                    raise KeyError(
                        f"process {receiver.pid} has no handler for kind "
                        f"{msg.kind!r}"
                    )
                wire = msg.wire
                if wire is not None:
                    # A sequenced transport frame: checksum, dedup and
                    # in-order release happen there; the handler runs
                    # zero or more times (buffered successors flush).
                    self.transport.on_frame(receiver, msg, wire, handler,
                                            profiler)
                elif profiler is None:
                    handler(msg)
                else:
                    profiler.push(_phase_of_kind(msg.kind))
                    try:
                        handler(msg)
                    finally:
                        profiler.pop()
        finally:
            if profiler is not None:
                profiler.pop()
