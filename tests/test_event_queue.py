"""Cancellation semantics and determinism of the event queue.

The engine refactor made ``len(queue)`` (and therefore
``Simulator.pending_events``) track *live* events exactly: cancelled
events still occupy heap slots until lazily pruned, but must never be
counted, and the idle-hook refill check in ``Simulator.run`` must stay
exact in the presence of cancelled stragglers.

Lanes keep the same contract: a lane timer fires at the ``(time,
seq)`` position a plain event scheduled at the same moment would have
had, and a cancelled one is invisible.  The network's delivery lanes,
the transport's ack lane and the cast lane are checked against a
reference run that puts every one of their entries on the heap.
"""

import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message
from repro.net.topology import Fixed, LatencyModel, Uniform
from repro.runtime.builder import build_system
from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.workload.generators import poisson_workload, uniform_k_groups


class TestLiveCount:
    def test_cancel_excluded_from_len(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        a.cancel()
        assert len(q) == 1

    def test_cancel_is_idempotent(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        a.cancel()
        a.cancel()
        assert len(q) == 0

    def test_cancel_after_pop_does_not_corrupt_count(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is a
        a.cancel()  # already fired; must not decrement the live count
        assert len(q) == 1

    def test_cancel_after_clear_does_not_corrupt_count(self):
        q = EventQueue()
        a = q.push(1.0, lambda: None)
        q.clear()
        a.cancel()
        q.push(1.0, lambda: None)
        assert len(q) == 1

    def test_push_action_counts_and_pops(self):
        q = EventQueue()
        fired = []
        q.push_action(1.0, lambda: fired.append("x"))
        assert len(q) == 1
        event = q.pop()
        assert isinstance(event, Event)
        event.action()
        assert fired == ["x"] and len(q) == 0

    def test_pending_events_exact_after_cancel(self):
        sim = Simulator()
        keep = sim.schedule(5.0, lambda: None)
        drop = sim.schedule(1.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.time == 5.0


class TestDeterminism:
    def test_same_time_fires_in_scheduling_order(self):
        q = EventQueue()
        fired = []
        for name in "abcdef":
            q.push(3.0, lambda n=name: fired.append(n))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == list("abcdef")

    def test_mixed_event_and_action_entries_keep_order(self):
        q = EventQueue()
        fired = []
        q.push(1.0, lambda: fired.append("event"))
        q.push_action(1.0, lambda: fired.append("action"))
        q.push(1.0, lambda: fired.append("event2"))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == ["event", "action", "event2"]

    def test_cancelled_head_skipped_by_pop_and_peek(self):
        q = EventQueue()
        head = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        head.cancel()
        assert q.peek_time() == 2.0
        assert q.pop().time == 2.0


class TestTieBreakContract:
    """The ``(time, seq)`` tie-break is a pinned contract.

    Seed replay rests on it: golden counterexamples, per-seed campaign
    metrics and delivery digests reproduce only if equal-timestamp
    events fire in scheduling order on every run.
    """

    def test_colliding_timestamps_pop_in_scheduling_order(self):
        q = EventQueue()
        fired = []
        # Interleave pushes at two colliding timestamps: each timestamp's
        # events must still pop in per-timestamp scheduling order.
        for i in range(8):
            t = 2.0 if i % 2 else 1.0
            q.push(t, lambda i=i: fired.append(i))
        while (e := q.pop()) is not None:
            e.action()
        assert fired == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_events_scheduled_while_executing_sort_after_earlier_ties(self):
        """An event executing at time t schedules another event at t: the
        child must run after every event already queued for t."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"),
                                   sim.schedule(0.0, lambda: fired.append("a-child"))))
        sim.schedule(1.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "a-child"]


class TestIdleHookRefill:
    def test_refill_runs_after_cancelled_stragglers(self):
        """Cancelled stragglers leave tombstones in the heap; the idle
        refill check must look through them — the hook still runs, and
        its freshly scheduled work still fires."""
        sim = Simulator()
        fired = []
        straggler = sim.schedule(50.0, lambda: fired.append("straggler"))
        refills = [0]

        def hook():
            if refills[0] == 0:
                refills[0] += 1
                straggler.cancel()
                sim.schedule(1.0, lambda: fired.append("refill"))

        sim.add_idle_hook(hook)
        sim.schedule(1.0, lambda: (fired.append("first"), straggler.cancel()))
        sim.run()
        assert fired == ["first", "refill"]

    def test_idle_hook_not_rerun_when_it_schedules_nothing(self):
        sim = Simulator()
        calls = [0]

        def hook():
            calls[0] += 1

        sim.add_idle_hook(hook)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert calls[0] == 1

    def test_run_drains_despite_cancelled_tail(self):
        sim = Simulator()
        tail = [sim.schedule(10.0 + i, lambda: None) for i in range(5)]
        for event in tail:
            event.cancel()
        end = sim.run()
        assert sim.pending_events == 0
        assert end == 0.0  # nothing live ever fired

    def test_run_until_quiescent_ignores_cancelled_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        zombie = sim.schedule(2.0, lambda: None)
        zombie.cancel()
        sim.run_until_quiescent()
        assert sim.pending_events == 0


class TestTimerLanes:
    def test_lane_and_plain_events_at_colliding_times_keep_scheduling_order(self):
        sim = Simulator()
        fired = []
        lane = sim.lane(2.0, fired.append)
        sim.schedule(2.0, lambda: fired.append("e0"))
        lane.arm("t1")
        sim.schedule(2.0, lambda: fired.append("e2"))
        lane.arm("t3")
        sim.schedule_action(2.0, lambda: fired.append("a4"))
        # Armed at t=1 for t=3, behind events scheduled earlier for t=3.
        sim.schedule(1.0, lambda: (lane.arm("t7"),
                                   sim.schedule(2.0, lambda: fired.append("e8"))))
        sim.schedule(3.0, lambda: fired.append("e6"))
        sim.run()
        assert fired == ["e0", "t1", "e2", "t3", "a4", "e6", "t7", "e8"]

    def test_cancelled_lane_timers_never_fire_move_clock_or_count(self):
        for victim in (0, 2, 4):  # head, middle, tail
            sim = Simulator()
            fired = []
            lane = sim.lane(5.0, fired.append)
            timers = []
            for i in range(5):
                timers.append(lane.arm(i))
                sim.run(until=sim.now + 0.5)
            timers[victim].cancel()
            assert sim.pending_events == 4
            sim.run()
            assert fired == [i for i in range(5) if i != victim]
            assert sim.events_executed == 4
            assert sim.now == (6.5 if victim == 4 else 7.0)

    def test_cancelled_last_timer_does_not_advance_clock(self):
        sim = Simulator()
        lane = sim.lane(10.0, lambda _: None)
        sim.schedule(1.0, lambda: None)
        lane.arm().cancel()
        assert sim.run() == 1.0
        assert sim.events_executed == 1

    def test_pending_events_is_exact(self):
        sim = Simulator()
        lane = sim.lane(3.0, lambda _: None)
        a, b, c = lane.arm(), lane.arm(), lane.arm()
        sim.schedule(1.0, lambda: None)
        assert sim.pending_events == 4
        b.cancel()
        b.cancel()
        assert sim.pending_events == 3
        a.cancel()
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0
        c.cancel()  # already fired: must not count
        assert sim.pending_events == 0
        assert sim.events_executed == 2

    def test_clear_resets_lanes(self):
        sim = Simulator()
        fired = []
        lane = sim.lane(1.0, fired.append)
        stale = [lane.arm(i) for i in range(3)]
        sim._queue.clear()
        assert sim.pending_events == 0
        stale[1].cancel()  # orphaned by clear(): must not count
        assert sim.pending_events == 0
        lane.arm("fresh")
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["fresh"]

    def test_arm_cancel_cycles_keep_one_heap_slot_per_lane(self):
        """The consensus pattern: a retry armed on every proposal and
        cancelled shortly after by the decision."""
        sim = Simulator()
        lanes = [sim.lane(50.0, lambda _: None) for _ in range(2)]
        for lane in lanes:
            for _ in range(10_000):
                lane.arm().cancel()
        assert len(sim._queue._heap) <= len(lanes)
        # Cancelled timers do not pile up behind the lane's heap slot.
        assert max(len(lane._fifo) for lane in lanes) == 1
        live = []
        peak = {"heap": 0, "fifo": 0}

        def tick(i):
            if live:
                live.pop().cancel()
            live.append(lanes[i % 2].arm(i))
            peak["heap"] = max(peak["heap"], len(sim._queue._heap))
            peak["fifo"] = max(peak["fifo"],
                               *(len(lane._fifo) for lane in lanes))
            if i < 10_000:
                sim.schedule(0.003, lambda: tick(i + 1))

        tick(0)
        sim.run()
        # One slot per lane plus the driving event.
        assert peak["heap"] <= len(lanes) + 1
        assert peak["fifo"] <= 2
        assert sim.pending_events == 0
        assert sim.events_executed == 10_001


def _mixed_schedule(sim, trace):
    """Plain events, bare actions and lane timers at colliding times,
    with cancellations and timers armed from inside callbacks."""
    lane = sim.lane(1.5, lambda tag: trace.append((sim.now, tag)))
    handles = []

    def event(tag):
        trace.append((sim.now, tag))
        if tag.endswith("0"):
            handles.append(lane.arm(tag + "-lane"))
        if tag.endswith("3") and handles:
            handles[len(handles) // 2].cancel()

    for i in range(40):
        delay = (i % 4) * 0.5
        if i % 3 == 0:
            sim.schedule(delay, lambda i=i: event(f"e{i}"))
        elif i % 3 == 1:
            sim.schedule_action(delay, lambda i=i: event(f"a{i}"))
        else:
            handles.append(lane.arm(f"t{i}"))
    dropped = sim.schedule(0.5, lambda: trace.append((sim.now, "dropped")))
    dropped.cancel()
    handles[0].cancel()


class TestRunMatchesStep:
    def test_run_and_repeated_step_fire_the_same_trace(self):
        by_run, by_step = [], []
        sim_run, sim_step = Simulator(), Simulator()
        _mixed_schedule(sim_run, by_run)
        _mixed_schedule(sim_step, by_step)
        sim_run.run()
        while sim_step.step():
            pass
        assert by_run == by_step
        tags = {tag for _, tag in by_run}
        assert {"e0-lane", "a10-lane", "t5"} <= tags
        assert not {"dropped", "t2"} & tags
        assert sim_run.now == sim_step.now
        assert sim_run.events_executed == sim_step.events_executed


# Operations on a Simulator, replayed twice: once with timer lanes and
# once with one plain Event per timer.  ``kind`` picks the operation;
# ``a`` and ``b`` are its small-integer parameters.
_OPS = st.lists(
    st.tuples(st.sampled_from(["schedule", "arm", "cancel", "run"]),
              st.integers(0, 3), st.integers(0, 7)),
    max_size=60,
)
_LANE_DELAYS = (0.0, 1.0, 1.5)


def _replay(ops, use_lanes):
    sim = Simulator()
    trace, handles = [], []

    def fire(tag):
        trace.append((sim.now, tag))
        # Timers and events re-arm and cancel from inside callbacks too.
        if tag % 5 == 0:
            arm(tag % 3, tag + 1001)
        elif tag % 5 == 1 and handles:
            handles[tag % len(handles)].cancel()

    lanes = [sim.lane(delay, fire) for delay in _LANE_DELAYS]

    def arm(which, tag):
        if use_lanes:
            handles.append(lanes[which].arm(tag))
        else:
            handles.append(sim.schedule(_LANE_DELAYS[which],
                                        lambda: fire(tag)))

    observed = []
    for i, (kind, a, b) in enumerate(ops):
        if kind == "schedule":
            sim.schedule(a * 0.5, lambda i=i: fire(i))
        elif kind == "arm":
            arm(a % 3, i)
        elif kind == "cancel" and handles:
            handles[b % len(handles)].cancel()
        elif kind == "run":
            sim.run(until=sim.now + a * 0.5)
        observed.append((sim.now, sim.events_executed, sim.pending_events))
    sim.run()
    observed.append((sim.now, sim.events_executed, sim.pending_events))
    return trace, observed


class TestLaneEquivalenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(_OPS)
    def test_lanes_match_one_event_per_timer(self, ops):
        assert _replay(ops, use_lanes=True) == _replay(ops, use_lanes=False)


class TestArmAt:
    def test_arm_at_keeps_key_order_with_plain_events(self):
        sim = Simulator()
        fired = []
        lane = sim.lane(0.0, fired.append)
        lane.arm_at(2.0, "c0")
        sim.call_at(2.0, lambda: fired.append("e1"))
        lane.arm_at(2.0, "c2")
        lane.arm_at(3.0, "c3")
        sim.call_at(1.0, lambda: fired.append("e4"))
        sim.run()
        assert fired == ["e4", "c0", "e1", "c2", "c3"]
        assert sim.events_executed == 5

    def test_arm_at_refuses_times_that_would_break_fifo_order(self):
        sim = Simulator()
        lane = sim.lane(0.0, lambda _: None)
        assert lane.arm_at(5.0) is not None
        assert lane.arm_at(4.0) is None  # before the last pending timer
        assert sim.pending_events == 1
        sim.call_at(6.0, lambda: None)
        sim.run()
        assert sim.now == 6.0
        assert lane.arm_at(5.5) is None  # in the past
        assert lane.arm_at(6.0) is not None  # empty FIFO: any due time
        assert sim.pending_events == 1
        assert sim.run() == 6.0


# ----------------------------------------------------------------------
# Delivery lanes: mixed network traffic against a heap-only reference
# ----------------------------------------------------------------------
class _HeapLane:
    """Reference stand-in for a lane: one heap event per entry, and
    every :meth:`arm_at` refused so casts fall back to ``call_at``."""

    def __init__(self, sim, delay, callback):
        self.sim, self.delay, self.callback = sim, delay, callback

    def arm(self, arg=None):
        return self.sim.schedule(self.delay, lambda: self.callback(arg))

    def arm_at(self, time, arg=None):
        return None


def _heap_only(system):
    """Put every copy batch, ack timer and cast on its own heap event:
    the order the ``(time, seq)`` keys predict, with nothing on lanes."""
    net, sim = system.network, system.sim
    net._post = lambda delay, copies: sim.schedule_action(
        delay, partial(net._deliver_batch, copies))
    system._cast_lane = _HeapLane(sim, 0.0, system._do_cast)
    tsp = system.transport
    if tsp is not None:
        tsp._ack_lane = _HeapLane(sim, tsp.ack_delay, tsp._send_ack)


_TRAFFIC = st.lists(
    st.tuples(st.sampled_from(["send", "many", "inject", "cast", "run"]),
              st.integers(0, 7), st.integers(0, 7)),
    max_size=25,
)
_N = 6  # groups (2, 2, 2): pids 0-1, 2-3, 4-5


def _hooked(msg):
    return msg.kind == "x" and msg.payload["n"] % 3 == 0


def _perturb(msg, delay):
    # Intra copies (0.5) land on the inter lane's delay (1.0).
    return delay + 0.5 if _hooked(msg) else delay


def _traffic(ops, transport, hooked, lanes=True):
    # Every link has a fixed delay except group 0 -> group 2, which
    # draws one per copy.
    latency = LatencyModel(intra=Fixed(0.5), inter=Fixed(1.0),
                           pairwise_inter={(0, 2): Uniform(0.5, 1.5)})
    system = build_system("a1", (2, 2, 2), latency=latency, seed=3,
                          transport="reliable" if transport else "none",
                          trace=True)
    if not lanes:
        _heap_only(system)
    sim, net = system.sim, system.network
    for pid in range(_N):
        net.process(pid).register_handler("x", lambda msg: None)
    if hooked:
        net.add_delay_hook(_perturb)
    casts, planned = [], []
    system.add_cast_hook(lambda msg: casts.append((sim.now, msg.mid)))
    observed = []
    for i, (kind, a, b) in enumerate(ops):
        src = a % _N
        if kind == "send":
            net.send(src, b % _N, "x", {"n": i})
        elif kind == "many":
            dsts = [(src + k) % _N for k in range(1 + b % _N)]
            net.send_many(src, dsts, "x", {"n": i})
        elif kind == "inject":
            dst = b % _N
            net.inject_copy(Message(src, dst, "x", {"n": i, "inject": a},
                                    src // 2 != dst // 2, 0, sim.now),
                            (a % 4) * 0.5)
        elif kind == "cast":
            time = sim.now + b * 0.25  # later casts may come earlier
            dest = tuple(sorted({a % 3, (a + b) % 3}))
            system.cast_at(time, src, dest, mid=f"c{i:03d}")
            planned.append((time, f"c{i:03d}"))
        else:
            sim.run(until=sim.now + a * 0.25)
        observed.append((sim.now, sim.events_executed, sim.pending_events))
    sim.run()
    observed.append((sim.now, sim.events_executed, sim.pending_events))
    return system, casts, planned, observed


def _wire_events(system):
    return [(e.event, e.time, e.msg.src, e.msg.dst, e.msg.kind, e.msg.wire)
            for e in system.network.trace.events]


class TestDeliveryLanesProperty:
    @settings(max_examples=120, deadline=None)
    @given(_TRAFFIC, st.booleans(), st.booleans())
    def test_mixed_traffic_delivers_in_key_order_exactly_once(
            self, ops, transport, hooked):
        system, casts, planned, observed = _traffic(ops, transport, hooked)
        events = system.network.trace.events
        sent = {}  # id(copy) -> (position in send order, send time, copy)
        delivered = []
        for event in events:
            if event.event == "send":
                sent[id(event.msg)] = (len(sent), event.time, event.msg)
            else:
                delivered.append(event)
        # Every copy exactly once (no crash, no filter, no loss).
        assert sorted(id(e.msg) for e in delivered) == sorted(sent)
        # In (send time + delay, send order) order.
        keys = [(e.time, sent[id(e.msg)][0]) for e in delivered]
        assert keys == sorted(keys)
        for event in delivered:
            msg = event.msg
            send_time = sent[id(msg)][1]
            if "inject" in msg.payload:
                delay = (msg.payload["inject"] % 4) * 0.5
            else:
                sampled = system.topology.group_of(msg.src) == 0 and \
                    system.topology.group_of(msg.dst) == 2
                if sampled:
                    assert 0.5 <= event.time - send_time <= 2.0 + 1e-9
                    continue
                delay = 1.0 if msg.inter_group else 0.5
                if hooked:
                    delay = _perturb(msg, delay)
            assert event.time == send_time + delay
        # Casts fire at their planned time, in (time, plan order) order,
        # whether they rode the cast lane or fell back to the heap.
        assert casts == sorted(planned, key=lambda p: p[0])
        # Same copies, same order, same kernel counters as one heap
        # event per key.
        reference, ref_casts, _, ref_observed = _traffic(
            ops, transport, hooked, lanes=False)
        assert _wire_events(system) == _wire_events(reference)
        assert casts == ref_casts
        assert observed == ref_observed
        for pid in range(_N):
            assert system.log.sequence(pid) == reference.log.sequence(pid)


class TestHeapHoldsLanes:
    def test_a1_fan_out_keeps_the_heap_at_one_slot_per_lane(self):
        """An a1_hot-sized plan (150 casts/unit, 2 of 3 groups): every
        copy, cast and timer rides a lane, so the heap never holds more
        than one slot per lane while thousands of entries wait."""
        system = build_system("a1", (3, 3, 3), seed=7)
        plans = poisson_workload(system.topology, random.Random(7),
                                 rate=150.0, duration=2.0,
                                 destinations=uniform_k_groups(2))
        for i, plan in enumerate(plans):
            system.cast_at(plan.time, plan.sender, plan.dest_groups,
                           mid=f"m{i:06d}")
        heap = system.sim._queue._heap
        peak = {"heap": 0, "pending": 0}

        def sample(pid, msg):
            peak["heap"] = max(peak["heap"], len(heap))
            peak["pending"] = max(peak["pending"],
                                  system.sim.pending_events)

        system.add_delivery_hook(sample)
        system.run_quiescent()
        # Two delivery lanes (intra 0.001, inter 1.0), the cast lane,
        # and per process one relay-check and one consensus-retry lane.
        lanes = len(system.network._lanes) + 1 + 2 * 9
        assert len(system.network._lanes) == 2
        assert peak["heap"] <= lanes
        assert peak["pending"] > 10 * lanes
        assert len(system.log.cast_map) == len(plans)
