"""Event primitives for the discrete-event simulation kernel.

The kernel executes :class:`Event` objects in nondecreasing timestamp
order.  Ties are broken by a monotonically increasing sequence number so
that runs are fully deterministic: two events scheduled for the same
virtual time always execute in the order they were scheduled.

**The ``(time, seq)`` tie-break is a pinned contract**, not an
implementation detail: it is what makes a seed replay identically —
the golden counterexample replays, the campaign runner's per-seed
determinism check and the benchmark's delivery digests all rest on
it — and ``tests/test_event_queue.py`` regression-tests it with
colliding timestamps.  The contract covers every lane too: a
:class:`TimerLane` entry reserves its ``(now + delay, seq)`` key when it
is armed (``(time, seq)`` for :meth:`TimerLane.arm_at`), drawing ``seq``
from the same counter as every event, and fires at exactly that
position in the global order — the position a plain :class:`Event`
scheduled at the same moment would have had.  That holds for all three
kinds of lane traffic: timers, the network's delivery lanes (one per
fixed link delay, each entry one batch of copies) and time-ordered
plans (casts, store transactions).

Events sit on the hot path of every simulated message, so the queue's
heap holds ``(time, seq, event)`` triples — the ``(time, seq)`` prefix
is unique, which keeps every heap comparison inside the C tuple
comparator instead of calling back into Python (the dataclass-generated
``Event.__lt__`` used to dominate heap maintenance in profiles).  The
queue also keeps an exact count of *live* (non-cancelled) events:
:meth:`Event.cancel` reports back to its owning queue, so ``len(queue)``
never counts tombstones still sitting in the heap.

**Lanes** carry every stream of work that is already in key order:
fixed-delay timers (lazy relay checks, consensus retries, transport ack
coalescing), message copies on fixed-delay links, and plans armed in
time order.  Entries that share one delay fire in the order they were
armed, and so does a plan armed in time order, so a lane keeps them in
a FIFO and only its oldest entry holds a heap slot: the fixed-interval
case of Varghese & Lauck's timing wheels.  The heap then holds one slot per busy lane plus the work that
can really arrive out of order (sampled link delays, jittered
retransmission timers).  A cancelled lane timer is invisible — it never
fires, never moves the clock and is never counted — and a lane leaves
at most one tombstone in the heap however many of its timers are
cancelled.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Optional, Tuple

_INF = float("inf")


class Event:
    """A single scheduled callback.

    Attributes:
        time: Virtual time at which the event fires.
        seq: Scheduling sequence number; breaks timestamp ties.
        action: Zero-argument callable executed when the event fires.
        label: Human-readable tag used by traces and debugging output.
        cancelled: When True the kernel skips the event.
    """

    __slots__ = ("time", "seq", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        label: str = "",
        queue: Optional["EventQueue"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.label = label
        self.cancelled = False
        self._queue = queue

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.time == other.time and self.seq == other.seq

    def cancel(self) -> None:
        """Mark the event so the kernel will skip it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time:.3f} seq={self.seq} {self.label}{state})"


class LaneTimer:
    """One armed timer of a :class:`TimerLane`: a cancellable handle.

    Attributes:
        time: Reserved firing time (arming time plus the lane's delay).
        seq: Reserved sequence number, from the queue's event counter.
        arg: The value the lane's callback receives when this fires.
        lane: The owning lane.
        cancelled: When True the timer never fires.
    """

    __slots__ = ("time", "seq", "arg", "lane", "cancelled", "_queue")

    def __init__(self, time: float, seq: int, arg: Any, lane: "TimerLane",
                 queue: "EventQueue") -> None:
        self.time = time
        self.seq = seq
        self.arg = arg
        self.lane = lane
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Withdraw the timer; a no-op once it fired or was cancelled."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is None:
            return  # already fired, or dropped by clear()
        self._queue._live -= 1
        # Cancelled timers at the back of the FIFO go now; the front one
        # holds the lane's heap slot and goes when that slot pops.
        fifo = self.lane._fifo
        while len(fifo) > 1 and fifo[-1].cancelled:
            fifo.pop()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return (f"LaneTimer(t={self.time:.3f} seq={self.seq} "
                f"{self.lane.label}{state})")


class TimerLane:
    """A FIFO of timers that share one fixed delay and one callback.

    :meth:`arm` reserves the ``(now + delay, seq)`` key the timer would
    have had as its own :class:`Event`.  Because the delay is fixed and
    the clock never runs backwards, the FIFO is already in key order, so
    only its front timer needs a heap slot; the queue hands the slot on
    to the next pending timer when the front one pops.  :meth:`arm_at`
    appends at an absolute time instead, and keeps the FIFO in key order
    by refusing a time earlier than the last pending timer's.

    Attributes:
        delay: Virtual time between arming and firing.
        callback: Called with the timer's ``arg`` when a timer fires.
        label: Human-readable tag used by debugging output.
    """

    __slots__ = ("delay", "callback", "label", "_queue", "_clock", "_fifo")

    def __init__(self, queue: "EventQueue", clock: Any, delay: float,
                 callback: Callable[[Any], None], label: str = "") -> None:
        """``clock`` is any object whose ``now`` is the virtual time."""
        self.delay = delay
        self.callback = callback
        self.label = label
        self._queue = queue
        self._clock = clock
        self._fifo: deque = deque()

    def arm(self, arg: Any = None) -> LaneTimer:
        """Start a timer that calls ``callback(arg)`` after ``delay``."""
        queue = self._queue
        timer = LaneTimer(self._clock.now + self.delay, next(queue._counter),
                          arg, self, queue)
        fifo = self._fifo
        fifo.append(timer)
        if len(fifo) == 1:
            heapq.heappush(queue._heap, (timer.time, timer.seq, timer))
        queue._live += 1
        return timer

    def arm_at(self, time: float, arg: Any = None) -> Optional[LaneTimer]:
        """Start a timer that calls ``callback(arg)`` at absolute ``time``.

        For lanes fed a nondecreasing stream of times (a plan); the
        lane's ``delay`` plays no part.  Returns None, arming nothing,
        when ``time`` lies before the clock or before the lane's last
        pending timer: the FIFO would leave key order, so the caller
        must schedule that one on the heap instead.
        """
        fifo = self._fifo
        if time < self._clock.now or (fifo and time < fifo[-1].time):
            return None
        queue = self._queue
        timer = LaneTimer(time, next(queue._counter), arg, self, queue)
        fifo.append(timer)
        if len(fifo) == 1:
            heapq.heappush(queue._heap, (time, timer.seq, timer))
        queue._live += 1
        return timer


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Equal-timestamp events pop in insertion (scheduling) order — the
    ``(time, seq)`` contract documented in the module docstring.

    ``len(queue)`` is the number of *live* events: cancelled events still
    occupy heap slots until lazily popped, but are never counted.  Armed
    :class:`TimerLane` timers count as live events until they fire or
    are cancelled.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def _on_cancel(self) -> None:
        self._live -= 1

    def push(self, time: float, action: Callable[[], None], label: str = "") -> Event:
        """Schedule ``action`` at virtual time ``time`` and return the event."""
        seq = next(self._counter)
        event = Event(time, seq, action, label, queue=self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_action(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a bare, non-cancellable callback at ``time``.

        Hot-path variant for callers that never cancel (the network's
        delivery events): the heap entry holds the callable directly,
        skipping the :class:`Event` wrapper allocation.
        """
        heapq.heappush(self._heap, (time, next(self._counter), action))
        self._live += 1

    def take(self, until: float = _INF) -> Optional[tuple]:
        """Prune tombstones, then pop the earliest live entry if due.

        Returns the earliest live ``(time, seq, item)`` when its time is
        at most ``until`` — ``item`` is an :class:`Event`, a bare
        callable or a :class:`LaneTimer` — and None otherwise, with the
        queue's head then live (or the queue empty).  This is the one
        prune/pop path: the kernel's run loop calls it once per event,
        and :meth:`pop` and :meth:`peek_time` are thin wrappers.  Popping
        a lane's front timer hands the lane's heap slot to its next
        pending timer.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            item = entry[2]
            cls = type(item)
            if cls is LaneTimer:
                if not item.cancelled and entry[0] > until:
                    return None
                fifo = item.lane._fifo
                fifo.popleft()
                while fifo and fifo[0].cancelled:
                    fifo.popleft()
                if fifo:
                    head = fifo[0]
                    heapq.heapreplace(heap, (head.time, head.seq, head))
                else:
                    heapq.heappop(heap)
                if item.cancelled:
                    continue
                item._queue = None  # a cancel() after firing must not count
            elif cls is Event and item.cancelled:
                heapq.heappop(heap)
                continue
            else:
                if entry[0] > until:
                    return None
                heapq.heappop(heap)
                if cls is Event:
                    item._queue = None
            self._live -= 1
            return entry
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None.

        Bare actions and lane timers are wrapped in a fresh
        :class:`Event` so callers see one uniform type.
        """
        entry = self.take()
        if entry is None:
            return None
        time, seq, item = entry
        cls = type(item)
        if cls is Event:
            return item
        if cls is LaneTimer:
            lane, arg = item.lane, item.arg
            return Event(time, seq, lambda: lane.callback(arg), lane.label)
        return Event(time, seq, item)

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest pending event, or None."""
        self.take(-_INF)  # prunes tombstones, pops nothing
        heap = self._heap
        return heap[0][0] if heap else None

    def clear(self) -> None:
        """Drop every pending event and every lane's pending timers."""
        for _, _, item in self._heap:
            cls = type(item)
            if cls is Event:
                item._queue = None  # orphan: cancel() must not double-count
            elif cls is LaneTimer:
                # Each non-empty lane holds exactly one heap slot.
                fifo = item.lane._fifo
                for timer in fifo:
                    timer._queue = None
                fifo.clear()
        self._heap.clear()
        self._live = 0


def ordered_pair(a: Any, b: Any) -> Tuple[Any, Any]:
    """Return ``(min(a, b), max(a, b))`` — handy for symmetric link keys."""
    return (a, b) if a <= b else (b, a)
