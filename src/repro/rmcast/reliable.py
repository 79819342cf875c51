"""Non-uniform reliable multicast (paper Section 2.2).

Properties:

* uniform integrity — R-Deliver at most once, only if addressed and
  previously R-MCast;
* validity — a *correct* sender's message is R-Delivered by all correct
  addressees;
* agreement — if a *correct* process R-Delivers m, all correct
  addressees R-Deliver m.

Implementation: the sender sends one copy per addressee (this is the
``d(k-1)`` inter-group message cost the paper charges for the primitive,
after [6]).  Agreement despite a faulty sender is ensured by a **lazy
relay**: on R-Delivery each receiver arms a ``relay_after``-unit timer
on its relay lane (a kernel :class:`~repro.sim.events.TimerLane`: one
FIFO per endpoint, one heap slot); if the sender is suspected when the
timer fires, the receiver relays the message to every addressee.  In
the common case (sender correct) the timer fires, finds nothing to do,
and the primitive stays at its optimal message cost — and, because each
timer fires once and arms nothing, the primitive is *halting*, which
Algorithm A2's quiescence proof requires (paper footnote 12).

Delivery is immediate on first receipt, giving the latency degree of 1
the paper uses in its analyses (Theorem 4.1).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.failure.detectors import FailureDetector
from repro.net.message import Message
from repro.sim.process import Process

# Delivery callback: (payload, message_id, original_sender) -> None.
RDeliveryHandler = Callable[[dict, str, int], None]

_MCAST_IDS = itertools.count()


class ReliableMulticast:
    """One process's endpoint of non-uniform reliable multicast."""

    #: Subclasses toggle eager relaying (uniform variant).
    EAGER_RELAY = False

    def __init__(
        self,
        process: Process,
        detector: FailureDetector,
        relay_after: float = 20.0,
        namespace: str = "rmc",
    ) -> None:
        self.process = process
        self.detector = detector
        self.ns = namespace
        self._data_kind = f"{namespace}.data"
        self._delivered: Set[str] = set()
        self._relayed: Set[str] = set()
        self._handler: Optional[RDeliveryHandler] = None
        self._relay_lane = process.sim.lane(
            relay_after, self._relay_check, label=f"{namespace}.relay")
        process.register_handler(self._data_kind, self._on_data)

    # ------------------------------------------------------------------
    def set_delivery_handler(self, handler: RDeliveryHandler) -> None:
        """Install the (single) R-Deliver callback."""
        if self._handler is not None:
            raise ValueError("delivery handler already set")
        self._handler = handler

    def multicast(
        self, dest_pids: List[int], payload: dict, mid: Optional[str] = None
    ) -> str:
        """R-MCast ``payload`` to ``dest_pids``; returns the message id."""
        if not dest_pids:
            raise ValueError("reliable multicast needs at least one addressee")
        if mid is None:
            mid = f"rm{next(_MCAST_IDS)}"
        body = {
            "mid": mid,
            "sender": self.process.pid,
            "dests": sorted(set(dest_pids)),
            "data": payload,
        }
        self.process.send_many(body["dests"], self._data_kind, body)
        return mid

    # ------------------------------------------------------------------
    def _on_data(self, msg: Message) -> None:
        body = msg.payload
        mid = body["mid"]
        if mid in self._delivered:
            return
        self._delivered.add(mid)
        if self.EAGER_RELAY:
            self._relay(body)
            self._deliver(body)
        else:
            self._deliver(body)
            if self.detector.suspects(self.process.pid, body["sender"]):
                self._relay(body)
            else:
                self._relay_lane.arm(body)

    def _relay_check(self, body: dict) -> None:
        """Lazy relay timer: act only if the sender looks faulty."""
        if self.process.crashed:
            return
        if self.detector.suspects(self.process.pid, body["sender"]):
            self._relay(body)

    def _relay(self, body: dict) -> None:
        mid = body["mid"]
        if mid in self._relayed:
            return
        self._relayed.add(mid)
        others = [p for p in body["dests"] if p != self.process.pid]
        if others:
            self.process.send_many(others, self._data_kind, body)

    def _deliver(self, body: dict) -> None:
        if self._handler is None:
            raise RuntimeError("no R-Deliver handler installed")
        self._handler(body["data"], body["mid"], body["sender"])


class UniformReliableMulticast(ReliableMulticast):
    """Uniform variant: relay eagerly *before* delivering.

    If any process — even one that crashes right after — R-Delivers m,
    its relays are already in flight, so every correct addressee also
    R-Delivers m.  The price is O(|dest|²) messages, the figure the
    paper charges the Fritzke et al. [5] baseline for its uniform
    primitive.
    """

    EAGER_RELAY = True
