"""Message tracing and accounting.

:class:`NetworkStats` counts messages by scope (intra vs inter group) and
by protocol kind; it is always on because Figure 1's message-complexity
columns are regenerated from these counters.

:class:`MessageTrace` optionally records every send/deliver event.  The
genuineness checker and some unit tests use it; experiments leave it
disabled to keep memory bounded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.net.message import Message


class NetworkStats:
    """Counters over every message accepted by the network."""

    def __init__(self) -> None:
        self.inter_group_messages = 0
        self.intra_group_messages = 0
        self.by_kind: Counter = Counter()
        self.by_kind_inter: Counter = Counter()
        self.dropped = 0
        # Extra copies injected by the duplicate-channel adversary via
        # Network.inject_copy (each is also counted by on_send, so
        # total_messages stays the honest wire-copy count).
        self.duplicated = 0

    @property
    def total_messages(self) -> int:
        """All messages sent, regardless of scope."""
        return self.inter_group_messages + self.intra_group_messages

    def on_send(self, msg: Message) -> None:
        """Account for one message copy entering the network."""
        if msg.inter_group:
            self.inter_group_messages += 1
            self.by_kind_inter[msg.kind] += 1
        else:
            self.intra_group_messages += 1
        self.by_kind[msg.kind] += 1

    def on_send_many(self, kind: str, total: int, inter: int) -> None:
        """Account for one ``send_many`` fan-out in a single update."""
        self.inter_group_messages += inter
        self.intra_group_messages += total - inter
        self.by_kind[kind] += total
        if inter:
            self.by_kind_inter[kind] += inter

    def on_drop(self, msg: Message) -> None:
        """Account for a copy dropped (destination crashed, filter)."""
        self.dropped += 1

    def snapshot(self) -> dict:
        """A plain-dict summary for result tables."""
        return {
            "inter": self.inter_group_messages,
            "intra": self.intra_group_messages,
            "total": self.total_messages,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkStats(inter={self.inter_group_messages}, "
            f"intra={self.intra_group_messages}, dropped={self.dropped})"
        )


@dataclass
class TraceEvent:
    """One traced network event."""

    event: str  # "send" or "deliver"
    time: float
    msg: Message


class MessageTrace:
    """An optional full log of network activity.

    The queries the checkers run per-message or per-run — participant
    sets, last send time — are maintained incrementally on append, so
    the genuineness check is O(participants) rather than a scan of the
    whole event list.  :meth:`sends_of_kind` keeps a per-kind index,
    built lazily on first query and invalidated by the next send, so
    repeated kind queries over a settled trace never rescan.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._senders: Set[int] = set()
        self._receivers: Set[int] = set()
        self._last_send_time: Optional[float] = None
        # kind -> [(position in self.events, event), ...] for sends;
        # None while stale (build lazily, invalidate on append).
        self._sends_by_kind: Optional[Dict[str, List]] = None

    def on_send(self, time: float, msg: Message) -> None:
        if self.enabled:
            self.events.append(TraceEvent("send", time, msg))
            self._senders.add(msg.src)
            self._last_send_time = time
            self._sends_by_kind = None

    def on_deliver(self, time: float, msg: Message) -> None:
        if self.enabled:
            self.events.append(TraceEvent("deliver", time, msg))
            self._receivers.add(msg.dst)

    # ------------------------------------------------------------------
    # Queries used by checkers
    # ------------------------------------------------------------------
    def senders(self) -> Set[int]:
        """Processes that sent at least one message."""
        return set(self._senders)

    def receivers(self) -> Set[int]:
        """Processes that received at least one message."""
        return set(self._receivers)

    def participants(self) -> Set[int]:
        """Processes that sent or received at least one message."""
        return self._senders | self._receivers

    def sends_of_kind(self, prefix: str) -> List[TraceEvent]:
        """Send events whose kind starts with ``prefix``, in send order."""
        index = self._sends_by_kind
        if index is None:
            index = self._sends_by_kind = {}
            for position, event in enumerate(self.events):
                if event.event == "send":
                    index.setdefault(event.msg.kind, []).append(
                        (position, event))
        matching = [entries for kind, entries in index.items()
                    if kind.startswith(prefix)]
        if len(matching) == 1:
            return [event for _, event in matching[0]]
        merged = sorted(
            (entry for entries in matching for entry in entries))
        return [event for _, event in merged]

    def last_send_time(self) -> Optional[float]:
        """Virtual time of the last send event, or None."""
        return self._last_send_time
