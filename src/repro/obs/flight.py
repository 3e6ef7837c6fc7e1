"""repro.obs.flight — a per-node bounded ring-buffer flight recorder.

Post-mortem diagnosis needs *history*: when a replica group wedges (a
checkpoint certificate starves below quorum, the log window jams) the
metrics registry shows only the final counter values and the tracer only
per-request phase times — neither says *what the node saw happen, in
order*.  The flight recorder keeps exactly that: per node, a bounded
ring of typed, structured events with monotone per-node sequence numbers
and drop accounting, cheap enough to leave on in production and bounded
enough to dump after a crash.

Events are typed — :data:`EVENT_KINDS` is the closed vocabulary —
and structured: every event carries the recording node, the virtual (or
wall-clock) timestamp supplied by the call site, an optional correlation
``key`` (the same ``(client, request_id)`` id the tracer uses, already
on every wire message), and free-form detail fields.  The per-node ring
holds the last ``capacity`` events; older ones are evicted and counted
in ``dropped`` so a dump is honest about what it no longer shows.

Like the tracer and the metrics registry, the recorder is strictly
passive: it never reads a clock or an RNG (timestamps are passed in by
the call sites) and never schedules anything, so the byte-identical
same-seed replay guarantee holds with recording enabled.  Components
never call the recorder directly: they record through
:meth:`repro.obs.Observability.record` behind ``if self.obs.enabled:``
(lint rule RL002), which appends here and feeds the tracer.

:meth:`FlightRecorder.dump` emits a deterministic JSON-able payload;
``python -m repro.obs.doctor`` merges such dumps from every node of a
deployment into one causally ordered timeline and a diagnosis.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Hashable, Optional

__all__ = ["EVENT_KINDS", "FlightRecorder", "NullFlightRecorder", "NULL_FLIGHT"]

#: The closed vocabulary of event types a recorder accepts.  Typed events
#: keep dumps machine-diagnosable: the doctor can pattern-match on kinds
#: instead of parsing free text.
EVENT_KINDS: frozenset[str] = frozenset(
    {
        # Message plane.
        "msg-send",
        "msg-recv",
        "msg-drop",
        # View changes.
        "view-change",
        "view-installed",
        # Ordering: one event per batch, carrying view, sequence and the
        # request keys it orders.
        "pre-prepare",
        "prepare",
        "commit",
        # Checkpoints and state transfer.
        "checkpoint-vote",
        "checkpoint-cert",
        "state-request",
        "state-response",
        "state-install",
        # Execution / client lifecycle.
        "execute",
        "reply",
        "submit",
        "complete",
        "route",
        "reply-mismatch",
        "quorum-failure",
        # Policy enforcement.
        "policy-deny",
        # Waiters and notifications (repro.notify).
        "waiter-register",
        "waiter-cancel",
        "notify",
        # Transaction locks and outcomes (repro.txn).
        "lock-grant",
        "lock-release",
        "lock-expire",
        "txn-vote",
        "txn-decision",
        # Real transports (repro.net).
        "net-reject",
        "net-error",
    }
)


def _jsonable(value: Any) -> Any:
    """Deterministically convert an event field for a JSON dump."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class _Ring(collections.deque):
    """One node's ring of ``(kind, t, key, details, seq)`` entries: a full
    ring evicts its oldest entry on append, ``recorded`` counts every
    entry ever appended (the next ``seq``), and event dicts are built only
    when read."""

    recorded = 0


def _event(kind: str, now: float, key: Any, details: dict[str, Any], seq: int) -> dict[str, Any]:
    """One retained ring entry as the event dict readers see."""
    event: dict[str, Any] = {"kind": kind, "t": now}
    if key is not None:
        event["key"] = key
    event.update(details)
    event["seq"] = seq
    return event


class FlightRecorder:
    """Per-node bounded ring buffers of typed, structured events.

    ``capacity`` is per node: the recorder holds at most that many of a
    node's most recent events; older ones are evicted (and counted) as
    the ring wraps.  Memory is therefore bounded by
    ``capacity * nodes`` regardless of run length.
    """

    enabled = True

    def __init__(self, *, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self.capacity = capacity
        self._rings: dict[str, _Ring] = {}

    # ------------------------------------------------------------------
    # Recording (hot path — called from inside the event loops)
    # ------------------------------------------------------------------

    def record(
        self,
        kind: str,
        node: Any,
        now: float,
        *,
        key: Optional[Hashable] = None,
        **details: Any,
    ) -> None:
        """Append one ``kind`` event observed by ``node`` at time ``now``.

        ``key`` carries the on-wire correlation id when the event belongs
        to one request's lifecycle; ``details`` are free-form structured
        fields (sequence numbers, digests, view numbers, reasons).
        """
        self.append(kind, node, now, key, details)

    def append(
        self, kind: str, node: Any, now: float, key: Optional[Hashable], details: dict[str, Any]
    ) -> None:
        """:meth:`record` with ``details`` passed as a dict, not re-packed."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown flight event kind {kind!r}")
        name = str(node)
        with self._lock:
            ring = self._rings.get(name)
            if ring is None:
                ring = self._rings[name] = _Ring(maxlen=self.capacity)
            ring.append((kind, now, key, details, ring.recorded))
            ring.recorded += 1

    # ------------------------------------------------------------------
    # Assembly / dumps
    # ------------------------------------------------------------------

    def nodes(self) -> list[str]:
        with self._lock:
            return sorted(self._rings)

    def events(self, node: Any) -> list[dict[str, Any]]:
        """One node's retained events, oldest first (sequence order)."""
        name = str(node)
        with self._lock:
            entries = list(self._rings.get(name, ()))
        return [_event(*entry) for entry in entries]

    def dump_node(self, node: Any) -> dict[str, Any]:
        """One node's recording as a deterministic JSON-able payload."""
        name = str(node)
        events = [
            {field: _jsonable(value) for field, value in event.items()}
            for event in self.events(name)
        ]
        with self._lock:
            ring = self._rings.get(name, _Ring())
            recorded, retained = ring.recorded, len(ring)
        return {
            "node": name,
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": recorded - retained,
            "events": events,
        }

    def dump(self) -> dict[str, Any]:
        """Every node's recording, keyed by node name (sorted)."""
        return {
            "capacity": self.capacity,
            "nodes": {name: self.dump_node(name) for name in self.nodes()},
        }

    def statistics(self) -> dict[str, Any]:
        with self._lock:
            nodes = len(self._rings)
            retained = sum(len(ring) for ring in self._rings.values())
            recorded = sum(ring.recorded for ring in self._rings.values())
        return {
            "nodes": nodes,
            "retained": retained,
            "recorded": recorded,
            "dropped": recorded - retained,
        }

    def clear(self) -> None:
        with self._lock:
            self._rings.clear()

    def __repr__(self) -> str:
        stats = self.statistics()
        return (
            f"FlightRecorder(nodes={stats['nodes']}, retained={stats['retained']}, "
            f"dropped={stats['dropped']})"
        )


class NullFlightRecorder(FlightRecorder):
    """Disabled recorder: ``enabled`` is False so call sites skip entirely,
    and :meth:`record` keeps nothing, so every dump stays empty."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self.capacity = 0

    def append(
        self, kind: str, node: Any, now: float, key: Optional[Hashable], details: dict[str, Any]
    ) -> None:
        pass

    def __repr__(self) -> str:
        return "NullFlightRecorder()"


#: Shared disabled recorder — the default every component binds against.
NULL_FLIGHT = NullFlightRecorder()
