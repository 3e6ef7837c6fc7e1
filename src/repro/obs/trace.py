"""repro.obs.trace — request lifecycle tracing across the replica group.

A *span* is the life of one client request, keyed by the correlation id
that is **already on every wire message**: ``ClientRequest.key ==
(client, request_id)``.  No message format changes — the client, the
shard router, every PBFT node and the executing replica record their
events through :meth:`repro.obs.Observability.record`, which turns the
lifecycle kinds into ``(phase, key, node, now)`` observations on a shared
:class:`Tracer`; it keeps the *first* time each phase was reached (the
2f+1 replicas all reach ``prepare``; the earliest one defines when the
system did).

Canonical phases, in lifecycle order::

    submit → route → pre-prepare → prepare → commit → execute → reply → notify → complete

``route`` only appears on sharded deployments and ``notify`` only when a
replica pushes a waiter wake-up (:mod:`repro.notify`); the rest map 1:1
onto the paper's client/agreement/execution pipeline.  :meth:`Tracer.timeline`
returns one request's phase times; :meth:`Tracer.phase_report` aggregates
the deltas between consecutive present phases over every traced request —
the "where did the 1.5 ms go" table.

Like the metrics registry, the tracer is passive: it never schedules
timers, never sends messages and never reads any RNG, so the same-seed
byte-identical replay property holds with tracing enabled.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Iterator, Optional, Tuple

__all__ = ["PHASES", "Tracer", "NullTracer", "NULL_TRACER"]

#: Canonical lifecycle order; assembled timelines sort by this.
PHASES: Tuple[str, ...] = (
    "submit",
    "route",
    "pre-prepare",
    "prepare",
    "commit",
    "execute",
    "txn-prepare",
    "txn-decision",
    "reply",
    "notify",
    "complete",
)

_PHASE_INDEX = {phase: index for index, phase in enumerate(PHASES)}


def _percentile(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class Tracer:
    """Collects phase observations and assembles per-request timelines.

    ``max_requests`` bounds memory on long wall-clock runs: once the cap
    is reached, observations for *new* request keys are dropped (counted
    in :meth:`statistics`), while already-open spans keep completing.
    """

    enabled = True

    def __init__(self, *, max_requests: int = 100_000) -> None:
        if max_requests <= 0:
            raise ValueError("max_requests must be positive")
        self._lock = threading.Lock()
        self._max_requests = max_requests
        # key -> {phase: (first_time, node)}; dicts preserve insertion
        # order, so iteration over spans is first-seen order.
        self._spans: dict[Hashable, dict[str, Tuple[float, str]]] = {}
        self._dropped = 0
        self._observations = 0

    # ------------------------------------------------------------------
    # Recording (hot path — called from inside the event loops)
    # ------------------------------------------------------------------

    def record(self, phase: str, key: Hashable, node: Any, now: float) -> None:
        """Report that ``node`` saw request ``key`` reach ``phase`` at ``now``."""
        with self._lock:
            span = self._spans.get(key)
            if span is None:
                if len(self._spans) >= self._max_requests:
                    self._dropped += 1
                    return
                span = {}
                self._spans[key] = span
            self._observations += 1
            if phase not in span:
                span[phase] = (now, str(node))

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def requests(self) -> list[Hashable]:
        with self._lock:
            return list(self._spans)

    def timeline(self, key: Hashable) -> list[Tuple[str, float, str]]:
        """One request's ``(phase, time, node)`` rows in lifecycle order.

        Unknown phases (from future instrumentation) sort after the
        canonical ones, by name.
        """
        with self._lock:
            span = dict(self._spans.get(key, {}))
        rows = [(phase, when, node) for phase, (when, node) in span.items()]
        rows.sort(key=lambda row: (_PHASE_INDEX.get(row[0], len(PHASES)), row[0]))
        return rows

    def phase_durations(self, key: Hashable) -> list[Tuple[str, float]]:
        """Deltas between consecutive present phases of one request."""
        timeline = self.timeline(key)
        out = []
        for (a, t0, _), (b, t1, _) in zip(timeline, timeline[1:]):
            out.append((f"{a}→{b}", t1 - t0))
        return out

    def phase_report(self) -> list[dict[str, Any]]:
        """Aggregate phase-to-phase latency over every traced request.

        One row per transition (``submit→pre-prepare`` etc.), with count,
        mean, p50, p95 and max — the per-request answer to "where did the
        time go", summed over the run.
        """
        samples: dict[str, list[float]] = {}
        order: dict[str, int] = {}
        for key in self.requests():
            timeline = self.timeline(key)
            for position, ((a, t0, _), (b, t1, _)) in enumerate(
                zip(timeline, timeline[1:])
            ):
                label = f"{a}→{b}"
                samples.setdefault(label, []).append(t1 - t0)
                if label not in order:
                    order[label] = _PHASE_INDEX.get(a, len(PHASES)) * 100 + position
        rows = []
        for label in sorted(samples, key=lambda name: (order[name], name)):
            ordered = sorted(samples[label])
            rows.append(
                {
                    "phase": label,
                    "count": len(ordered),
                    "mean": round(sum(ordered) / len(ordered), 3),
                    "p50": round(_percentile(ordered, 50), 3),
                    "p95": round(_percentile(ordered, 95), 3),
                    "max": round(ordered[-1], 3),
                }
            )
        return rows

    def statistics(self) -> dict[str, Any]:
        with self._lock:
            complete = sum(1 for span in self._spans.values() if "complete" in span)
            return {
                "requests": len(self._spans),
                "complete": complete,
                "observations": self._observations,
                "dropped": self._dropped,
            }

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0
            self._observations = 0

    def __repr__(self) -> str:
        return f"Tracer(requests={len(self._spans)}, dropped={self._dropped})"


class NullTracer(Tracer):
    """Disabled tracer: ``enabled`` is False so call sites skip entirely,
    and :meth:`record` keeps nothing, so every view stays empty."""

    enabled = False

    def record(self, phase: str, key: Hashable, node: Any, now: float) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: Shared disabled tracer — the default every component binds against.
NULL_TRACER = NullTracer()
