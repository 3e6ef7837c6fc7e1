"""repro.obs — observability for every deployment shape.

The package bundles four passive instruments:

* :class:`~repro.obs.registry.MetricsRegistry` — labelled counters,
  gauges and histograms with deterministic iteration order and three
  exporters (plain dicts, JSON lines, Prometheus text);
* :class:`~repro.obs.trace.Tracer` — per-request lifecycle spans keyed
  by the ``(client, request_id)`` correlation id already on the wire,
  assembled into phase timelines and a "where did the time go" report;
* :class:`~repro.obs.flight.FlightRecorder` — per-node bounded ring
  buffers of typed structured events (message traffic, view changes,
  checkpoint votes, lock grants, policy denials, ...) with drop
  accounting, dumpable for the post-mortem ``python -m
  repro.obs.doctor``;
* :class:`~repro.obs.health.HealthMonitor` — online probes over
  already-observed state (checkpoint starvation, view-change churn,
  reply-quorum divergence, waiter occupancy, shard skew) with
  fire/clear hysteresis, surfaced via ``Space.stats()["health"]``.

:class:`Observability` carries all four through ``connect(obs=...)`` /
``Scenario(obs=...)`` into every layer.  Each event is recorded once,
through :meth:`Observability.record` behind an ``if self.obs.enabled:``
guard (lint rule RL002): the event lands in the node's flight ring, and
the bundle alone decides which events also form request spans in the
tracer.  Counts a component already keeps (its ``.statistics`` ints) are
exported by reading them at snapshot time, never pushed a second time.
Components default to the shared :data:`NULL_OBS` (a disabled registry +
tracer + recorder + monitor whose operations are no-ops), so
instrumentation costs ~nothing until someone attaches a real bundle.
No instrument reads a clock or an RNG — enabling observability never
perturbs the seeded simulation, so same-seed replays stay byte-identical
(the determinism tests pin this down).

Quick start::

    from repro.api import connect
    from repro.obs import Observability

    obs = Observability()
    space = connect("replicated", policy=policy, obs=obs)
    ... run a workload ...
    print(space.stats()["metrics"]["peats_operations_total"])
    for row in obs.tracer.phase_report():
        print(row)
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.obs.trace import PHASES, NullTracer, Tracer, NULL_TRACER
from repro.obs.flight import (
    EVENT_KINDS,
    FlightRecorder,
    NullFlightRecorder,
    NULL_FLIGHT,
)
from repro.obs.health import (
    HealthMonitor,
    HealthReport,
    NullHealthMonitor,
    NULL_HEALTH,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
    "PHASES",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EVENT_KINDS",
    "FlightRecorder",
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "HealthMonitor",
    "HealthReport",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "Observability",
    "NULL_OBS",
]


#: Flight kinds that are also a lifecycle phase of the event's ``key``.
_REQUEST_PHASES = frozenset({"submit", "route", "execute", "reply", "notify", "complete"})
#: Ordering kinds: one flight event per batch, one span phase per request
#: key it carries in ``keys``.
_BATCH_PHASES = frozenset({"pre-prepare", "prepare", "commit"})
#: Transaction sub-protocol steps get their own phases on ``execute``, so
#: a timeline shows prepare→decision.
_TXN_PHASES = {
    "txn_prepare": "txn-prepare",
    "txn_decision": "txn-decision",
    "txn_force": "txn-decision",
}
_SPAN_KINDS = _REQUEST_PHASES | _BATCH_PHASES


class Observability:
    """Registry + tracer + flight recorder + health monitor, one bundle.

    Every instrument defaults to a live instance; pass the matching
    null object (``NULL_FLIGHT``, ``NULL_HEALTH``, ...) to switch one
    off individually — e.g. ``Observability(flight=NULL_FLIGHT)`` is
    the tracer-only configuration the overhead bench measures.
    """

    enabled = True

    def __init__(
        self,
        *,
        registry: Any = None,
        tracer: Optional[Tracer] = None,
        flight: Optional[FlightRecorder] = None,
        health: Any = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.flight = flight if flight is not None else FlightRecorder()
        self.health = (
            health if health is not None else HealthMonitor(registry=self.registry)
        )

    def record(self, kind: str, node: Any, now: float, *, key: Any = None, **details: Any) -> None:
        """Record one ``kind`` event observed by ``node`` at ``now``.

        The event goes to ``node``'s flight ring.  Lifecycle kinds also
        advance the tracer span of request ``key`` — batch kinds the span
        of every key in ``details["keys"]``, and ``route`` is attributed
        to the ``shard-N`` it routed to.
        """
        if self.flight.enabled:
            self.flight.append(kind, node, now, key, details)
        if kind in _SPAN_KINDS and self.tracer.enabled:
            tracer = self.tracer
            if kind in _BATCH_PHASES:
                for request_key in details["keys"]:
                    tracer.record(kind, request_key, node, now)
                return
            if kind == "route":
                node = f"shard-{details['shard']}"
            tracer.record(kind, key, node, now)
            if kind == "execute" and details["operation"] in _TXN_PHASES:
                tracer.record(_TXN_PHASES[details["operation"]], key, node, now)

    def snapshot(self) -> dict[str, Any]:
        return {
            "metrics": self.registry.snapshot(),
            "tracing": self.tracer.statistics(),
            "flight": self.flight.statistics(),
            "health": self.health.statistics(),
        }

    def __repr__(self) -> str:
        return (
            f"Observability(registry={self.registry!r}, tracer={self.tracer!r}, "
            f"flight={self.flight!r}, health={self.health!r})"
        )


class _NullObservability(Observability):
    """The disabled bundle every component defaults to: every instrument
    is its null object, so :meth:`record` keeps nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(
            registry=NULL_REGISTRY, tracer=NULL_TRACER, flight=NULL_FLIGHT, health=NULL_HEALTH
        )

    def __repr__(self) -> str:
        return "NULL_OBS"


#: Shared disabled bundle (``enabled`` is False; all operations no-op).
NULL_OBS = _NullObservability()


def resolve_obs(obs: Any) -> Any:
    """Normalise an ``obs=`` argument: ``None`` → :data:`NULL_OBS`."""
    return NULL_OBS if obs is None else obs
