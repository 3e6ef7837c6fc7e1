"""Span tracing from the benchmark's own files.

The benchmark does not edit the program: it replaces, for the duration of
a traced run, the public functions at each layer boundary with wrappers
that record a span per call (name, start, end, parent) and per-name
counts.  Wrappers must be installed *before* ``connect()``, because
handlers are bound when a deployment is built (``network.register(node,
self.on_message)``), and at every module attribute a caller imported by
name (``repro.tspace.space.matches``, ``repro.replication.pbft.digest``).

Spans are kept in memory per thread (compact arrays, capped) and written
out when the run ends.  A span's *self* time is its duration minus the
durations of its direct children, so the self times of all spans plus the
root's remainder (``unattributed``) add up to the traced wall time.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Optional

__all__ = ["Tracer", "LAYERS", "install", "layer_of"]

#: The program's layers (module names), used as metric prefixes.  Longer
#: names first so ``layer_of`` picks the most specific one.
LAYERS = (
    "replication.client",
    "replication.pbft",
    "replication.replica",
    "replication.crypto",
    "replication.network",
    "api",
    "cluster",
    "txn",
    "notify",
    "net",
    "peo",
    "policy",
    "tspace",
    "tuples",
)

perf_counter = time.perf_counter

#: Spans kept per thread for the span file; past it only totals count.
SPAN_CAP = 1_000_000


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    return name.split(".", 1)[0]


class _ThreadRecord:
    """Spans and per-name totals recorded on one thread."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.stack: list[list] = []
        self.names = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("i")
        self.dropped = 0
        self.count: dict[int, int] = {}
        self.incl: dict[int, float] = {}
        self.self_time: dict[int, float] = {}
        self.top_level = 0.0


class Tracer:
    """Records spans while :attr:`active`; wrappers pass through otherwise."""

    def __init__(self) -> None:
        self.active = False
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        #: Free-form counters that observers bump (bytes, hits, ...).
        self.counters: dict[str, float] = {}

    # -- names ---------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.get(name)
                if nid is None:
                    nid = len(self._names)
                    self._names.append(name)
                    self._ids[name] = nid
        return nid

    # -- recording -----------------------------------------------------

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord(threading.current_thread().name)
            self._local.record = record
            with self._lock:
                self._records.append(record)
        return record

    def parent_name(self) -> Optional[str]:
        """Name of the innermost open span on this thread (observers use
        it to tell a wake-triggered probe from a timer-triggered one)."""
        stack = self._record().stack
        return self._names[stack[-1][3]] if stack else None

    def bump(self, counter: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def record(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as a root span named ``name``, recording while it runs."""
        self.active = True
        try:
            return self.span(self.intern(name), fn)
        finally:
            self.active = False

    def span(self, nid: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` inside a span named ``nid``."""
        record = self._record()
        stack = record.stack
        start = perf_counter()
        index = len(record.names)
        if index < SPAN_CAP:
            record.names.append(nid)
            record.starts.append(start)
            record.ends.append(0.0)
            record.parents.append(stack[-1][2] if stack else -1)
        else:
            index = -1
            record.dropped += 1
        frame = [start, 0.0, index, nid]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            else:
                record.top_level += duration
            record.count[nid] = record.count.get(nid, 0) + 1
            record.incl[nid] = record.incl.get(nid, 0.0) + duration
            record.self_time[nid] = record.self_time.get(nid, 0.0) + duration - frame[1]
            if index >= 0:
                record.ends[index] = end

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        namer: Optional[Callable[..., int]] = None,
        observe: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A span-recording stand-in for ``fn``.

        ``namer(*args)`` may pick the span name per call (e.g. by message
        type); ``observe(result, *args)`` sees every result while active.
        """
        nid = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            if observe is not None:
                observe(None, *args, before=True)
            result = tracer.span(nid if namer is None else namer(*args), fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args, before=False)
            return result

        traced.__perfbench_original__ = fn  # type: ignore[attr-defined]
        return traced

    # -- results -------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``count``, ``incl_s`` and ``self_s`` over threads."""
        merged: dict[str, dict[str, float]] = {}
        for record in self._records:
            for nid, count in record.count.items():
                slot = merged.setdefault(
                    self._names[nid], {"count": 0, "incl_s": 0.0, "self_s": 0.0}
                )
                slot["count"] += count
                slot["incl_s"] += record.incl[nid]
                slot["self_s"] += record.self_time[nid]
        return merged

    def thread_top_level(self) -> dict[str, float]:
        """Seconds each thread spent inside outermost spans."""
        return {record.thread_name: record.top_level for record in self._records}

    def reset(self) -> None:
        self._records = []
        self._local = threading.local()
        self.counters = {}

    def write(self, path: str) -> int:
        """Write every kept span as JSON lines; returns how many."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        written = 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self._names}) + "\n")
            for thread, record in enumerate(self._records):
                handle.write(
                    json.dumps(
                        {"thread": record.thread_name, "spans": len(record.names), "dropped": record.dropped}
                    )
                    + "\n"
                )
                for index in range(len(record.names)):
                    handle.write(
                        f"[{thread},{index},{record.names[index]},"
                        f"{record.starts[index]:.9f},{record.ends[index]:.9f},"
                        f"{record.parents[index]}]\n"
                    )
                    written += 1
        return written


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

#: Class methods wrapped per layer: (module, class, method, span name).
METHODS = (
    ("repro.api.space", "Space", "submit", "api.submit"),
    ("repro.api.space", "Space", "_submit_probe_resolving", "api.probe"),
    ("repro.api.space", "Space", "_resolve_lock", "api.resolve_lock"),
    ("repro.api.sharded", "ShardedSpace", "_resolve_lock", "api.resolve_lock"),
    ("repro.futures", "OperationFuture", "_complete", "api.future_complete"),
    ("repro.cluster.client", "ShardedClient", "submit", "cluster.submit"),
    ("repro.cluster.routing", "ShardMap", "route", "cluster.route"),
    ("repro.cluster.routing", "ShardMap", "shard_of", "cluster.shard_of"),
    ("repro.txn.manager", "CrossShardTxn", "_begin", "txn.begin"),
    ("repro.txn.manager", "CrossShardTxn", "_on_prepared", "txn.on_prepared"),
    ("repro.txn.manager", "CrossShardTxn", "_on_vote", "txn.on_vote"),
    ("repro.txn.manager", "CrossShardTxn", "_on_decided", "txn.on_decided"),
    ("repro.txn.manager", "CrossShardTxn", "_on_push", "txn.on_push"),
    ("repro.txn.manager", "CrossShardTxn", "_on_applied", "txn.on_applied"),
    ("repro.txn.manager", "CrossShardTxn", "_finish", "txn.finish"),
    ("repro.notify.waiters", "WaiterTable", "register", "notify.register"),
    ("repro.notify.waiters", "WaiterTable", "cancel", "notify.cancel"),
    ("repro.notify.waiters", "WaiterTable", "matching", "notify.matching"),
    ("repro.notify.subscription", "ClientWaiter", "record", "notify.vote"),
    ("repro.replication.client", "PEATSClient", "submit", "replication.client.submit"),
    ("repro.replication.client", "PEATSClient", "_on_message", "replication.client.on_reply"),
    ("repro.replication.client", "PEATSClient", "arm_waiter", "replication.client.arm_waiter"),
    ("repro.replication.client", "PEATSClient", "_retransmit", "replication.client.retransmit"),
    ("repro.replication.pbft", "OrderingNode", "on_message", "replication.pbft.on_message"),
    ("repro.replication.pbft", "OrderingNode", "check_timeouts", "replication.pbft.check_timeouts"),
    ("repro.replication.pbft", "OrderingNode", "_take_checkpoint", "replication.pbft.take_checkpoint"),
    ("repro.replication.replica", "PEATSReplica", "execute", "replication.replica.execute"),
    ("repro.replication.replica", "PEATSReplica", "state_digest", "replication.replica.state_digest"),
    ("repro.replication.replica", "PEATSReplica", "register_waiter", "replication.replica.register_waiter"),
    ("repro.replication.crypto", "MessageAuthenticator", "mac", "replication.crypto.mac"),
    ("repro.replication.crypto", "MessageAuthenticator", "verify", "replication.crypto.verify"),
    ("repro.replication.crypto", "KeyStore", "shared_key", "replication.crypto.shared_key"),
    ("repro.replication.network", "SimulatedNetwork", "step", "replication.network.step"),
    ("repro.replication.network", "SimulatedNetwork", "send", "replication.network.send"),
    ("repro.net.transport", "RealTransport", "send", "net.send"),
    ("repro.net.transport", "RealTransport", "_handle_delivery", "net.deliver"),
    ("repro.net.transport", "Reactor", "call_soon", "net.call_soon"),
    ("repro.peo.peats", "PEATS", "execute_operation", "peo.execute_operation"),
    ("repro.peo.base", "PolicyEnforcedObject", "_guarded", "peo.guarded"),
    ("repro.policy.monitor", "ReferenceMonitor", "authorize", "policy.authorize"),
    ("repro.policy.policy", "AccessPolicy", "evaluate", "policy.evaluate"),
    ("repro.tspace.space", "TupleSpace", "out", "tspace.out"),
    ("repro.tspace.space", "TupleSpace", "rdp", "tspace.rdp"),
    ("repro.tspace.space", "TupleSpace", "inp", "tspace.inp"),
    ("repro.tspace.space", "TupleSpace", "snapshot", "tspace.snapshot"),
    ("repro.tspace.augmented", "AugmentedTupleSpace", "cas", "tspace.cas"),
)

#: Module-level functions wrapped wherever a module holds them by name.
FUNCTIONS = (
    ("repro.replication.crypto", "canonical_bytes", "replication.crypto.canonical_bytes"),
    ("repro.replication.crypto", "digest", "replication.crypto.digest"),
    ("repro.tuples.matching", "matches", "tuples.matches"),
    ("repro.txn.legs", "resolve_legs", "txn.resolve_legs"),
    ("repro.txn.legs", "apply_legs", "txn.apply_legs"),
    ("repro.txn.manager", "plan_legs", "txn.plan_legs"),
)


def _observers(tracer: Tracer) -> dict[str, dict[str, Callable]]:
    """Per span name: a ``namer`` and/or an ``observe`` hook."""
    type_ids: dict[type, int] = {}

    def on_message_name(_node: Any, _sender: Any, payload: Any) -> int:
        kind = type(payload)
        nid = type_ids.get(kind)
        if nid is None:
            nid = type_ids[kind] = tracer.intern(f"replication.pbft.on_message.{kind.__name__}")
        return nid

    def count_bytes(result: Any, *_args: Any, before: bool) -> None:
        if not before:
            tracer.bump("canonical_bytes.bytes", len(result))

    def count_hits(result: Any, *_args: Any, before: bool) -> None:
        if not before and result:
            tracer.bump("matches.hits")

    def probe_origin(_result: Any, *_args: Any, before: bool) -> None:
        if before:
            tracer.bump(f"probe.parent.{tracer.parent_name()}")

    def client_message(_result: Any, _client: Any, _sender: Any, payload: Any, before: bool) -> None:
        if before:
            tracer.bump(f"client.message.{type(payload).__name__}")

    def client_submit(_result: Any, _client: Any, operation: str, *_rest: Any, before: bool) -> None:
        if before:
            tracer.bump(f"client.submit.{operation}")

    return {
        "replication.pbft.on_message": {"namer": on_message_name},
        "replication.crypto.canonical_bytes": {"observe": count_bytes},
        "tuples.matches": {"observe": count_hits},
        "api.probe": {"observe": probe_origin},
        "replication.client.on_reply": {"observe": client_message},
        "replication.client.submit": {"observe": client_submit},
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary listed above.  Call before ``connect()``."""
    hooks = _observers(tracer)
    for module_name, class_name, method, span in METHODS:
        owner = getattr(importlib.import_module(module_name), class_name)
        original = owner.__dict__[method]
        setattr(owner, method, tracer.wrap(span, original, **hooks.get(span, {})))
    for module_name, attribute, span in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attribute)
        wrapped = tracer.wrap(span, original, **hooks.get(span, {}))
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                module.__dict__.get(attribute) is original
            ):
                setattr(module, attribute, wrapped)
