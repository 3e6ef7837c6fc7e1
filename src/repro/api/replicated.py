"""The replicated backend of the unified API: one PBFT group.

:class:`ReplicatedSpace` fronts a :class:`~repro.replication.service.
ReplicatedPEATS`.  Each ``process`` maps to one authenticated
:class:`~repro.replication.client.PEATSClient` identity (memoized on the
service), probes resolve through the ``f + 1`` reply vote, and blocking
reads are the Section 4 polling recipe scheduled on the network's virtual
clock — all in **simulated milliseconds**.

The sharded backend (:class:`~repro.api.sharded.ShardedSpace`) is this
class over several groups sharing one network: it inherits the clock,
driving and snapshot plumbing here and overrides only routing,
transactions, lock resolution and the set of groups a waiter arms on
(:meth:`ReplicatedSpace._waiter_groups`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.errors import ReplicationError
from repro.futures import OperationFuture
from repro.api.space import Space
from repro.notify import Subscription, WaiterHandle
from repro.replication.service import ReplicatedPEATS
from repro.tuples import Entry

__all__ = ["ReplicatedSpace"]


class ReplicatedSpace(Space):
    """Unified handle over one ``3f + 1``-replica PBFT group."""

    backend = "replicated"
    time_unit = "simulated ms"

    def __init__(self, service: ReplicatedPEATS) -> None:
        self._service = service
        # On a real transport (repro.net) the deployment's clock is the
        # wall clock; label timeouts accordingly (same numeric defaults —
        # a millisecond is a millisecond on either clock).
        if not getattr(service.network, "virtual_time", True):
            self.time_unit = service.network.time_unit

    @property
    def service(self) -> ReplicatedPEATS:
        return self._service

    @property
    def network(self):
        return self._service.network

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------

    def _submit_probe(
        self, operation: str, arguments: tuple, process: Hashable
    ) -> OperationFuture:
        return self._service.client(process).submit(operation, tuple(arguments))

    def _submit_txn(
        self, legs: tuple, process: Hashable, replica_ids: tuple | None = None
    ) -> OperationFuture:
        """One group holds every leg, so one ordered ``txn_exec`` request
        is the whole commit: the PBFT instance is the atomicity.
        ``replica_ids`` names that group on a sharded deployment."""
        client = self._service.client(process)
        return self._resolving(
            "txn_exec",
            lambda: client.submit("txn_exec", (legs,), replica_ids=replica_ids),
            process,
        )

    def _drive(self, future: OperationFuture) -> None:
        self._service.network.run_until(lambda: future.done)
        if not future.done:  # pragma: no cover - retransmit timers prevent this
            raise ReplicationError(
                f"network drained before {future!r} resolved"
            )

    def _now(self) -> float:
        return self._service.network.now

    def _schedule(self, delay: float, callback: Callable[[], None]) -> None:
        self._service.network.schedule_after(delay, callback)

    def snapshot(self) -> tuple[Entry, ...]:
        return self._service.snapshot()

    # ------------------------------------------------------------------
    # Notification channel (repro.notify)
    # ------------------------------------------------------------------

    def _waiter_groups(self, template: Any) -> tuple[tuple[Any, Any], ...]:
        """``(shard, group)`` pairs that must hold a waiter for
        ``template``; a single group is every replica, untagged."""
        return ((None, self._service),)

    def _arm_waiter(self, operation, template, process, wake):
        """Arm one waiter per owning replica group (f+1 vote per group)."""
        client = self._service.client(process)
        waiters = [
            client.arm_waiter(template, operation, wake, replica_ids=group.replica_ids)
            for _, group in self._waiter_groups(template)
        ]
        if not waiters:
            return None

        def cancel() -> None:
            for waiter in waiters:
                client.disarm_waiter(waiter.waiter_id)

        def rearm() -> None:
            # Refresh every per-group registration: a wake from shard A
            # followed by a miss may mean the tuple was consumed by a
            # transaction leg on shard B, whose registrations are the
            # stale ones.
            for waiter in waiters:
                client.rearm_waiter(waiter.waiter_id)

        return WaiterHandle(waiters[0].waiter_id, cancel, rearm=rearm)

    def _register_watch(self, subscription: Subscription, process: Hashable):
        """Register the watch on every owning group; events are tagged with
        the pushing group's shard id and merged in network-delivery order
        (deterministic under the seeded transports)."""
        client = self._service.client(process)
        groups = self._waiter_groups(subscription.template)
        if not groups:
            raise ReplicationError(
                f"watch() requires an Entry or Template, "
                f"got {type(subscription.template).__name__}"
            )
        waiters = []
        for shard, group in groups:
            def deliver(entry, event, _shard=shard):
                subscription.deliver(entry, event, shard=_shard)

            waiters.append(
                client.arm_waiter(
                    subscription.template, "watch", deliver,
                    replica_ids=group.replica_ids,
                )
            )

        def cancel() -> None:
            for waiter in waiters:
                client.disarm_waiter(waiter.waiter_id)

        return cancel

    def _stats_extra(self) -> dict:
        return {
            "nodes": {node.replica_id: node.statistics for node in self._service.nodes},
            "notify": {
                "waiters": {
                    node.replica_id: len(node.application.waiters)
                    for node in self._service.nodes
                },
            },
        }

    def __repr__(self) -> str:
        return f"ReplicatedSpace(f={self._service.f}, replicas={self._service.n_replicas})"
