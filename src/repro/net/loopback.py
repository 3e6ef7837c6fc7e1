"""In-process asyncio transport: real concurrency, in-memory delivery.

:class:`AsyncioLoopbackTransport` is the first rung of the deployment
ladder after the simulation: the same nodes, handlers, MAC-authenticated
envelopes and timer semantics as
:class:`~repro.replication.network.SimulatedNetwork`, but driven by real
asyncio event loops on real threads with wall-clock time.  Payloads stay
in memory (serialised only to be MAC'd, once per send or broadcast),
which makes this transport the calibration instrument for the
simulation's per-message ``processing_time`` model: the loopback
measures what one reactor can actually sustain, and
``benchmarks/bench_net_calibration.py`` fits the sim's knob to it.

Deliveries hop onto the *receiver's* reactor, so a node's handler runs
serially on its pinned loop exactly like in the simulation; with
``reactors > 1`` a sharded cluster pins each replica group to its own
loop and the groups genuinely run in parallel.
"""

from __future__ import annotations

from typing import Any, Hashable

from repro.net.transport import RealTransport
from repro.replication.crypto import KeyStore

__all__ = ["AsyncioLoopbackTransport"]


class AsyncioLoopbackTransport(RealTransport):
    """Asyncio tasks + queues transport delivering payloads in memory."""

    def __init__(
        self,
        *,
        reactors: int = 1,
        keystore: KeyStore | None = None,
        default_wait_timeout: float = 30_000.0,
        obs: Any = None,
    ) -> None:
        super().__init__(
            reactors=reactors,
            keystore=keystore,
            default_wait_timeout=default_wait_timeout,
            name="loopback",
            obs=obs,
        )

    def _dispatch(
        self, sender: Hashable, receiver: Hashable, payload: Any, mac: str, data: bytes
    ) -> None:
        # The payload crosses threads by reference, next to the bytes the
        # sender MAC'd; the MAC is verified over those bytes on the
        # receiving reactor, so the authentication cost lands on the
        # receiver, mirroring the simulation's processing model.
        self.reactor_of(receiver).call_soon(
            lambda: self._handle_delivery(sender, receiver, payload, mac, data)
        )
