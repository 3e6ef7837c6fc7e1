"""Host speed, measured inside the same pass as the workload.

The host's speed drifts by tens of percent within a minute (other
tenants share its cores): on one host, a fixed pure-Python loop took
41-65 ms per run over 40 s, and one workload's identical passes took
2.2-3.9 s.  Wall-clock figures compared across runs would mostly
measure that drift.  So the benchmark runs a small fixed reference chunk
(canonical pickle + HMAC-SHA256 + dict stores of protocol-like tuples,
~80 us) every few dozen events of the measured loop, and expresses every
wall-clock figure at a *nominal* host speed:

    normalized = measured * (nominal chunk time / measured chunk time)

The chunk only touches the standard library, never the program, so a
change to the program moves the normalized figures exactly as it moves
the raw ones; only the host's drift cancels.  The chunks' own time is
subtracted from every wall-clock interval before scaling.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import pickle
import time
from typing import Callable

__all__ = ["HostSpeed", "NOMINAL_CHUNK_S"]

#: What the reference chunk takes on the nominal host (a quiet 2-core
#: container of the machine the benchmark was written on).  It only sets
#: the scale of the normalized figures.
NOMINAL_CHUNK_S = 80e-6

_KEY = b"perfbench-host-speed-reference-k"


def _reference_chunk() -> None:
    store = {}
    for index in range(16):
        item = ("DECISION", "g1r2", index, b"x" * 16, (index, "p"))
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=4)
        pickler.fast = True
        pickler.dump(item)
        tag = hmac.new(_KEY, buffer.getvalue(), hashlib.sha256).hexdigest()
        store[tag[:6]] = item


class HostSpeed:
    """Samples the reference chunk every ``every`` ticks, timed on
    ``clock`` (the same clock the workload's figures are taken on)."""

    def __init__(self, every: int = 64, clock: Callable[[], float] = time.perf_counter) -> None:
        self.every = every
        self.clock = clock
        self.ticks = 0
        self.chunks = 0
        #: Seconds spent in reference chunks so far.
        self.spent = 0.0

    def tick(self) -> bool:
        """Count one event; run a chunk on every ``every``-th.  Returns
        False so it can prefix a loop condition (``tick() or done``)."""
        self.ticks += 1
        if self.ticks % self.every == 0:
            self.sample()
        return False

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            started = self.clock()
            _reference_chunk()
            self.spent += self.clock() - started
            self.chunks += 1

    @property
    def factor(self) -> float:
        """Nominal over measured chunk time: below 1 on a slow host."""
        if not self.chunks:
            return 1.0
        return NOMINAL_CHUNK_S * self.chunks / self.spent
