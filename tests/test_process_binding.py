"""Tests for :func:`repro.tspace.interface.bound_view`, the one place that
binds a shared space to an invoking process.

The algorithms (weak/strong/default consensus, the lock-free and wait-free
universal constructions, the Byzantine strategy library) all resolve their
per-process view through it.  The view is chosen from the space's shape,
never by calling with ``process=`` and retrying on :class:`TypeError` — a
``TypeError`` raised *inside* an operation that already executed must
propagate instead of running the operation a second time as nobody.
"""

import pytest

from repro.api import BoundSpace, connect
from repro.consensus import WeakConsensus
from repro.peo import PEATS
from repro.peo.peats import ProcessBoundPEATS
from repro.policy import strong_consensus_policy
from repro.tspace.interface import bound_view
from repro.tuples import Formal, entry, template
from repro.universal import LockFreeUniversalConstruction, WaitFreeUniversalConstruction
from repro.universal.emulated import counter_type


class ExecutesThenRaises:
    """A shared space whose ``cas`` executes, then raises ``TypeError``.

    Models an operation that fails *after* its side effect (e.g. a result
    conversion bug): every execution is recorded with its invoker.
    """

    def __init__(self) -> None:
        self.executions: list[tuple[str, object]] = []

    def out(self, entry, *, process=None):
        return True

    def rdp(self, template, *, process=None):
        return None

    def inp(self, template, *, process=None):
        return None

    def cas(self, template, entry, *, process=None):
        self.executions.append(("cas", process))
        raise TypeError("result conversion failed after the cas executed")

    def snapshot(self):
        return ()


PROPOSAL = entry("PROPOSE", 0, 1)


class TestBoundView:
    def test_peats_gives_its_own_bind_view(self):
        peats = PEATS(strong_consensus_policy(range(4), 1))
        view = bound_view(peats, 0)
        assert isinstance(view, ProcessBoundPEATS)
        assert view.process == 0
        assert view.out(PROPOSAL) is True

    def test_space_gives_its_own_bind_view(self):
        space = connect("local", policy=strong_consensus_policy(range(4), 1))
        view = bound_view(space, 0)
        assert isinstance(view, BoundSpace)
        assert view.process == 0
        assert view.out(PROPOSAL) is True

    @pytest.mark.parametrize("make_bound", ["peats", "space"])
    def test_already_bound_view_keeps_its_identity(self, make_bound):
        # An already-bound view has no bind(): the keyword shim calls it
        # without process= (its methods take none), so the operation runs
        # as the view's identity (0, allowed to propose for itself), not
        # as the shim's (3).
        policy = strong_consensus_policy(range(4), 1)
        if make_bound == "peats":
            bound = PEATS(policy).bind(0)
        else:
            bound = connect("local", policy=policy).bind(0)
        view = bound_view(bound, 3)
        assert not isinstance(view, (ProcessBoundPEATS, BoundSpace))
        assert view.out(PROPOSAL) is True
        assert len(view.snapshot()) == 1

    def test_type_error_inside_an_operation_propagates_after_one_execution(self):
        space = ExecutesThenRaises()
        view = bound_view(space, "p1")
        with pytest.raises(TypeError, match="after the cas executed"):
            view.cas(template("DECISION", Formal("d")), entry("DECISION", 1))
        assert space.executions == [("cas", "p1")]


class TestNoSecondExecution:
    """Regression: each algorithm used to retry a ``process=`` call that
    raised ``TypeError`` without the keyword, executing it twice — the
    second time with ``process=None``."""

    def test_weak_consensus(self):
        space = ExecutesThenRaises()
        with pytest.raises(TypeError):
            WeakConsensus(space).propose("p1", "v1")
        assert space.executions == [("cas", "p1")]

    def test_lock_free_handle(self):
        space = ExecutesThenRaises()
        handle = LockFreeUniversalConstruction(counter_type(), space=space).handle("w1")
        with pytest.raises(TypeError):
            handle.invoke("increment")
        assert space.executions == [("cas", "w1")]

    def test_wait_free_handle(self):
        space = ExecutesThenRaises()
        construction = WaitFreeUniversalConstruction(counter_type(), ["a", "b"], space=space)
        with pytest.raises(TypeError):
            construction.handle("a").invoke("increment")
        assert space.executions == [("cas", "a")]
