"""Abstract interface of an augmented tuple space.

Every tuple-space flavour in the library — the plain in-memory space, the
linearizable wrapper, the policy-enforced PEATS and every
:class:`~repro.api.Space` (local, replicated or sharded) — implements this
interface, so the consensus algorithms and universal constructions of
Sections 5 and 6 run unchanged on any of them.

Shared spaces (a :class:`~repro.peo.peats.PEATS`, every
:class:`~repro.api.Space`) offer ``bind(process)``, whose per-process view
speaks this interface; :func:`bound_view` is the one place that turns a
shared space *or* an already-bound view into such a view, so algorithms
never guess at the ``process=`` keyword by calling and catching
:class:`TypeError`.
"""

from __future__ import annotations

import abc
import inspect
from typing import Any, Hashable, Optional

from repro.tuples import Entry, Template

__all__ = ["TupleSpaceInterface", "bound_view"]


class TupleSpaceInterface(abc.ABC):
    """Operations of an augmented tuple space.

    The read operations come in two flavours: ``rd``/``in`` block until a
    matching tuple exists, while ``rdp``/``inp`` return immediately with
    ``None`` when there is no match.  ``cas(template, entry)`` atomically
    executes ``if not rdp(template): out(entry)`` and reports whether the
    entry was inserted; when it was not, the matching tuple (the "reading of
    the template") is returned alongside the boolean so callers can recover
    the formal-field bindings, exactly as the algorithms in the paper expect
    (``?d`` is set by the failed ``cas``).
    """

    @abc.abstractmethod
    def out(self, entry: Entry) -> bool:
        """Insert ``entry`` in the space.  Returns ``True`` on success."""

    @abc.abstractmethod
    def rdp(self, template: Template) -> Optional[Entry]:
        """Non-blocking read: a matching entry, or ``None``."""

    @abc.abstractmethod
    def inp(self, template: Template) -> Optional[Entry]:
        """Non-blocking destructive read: remove and return a match, or ``None``."""

    @abc.abstractmethod
    def rd(self, template: Template, *, timeout: float | None = None) -> Entry:
        """Blocking read: wait until a matching entry exists and return it."""

    @abc.abstractmethod
    def in_(self, template: Template, *, timeout: float | None = None) -> Entry:
        """Blocking destructive read: wait for a match, remove and return it."""

    @abc.abstractmethod
    def cas(self, template: Template, entry: Entry) -> tuple[bool, Optional[Entry]]:
        """Conditional atomic swap: ``if not rdp(template): out(entry)``.

        Returns ``(True, None)`` when the entry was inserted and
        ``(False, match)`` when a tuple matching ``template`` already
        existed (``match`` is that tuple).
        """

    # ------------------------------------------------------------------
    # Introspection helpers shared by all implementations.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def snapshot(self) -> tuple[Entry, ...]:
        """Return all entries currently stored (for tests and policies)."""

    def count(self, template: Template) -> int:
        """Number of stored entries matching ``template``."""
        from repro.tuples import matches

        return sum(1 for stored in self.snapshot() if matches(stored, template))

    def __len__(self) -> int:
        return len(self.snapshot())

    def __contains__(self, item: Any) -> bool:
        from repro.tuples import Entry as _Entry, matches

        if isinstance(item, _Entry):
            return any(stored == item for stored in self.snapshot())
        if isinstance(item, Template):
            return any(matches(stored, item) for stored in self.snapshot())
        return False


def _accepts_process(method: Any) -> bool:
    """Whether ``method`` takes a ``process=`` keyword.

    Decided from the signature, not by calling and catching
    :class:`TypeError` — a ``TypeError`` raised *inside* a mutating
    operation must propagate, never trigger a second execution.
    Uninspectable callables are treated as keyword-less (the safe,
    single-execution default).
    """
    try:
        signature = inspect.signature(method)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == "process" and parameter.kind in (
            inspect.Parameter.KEYWORD_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            return True
    return False


class _KeywordBoundView:
    """Shim forwarding operations with ``process=`` where accepted."""

    def __init__(self, space: Any, process: Hashable) -> None:
        self._space = space
        self._process = process
        self._takes_process: dict[str, bool] = {}

    def _invoke(self, operation: str, *arguments: Any) -> Any:
        method = getattr(self._space, operation)
        if operation not in self._takes_process:
            self._takes_process[operation] = _accepts_process(method)
        if self._takes_process[operation]:
            return method(*arguments, process=self._process)
        return method(*arguments)

    def out(self, entry: Entry) -> Any:
        return self._invoke("out", entry)

    def rdp(self, template: Template) -> Optional[Entry]:
        return self._invoke("rdp", template)

    def inp(self, template: Template) -> Optional[Entry]:
        return self._invoke("inp", template)

    def cas(self, template: Template, entry: Entry) -> Any:
        return self._invoke("cas", template, entry)

    def snapshot(self) -> tuple[Entry, ...]:
        return self._space.snapshot()

    def __repr__(self) -> str:
        return f"_KeywordBoundView(process={self._process!r})"


def bound_view(space: Any, process: Hashable) -> Any:
    """A per-process view of ``space`` (the unified-protocol entry point)."""
    bind = getattr(space, "bind", None)
    if callable(bind):
        return bind(process)
    return _KeywordBoundView(space, process)
