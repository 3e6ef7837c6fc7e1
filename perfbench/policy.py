"""The benchmark's own access policy, written in the paper's rule style.

Every operation a workload issues is granted by a rule whose condition
actually inspects the invocation (Section 3: a rule is an invocation
pattern plus a condition over the invocation and the space).  Nothing is
granted unconditionally, so every operation pays a real policy check, and
the Byzantine identity's forbidden operations are refused by the
fail-safe default or by a false condition.

Tuple shapes (the first field is the tuple name):

* ``<DECISION, round, proposer, value>`` — the per-round consensus object.
  Only ``cas`` may create it, in the style of Fig. 3: the template must be
  ``<DECISION, r, ?p, ?v>`` with ``r`` defined and the rest formal, the
  entry ``<DECISION, r, p, v>`` for the same round, and ``p`` must be the
  invoker (nobody proposes on another's behalf).  There is no ``out`` or
  removal rule for DECISION, so a decision is persistent once made.
* ``<PRIV, owner, seq, payload>`` — a private scratch tuple: only its
  owner may insert it, and only its owner may remove it.
* ``<TASK, owner, seq, payload>`` — a task of the bag: producers insert
  their own tasks, consumers remove them, everyone may read.
* ``<TOKEN-f, owner, seq>`` — an escrow token of family ``f``: anyone
  inserts tokens it owns, participants move and read them.
"""

from __future__ import annotations

from typing import Any, Collection, Hashable

from repro.policy import AccessPolicy, Condition, Invocation, Rule
from repro.tuples import Entry, Formal, Template

__all__ = [
    "DECISION",
    "PRIV",
    "TASK",
    "TOKEN_PREFIX",
    "TASK_PAYLOAD_BYTES",
    "bench_policy",
]

DECISION = "DECISION"
PRIV = "PRIV"
TASK = "TASK"
TOKEN_PREFIX = "TOKEN-"
TASK_PAYLOAD_BYTES = 64


def _is_token_name(name: Any) -> bool:
    return isinstance(name, str) and name.startswith(TOKEN_PREFIX)


def bench_policy(
    participants: Collection[Hashable],
    *,
    producers: Collection[Hashable] = (),
    consumers: Collection[Hashable] = (),
) -> AccessPolicy:
    """The policy every workload runs under.

    ``participants`` may read and take part in consensus and escrow;
    ``producers``/``consumers`` gate the task bag.
    """
    members = frozenset(participants)
    producer_set = frozenset(producers)
    consumer_set = frozenset(consumers)

    def cas_decision(invocation: Invocation, _space: Any) -> bool:
        if invocation.arity != 2 or invocation.process not in members:
            return False
        pattern, proposal = invocation.arguments
        if not (isinstance(pattern, Template) and isinstance(proposal, Entry)):
            return False
        if pattern.arity != 4 or proposal.arity != 4:
            return False
        if pattern.fields[0] != DECISION or proposal.fields[0] != DECISION:
            return False
        if isinstance(pattern.fields[1], Formal) or pattern.fields[1] != proposal.fields[1]:
            return False
        if not all(isinstance(field, Formal) for field in pattern.fields[2:]):
            return False
        return proposal.fields[2] == invocation.process

    def out_owned(invocation: Invocation, _space: Any) -> bool:
        if invocation.arity != 1:
            return False
        (item,) = invocation.arguments
        if not isinstance(item, Entry) or item.arity < 3:
            return False
        name, owner = item.fields[0], item.fields[1]
        if owner != invocation.process:
            return False
        if name == PRIV:
            return invocation.process in members and item.arity == 4
        if name == TASK:
            payload = item.fields[3] if item.arity == 4 else None
            return (
                invocation.process in producer_set
                and isinstance(payload, bytes)
                and len(payload) == TASK_PAYLOAD_BYTES
            )
        return _is_token_name(name) and item.arity == 3

    def read_shared(invocation: Invocation, _space: Any) -> bool:
        if invocation.arity != 1 or invocation.process not in members:
            return False
        pattern = invocation.arguments[0]
        if not isinstance(pattern, Template):
            return False
        name = pattern.fields[0]
        return name in (DECISION, TASK) or _is_token_name(name)

    def take(invocation: Invocation, _space: Any) -> bool:
        if invocation.arity != 1:
            return False
        pattern = invocation.arguments[0]
        if not isinstance(pattern, Template) or pattern.arity < 2:
            return False
        name = pattern.fields[0]
        if name == PRIV:
            # Only the owner may remove a private tuple: the owner field
            # must be the invoker itself, never a formal or wildcard.
            return pattern.fields[1] == invocation.process
        if name == TASK:
            return invocation.process in consumer_set
        return _is_token_name(name) and invocation.process in members

    return AccessPolicy(
        [
            Rule(
                "Rcas-decision",
                "cas",
                Condition(
                    "cas(<DECISION,r,?p,?v>, <DECISION,r,p,v>) AND p = invoker",
                    cas_decision,
                ),
            ),
            Rule(
                "Rout-owned",
                "out",
                Condition("out(<N,owner,...>) AND owner = invoker AND N allowed", out_owned),
            ),
            Rule(
                "Rrdp-shared",
                "rdp",
                Condition("rdp(<N,...>) AND invoker in participants", read_shared),
            ),
            Rule(
                "Rinp-owner",
                "inp",
                Condition("inp(<PRIV,invoker,...>) OR consumer takes TASK OR token move", take),
            ),
        ],
        name="perfbench",
    )
