"""Workload definitions: closed-loop client programs, their op plans and
the ledger that checks every output.

A client program is a small state machine.  Everything random about it
(proposal values, payload bytes, victims of the Byzantine identity,
transfer families, which producer a consumer serves) is drawn from the
workload seed into a *plan* when the program is built, so the system
under test only ever receives the generated operations, and the same
seed always yields the same plan.  The program then issues one operation
at a time and reacts to its reply: this is a closed loop (PBFT allows one
outstanding request per client identity), so load is stated as a client
count.

Why each workload exists and what each should move is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import random
from typing import Any, Callable, Hashable, Optional

from perfbench.policy import DECISION, PRIV, TASK, TASK_PAYLOAD_BYTES, TOKEN_PREFIX, bench_policy
from repro.peo.base import DENIED
from repro.tuples import Entry, Formal, entry, template

__all__ = ["Op", "Ledger", "Workload", "WORKLOADS"]


@dataclasses.dataclass
class Op:
    """One generated operation and what the checker needs to judge it."""

    operation: str
    arguments: tuple
    tag: str
    key: Any = None
    forbidden: bool = False


class Ledger:
    """Collects every output of one pass and judges it.

    ``failures`` counts operations whose outcome was wrong: an exception,
    a wrong answer, a denied correct operation or a granted forbidden one.
    :meth:`finish` adds the whole-pass invariants (per-round agreement,
    the task-bag multiset, token conservation).
    """

    def __init__(self) -> None:
        self.failures = 0
        self.messages: list[str] = []
        self.forbidden_attempts = 0
        self.forbidden_denied = 0
        self.decision_inserts: dict[Any, list[Entry]] = collections.defaultdict(list)
        self.decision_seen: dict[Any, list[Entry]] = collections.defaultdict(list)
        self.tasks_put: collections.Counter = collections.Counter()
        self.tasks_taken: collections.Counter = collections.Counter()
        self.transfers_committed = 0
        self.transfers_aborted: collections.Counter = collections.Counter()
        self.blocking_reads = 0

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def finish(self, snapshot: Callable[[], tuple], workload: "Workload") -> None:
        for key, inserted in self.decision_inserts.items():
            if len(inserted) != 1:
                self.fail(f"round {key!r}: {len(inserted)} cas winners")
        for key, seen in self.decision_seen.items():
            winners = self.decision_inserts.get(key)
            if not winners:
                self.fail(f"round {key!r}: a decision was read but no cas inserted it")
                continue
            wrong = sum(1 for item in seen if item != winners[0])
            if wrong:
                self.fail(f"round {key!r}: {wrong} reads disagree with the winner")
        if workload.kind == "taskbag":
            remaining = collections.Counter(
                item for item in snapshot() if item.fields[0] == TASK
            )
            expected = self.tasks_put - self.tasks_taken
            if remaining != expected:
                self.fail(
                    f"task bag holds {sum(remaining.values())} tasks, "
                    f"expected puts - takes = {sum(expected.values())}"
                )
        if workload.kind == "escrow":
            tokens = sum(
                1 for item in snapshot() if str(item.fields[0]).startswith(TOKEN_PREFIX)
            )
            if tokens != workload.tokens:
                self.fail(f"{tokens} tokens after the run, expected {workload.tokens}")

    def digest(self) -> str:
        """Order-independent digest of the judged outcomes (replay check)."""
        parts = [
            self.failures,
            self.forbidden_attempts,
            self.forbidden_denied,
            sorted((repr(k), repr(v)) for k, v in self.decision_inserts.items()),
            sorted(self.tasks_taken.items(), key=repr),
            self.transfers_committed,
            sorted(self.transfers_aborted.items()),
        ]
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _status(outcome: Any) -> tuple[Any, Any]:
    if isinstance(outcome, tuple) and len(outcome) == 2:
        return outcome
    return ("malformed", outcome)


# ----------------------------------------------------------------------
# Client programs
# ----------------------------------------------------------------------


class Program:
    """A closed-loop client: ``next_op`` then ``judge`` its outcome."""

    name: Hashable
    budget: int

    def __init__(self, name: Hashable, budget: int) -> None:
        self.name = name
        self.budget = budget
        self.issued = 0

    @property
    def finished(self) -> bool:
        return self.issued >= self.budget

    def next_op(self) -> Op:
        op = self._op(self.issued)
        self.issued += 1
        return op

    def _op(self, index: int) -> Op:  # pragma: no cover - interface
        raise NotImplementedError

    def judge(self, op: Op, outcome: Any, error: Optional[BaseException], ledger: Ledger) -> None:
        if op.forbidden:
            ledger.forbidden_attempts += 1
            if error is None and _status(outcome)[0] == DENIED:
                ledger.forbidden_denied += 1
            else:
                ledger.fail(f"{self.name}: forbidden {op.tag} was not denied: {outcome!r} {error!r}")
            return
        if error is not None:
            ledger.fail(f"{self.name}: {op.tag} raised {type(error).__name__}: {error}")
            return
        status, value = _status(outcome)
        if status != "OK":
            ledger.fail(f"{self.name}: correct {op.tag} got {status}: {value!r}")
            return
        self._judge_ok(op, value, ledger)

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:  # pragma: no cover
        raise NotImplementedError

    def plan_fingerprint(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError


def _decision_template(round_key: Any):
    return template(DECISION, round_key, Formal("p"), Formal("v"))


class ConsensusClient(Program):
    """Races a ``cas`` on its group's per-round DECISION, reads the winner
    back, then puts and takes one private tuple: 4 ops per round."""

    def __init__(self, name: str, group: int, rounds: int, rng: random.Random) -> None:
        super().__init__(name, 4 * rounds)
        self.group = group
        self.proposals = [rng.randrange(1_000_000) for _ in range(rounds)]
        self.payloads = [rng.randbytes(16) for _ in range(rounds)]

    def round_key(self, round_index: int) -> str:
        return f"g{self.group}r{round_index}"

    def _op(self, index: int) -> Op:
        round_index, step = divmod(index, 4)
        key = self.round_key(round_index)
        if step == 0:
            proposal = entry(DECISION, key, self.name, self.proposals[round_index])
            return Op("cas", (_decision_template(key), proposal), "cas", key)
        if step == 1:
            return Op("rdp", (_decision_template(key),), "rdp-decision", key)
        private = entry(PRIV, self.name, round_index, self.payloads[round_index])
        if step == 2:
            return Op("out", (private,), "out-private", private)
        return Op(
            "inp",
            (template(PRIV, self.name, round_index, Formal("payload")),),
            "inp-private",
            private,
        )

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:
        if op.tag == "cas":
            inserted, existing = value
            if inserted is True:
                ledger.decision_inserts[op.key].append(op.arguments[1])
            elif isinstance(existing, Entry):
                ledger.decision_seen[op.key].append(existing)
            else:
                ledger.fail(f"{self.name}: cas on {op.key} returned {value!r}")
        elif op.tag == "rdp-decision":
            if not isinstance(value, Entry):
                ledger.fail(f"{self.name}: no decision readable for {op.key} after cas")
            else:
                ledger.decision_seen[op.key].append(value)
        elif op.tag == "out-private":
            if value is not True:
                ledger.fail(f"{self.name}: out returned {value!r}")
        elif value != op.key:
            ledger.fail(f"{self.name}: inp returned {value!r}, expected {op.key!r}")

    def plan_fingerprint(self) -> str:
        return repr((self.name, self.group, self.proposals, self.payloads))


class ByzantineClient(Program):
    """Spends every other op on a forbidden one (a forged DECISION ``out``,
    an ``inp`` of another client's private tuple, a ``cas`` whose entry
    names another round) and the rest on legitimate DECISION reads."""

    FORBIDDEN = ("forged-out", "foreign-inp", "mismatched-cas")

    def __init__(
        self, name: str, victims: list[str], groups: int, rounds: int, budget: int, rng: random.Random
    ) -> None:
        super().__init__(name, budget)
        self.plan = [
            (rng.choice(victims), rng.randrange(groups), rng.randrange(rounds), rng.randrange(1_000_000))
            for _ in range(budget)
        ]

    def _op(self, index: int) -> Op:
        victim, group, round_index, value = self.plan[index]
        key = f"g{group}r{round_index}"
        if index % 2 == 1:
            return Op("rdp", (_decision_template(key),), "byz-rdp", key)
        kind = self.FORBIDDEN[(index // 2) % len(self.FORBIDDEN)]
        if kind == "forged-out":
            forged = entry(DECISION, key, victim, value)
            return Op("out", (forged,), kind, key, forbidden=True)
        if kind == "foreign-inp":
            pattern = template(PRIV, victim, Formal("r"), Formal("payload"))
            return Op("inp", (pattern,), kind, key, forbidden=True)
        other = f"g{group}r{round_index + 1}"
        proposal = entry(DECISION, other, self.name, value)
        return Op("cas", (_decision_template(key), proposal), kind, key, forbidden=True)

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:
        # A legitimate read may run before the round is decided (None);
        # whatever it does return must agree with the round's winner.
        if value is not None:
            ledger.decision_seen[op.key].append(value)

    def plan_fingerprint(self) -> str:
        return repr((self.name, self.plan))


class Producer(Program):
    """Puts its own tasks; every eighth op reads the bag."""

    def __init__(self, name: str, budget: int, rng: random.Random) -> None:
        super().__init__(name, budget)
        self.payloads = [rng.randbytes(TASK_PAYLOAD_BYTES) for _ in range(budget)]

    def _op(self, index: int) -> Op:
        if index % 8 == 7:
            return Op("rdp", (template(TASK, Formal("o"), Formal("s"), Formal("b")),), "rdp-task")
        task = entry(TASK, self.name, index, self.payloads[index])
        return Op("out", (task,), "out-task", task)

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:
        if op.tag == "out-task":
            if value is True:
                ledger.tasks_put[op.key] += 1
            else:
                ledger.fail(f"{self.name}: out returned {value!r}")
        elif value is not None and (not isinstance(value, Entry) or value.fields[0] != TASK):
            ledger.fail(f"{self.name}: rdp returned {value!r}")

    def plan_fingerprint(self) -> str:
        return repr((self.name, self.payloads))


class Consumer(Program):
    """Alternates a blocking ``in`` of the next producer's task (producers
    served in a seeded rotation) with a read of the bag."""

    def __init__(self, name: str, budget: int, producers: list[str], rng: random.Random) -> None:
        super().__init__(name, budget)
        self.rotation = [rng.choice(producers) for _ in range(budget)]

    def _op(self, index: int) -> Op:
        if index % 2 == 1:
            return Op("rdp", (template(TASK, Formal("o"), Formal("s"), Formal("b")),), "rdp-task")
        owner = self.rotation[index]
        pattern = template(TASK, owner, Formal("s"), Formal("b"))
        return Op("in", (pattern,), "in-task", owner)

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:
        if op.tag == "in-task":
            ledger.blocking_reads += 1
            if not isinstance(value, Entry) or value.fields[:2] != (TASK, op.key):
                ledger.fail(f"{self.name}: in returned {value!r}")
            else:
                ledger.tasks_taken[value] += 1
        elif value is not None and (not isinstance(value, Entry) or value.fields[0] != TASK):
            ledger.fail(f"{self.name}: rdp returned {value!r}")

    def plan_fingerprint(self) -> str:
        return repr((self.name, self.rotation))


class EscrowClient(Program):
    """Mixes atomic ``transfer``s between token families (a cross-group
    commit when the families differ) with single-group reads.

    Every client runs the same composition per cycle of 64 ops: one
    transfer per ordered family pair (6 cross-group, 3 same-family) and 55
    reads of seeded families, in a seeded order, so each client's flows
    leave every family's token count balanced.  The mix is fixed, and
    read-heavy, so that both percentiles are statistics on every seed:
    the latency distribution has plateaus (reads ~6 ms, uncontended
    commits ~22 ms, lock-delayed commits 40-270 ms, the crash outage up to
    ~370 ms), and the crash can delay at most one op per client (8), so a
    p99 needs well over 1,000 ops per pass to rest on ten samples beyond
    it; cross-group commits cost ~12 reads each.  With this mix the median
    sits inside the read plateau and the p99 inside the commit tail.
    """

    def __init__(self, name: str, budget: int, families: int, rng: random.Random) -> None:
        super().__init__(name, budget)
        self.plan: list[tuple] = []
        while len(self.plan) < budget:
            cycle: list[tuple] = [
                ("transfer", source, destination)
                for source in range(families)
                for destination in range(families)
            ]
            cycle += [("rdp", rng.randrange(families)) for _ in range(55)]
            rng.shuffle(cycle)
            self.plan.extend(cycle)
        del self.plan[budget:]

    def _op(self, index: int) -> Op:
        step = self.plan[index]
        if step[0] == "rdp":
            pattern = template(f"{TOKEN_PREFIX}{step[1]}", Formal("o"), Formal("s"))
            return Op("rdp", (pattern,), "rdp-token", (step[1],))
        _, source, destination = step
        take = template(f"{TOKEN_PREFIX}{source}", Formal("o"), Formal("s"))
        put = entry(f"{TOKEN_PREFIX}{destination}", self.name, index)
        return Op("transfer", (take, put), "transfer", (source, destination))

    def _judge_ok(self, op: Op, value: Any, ledger: Ledger) -> None:
        if op.tag == "transfer":
            verdict = value[0] if isinstance(value, tuple) and value else None
            if verdict == "committed":
                ledger.transfers_committed += 1
                return
            reason = value[1] if verdict == "aborted" and len(value) > 1 else None
            label = reason[0] if isinstance(reason, tuple) and reason else repr(reason)
            if label in ("no-match", "locked", "match"):
                ledger.transfers_aborted[label] += 1
            else:
                ledger.fail(f"{self.name}: transfer ended {value!r}")
        elif value is not None and (
            not isinstance(value, Entry)
            or value.fields[0] != f"{TOKEN_PREFIX}{op.key[0]}"
        ):
            ledger.fail(f"{self.name}: rdp returned {value!r}")

    def plan_fingerprint(self) -> str:
        return repr((self.name, self.plan))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclasses.dataclass
class Workload:
    """One named workload: its deployment shape and its client programs.

    ``rounds`` (consensus) or ``budget`` (ops per client) sizes one
    *pass*: a fresh deployment driven through a fixed, seed-determined
    amount of work.  A run repeats passes on the same seed until its time
    is up and reports medians over them.
    """

    name: str
    kind: str  # consensus | taskbag | escrow
    transport: str  # sim | asyncio
    shards: int
    identities: int
    rounds: int = 0
    budget: int = 0
    tokens: int = 0
    crash_after: Optional[int] = None

    def programs(self, seed: int) -> list[Program]:
        rng = random.Random(f"{self.name}:{seed}")
        if self.kind == "consensus":
            correct = [f"c{index:02d}" for index in range(self.identities - 1)]
            groups = (len(correct) + 3) // 4
            programs: list[Program] = [
                ConsensusClient(name, index // 4, self.rounds, rng)
                for index, name in enumerate(correct)
            ]
            programs.append(
                ByzantineClient("byz", correct, groups, self.rounds, 4 * self.rounds, rng)
            )
            return programs
        if self.kind == "taskbag":
            producers = [f"p{index:02d}" for index in range(12)]
            consumers = [f"w{index:02d}" for index in range(self.identities - 12)]
            return [Producer(name, self.budget, rng) for name in producers] + [
                Consumer(name, self.budget, producers, rng) for name in consumers
            ]
        names = [f"e{index:02d}" for index in range(self.identities)]
        return [EscrowClient(name, self.budget, self.shards, rng) for name in names]

    def policy(self, programs: list[Program]):
        names = [program.name for program in programs]
        if self.kind == "taskbag":
            return bench_policy(
                names,
                producers=[p.name for p in programs if isinstance(p, Producer)],
                consumers=[p.name for p in programs if isinstance(p, Consumer)],
            )
        return bench_policy(names)

    def warm_up_ops(self, programs: list[Program]) -> list[tuple[Hashable, Op]]:
        """One allowed read per identity: creates every client identity and
        fills lazy caches before anything is timed."""
        if self.kind == "consensus":
            pattern = _decision_template("warm-up")
        elif self.kind == "taskbag":
            pattern = template(TASK, Formal("o"), Formal("s"), Formal("b"))
        else:
            pattern = None
        ops = []
        for index, program in enumerate(programs):
            if pattern is None:
                family = f"{TOKEN_PREFIX}{index % self.shards}"
                item = template(family, Formal("o"), Formal("s"))
            else:
                item = pattern
            ops.append((program.name, Op("rdp", (item,), "warm-up")))
        return ops

    def seed_entries(self) -> list[tuple[Hashable, Entry]]:
        """Tuples stored during set-up (the escrow token pool)."""
        if self.kind != "escrow":
            return []
        return [
            ("bank", entry(f"{TOKEN_PREFIX}{token % self.shards}", "bank", token))
            for token in range(self.tokens)
        ]

    def plan_fingerprint(self, seed: int) -> str:
        plans = "|".join(program.plan_fingerprint() for program in self.programs(seed))
        return hashlib.sha256(plans.encode()).hexdigest()[:16]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="consensus-small",
            kind="consensus",
            transport="sim",
            shards=1,
            identities=16,
            rounds=20,
        ),
        Workload(
            name="taskbag-large",
            kind="taskbag",
            transport="sim",
            shards=1,
            identities=16,
            budget=200,
        ),
        Workload(
            name="escrow-sharded",
            kind="escrow",
            transport="sim",
            shards=3,
            identities=8,
            budget=128,
            tokens=24,
            crash_after=340,
        ),
        Workload(
            name="consensus-loopback",
            kind="consensus",
            transport="asyncio",
            shards=1,
            identities=4,
            rounds=60,
        ),
    )
}
