"""Closed-loop passes: build a deployment through ``connect()``, drive
every client program to the end of its budget, judge every output.

One *pass* = one fresh deployment (set-up timed separately) plus one
fixed, seed-determined amount of work.  Passes on the same seed must
replay identically on the simulated network; :func:`pass_fingerprint`
captures what must repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import queue
import time
from typing import Any, Callable, Optional

from perfbench.hostspeed import HostSpeed
from perfbench.workloads import Ledger, Op, Program, Workload
from repro.api import connect
from repro.cluster import ExplicitRouting
from repro.policy import AccessPolicy
from repro.replication.network import NetworkConfig
from repro.replication.pbft import ReplicaFaultMode

__all__ = ["PassResult", "run_pass", "timed_set_up", "local_replay", "pass_fingerprint"]

perf_counter = time.perf_counter

#: Budget of one blocking ``in`` (virtual ms): far beyond any wait the
#: task bag produces, so a timeout is a real failure.
BLOCKING_TIMEOUT_MS = 600_000.0
#: How long a loopback pass waits for any reply before declaring the
#: deployment stuck (wall seconds).
LOOPBACK_STALL_S = 60.0


def clock_of(workload: Workload) -> Callable[[], float]:
    """The clock a workload's wall-clock figures are taken on.

    The simulation runs on one thread that never waits, so its cost is
    that thread's CPU time: the clock stops while the host runs another
    tenant instead of us, which would otherwise land on whichever ops are
    outstanding.  On loopback the blocking path crosses threads and waits
    between them, so the wall clock is the only honest one.
    """
    return time.thread_time if workload.transport == "sim" else time.perf_counter

@dataclasses.dataclass
class PassResult:
    """One pass.  Wall-clock fields are raw host time; ``speed`` (and
    ``setup_speed`` for the set-up) is the host-speed factor measured
    alongside them (see :mod:`perfbench.hostspeed`)."""

    workload: str
    ops: int
    wall_s: float
    speed: float
    vlat_ms: list[float]
    wlat_ms: list[float]
    ledger: Ledger
    counters: dict[str, Any]
    setup_s: float = 0.0
    setup_speed: float = 1.0
    outage_vms: float = 0.0
    live_max: int = 0
    denied: int = 0


def _groups(space: Any) -> list[Any]:
    service = space.service
    return list(getattr(service, "groups", None) or [service])


def _build(workload: Workload, policy: AccessPolicy, seed: int) -> Any:
    options: dict[str, Any] = {"policy": policy}
    if workload.transport == "sim":
        # The default network: 1.0 ms mean delay + U(0, 0.5) ms jitter,
        # no loss, processing_time 0 — the delay is injected, so virtual
        # latency is protocol latency and wall time is CPU cost.
        options["network_config"] = NetworkConfig(seed=seed)
    else:
        options["transport"] = workload.transport
    if workload.shards > 1:
        routing = ExplicitRouting(
            {f"TOKEN-{family}": family for family in range(workload.shards)}
        )
        return connect("sharded", shards=workload.shards, routing=routing, **options)
    return connect("replicated", **options)


def _wait_all(space: Any, futures: list[Any]) -> None:
    space.network.run_until(lambda: all(future.done for future in futures))


def timed_set_up(workload: Workload, programs: list[Program], seed: int) -> tuple[Any, float, float]:
    """Set up one deployment; returns it, the seconds it took and the
    host-speed factor sampled right before and after."""
    clock = clock_of(workload)
    speed = HostSpeed(clock=clock)
    speed.sample(8)
    started = clock()
    space = _set_up(workload, programs, seed)
    elapsed = clock() - started
    speed.sample(8)
    return space, elapsed, speed.factor


def _set_up(workload: Workload, programs: list[Program], seed: int) -> Any:
    """Build, seed and warm up one deployment."""
    space = _build(workload, workload.policy(programs), seed)
    try:
        for process, item in workload.seed_entries():
            future = space.submit("out", (item,), process=process)
            _wait_all(space, [future])
            if future.exception is not None or future.result() != ("OK", True):
                raise RuntimeError(f"seeding {item!r} failed: {future!r}")
        if len(space.snapshot()) != len(workload.seed_entries()):
            raise RuntimeError(
                f"set-up stored {len(space.snapshot())} tuples, "
                f"expected {len(workload.seed_entries())}"
            )
        warm = [
            space.submit(op.operation, op.arguments, process=process)
            for process, op in workload.warm_up_ops(programs)
        ]
        _wait_all(space, warm)
        for future in warm:
            if future.exception is not None or future.result()[0] != "OK":
                raise RuntimeError(f"warm-up read failed: {future!r}")
    except BaseException:
        space.close()
        raise
    return space


def _submit(space: Any, program: Program, op: Op) -> Any:
    if op.operation == "in":
        return space.submit(
            "in", op.arguments, process=program.name, timeout=BLOCKING_TIMEOUT_MS
        )
    return space.submit(op.operation, op.arguments, process=program.name)


def _touches_crashed_group(workload: Workload, op: Op) -> bool:
    return workload.kind == "escrow" and 1 in op.key


def _counters(space: Any) -> dict[str, Any]:
    """Deterministic program counters of one pass (sim replay check)."""
    nodes = [node for group in _groups(space) for node in group.nodes]
    totals: dict[str, Any] = {}
    for node in nodes:
        for name, value in node.statistics.items():
            if isinstance(value, int) and not isinstance(value, bool):
                totals[f"pbft.{name}"] = totals.get(f"pbft.{name}", 0) + value
    for name, value in space.service.client_statistics().items():
        totals[f"client.{name}"] = value
    network = space.network.statistics
    for name in ("delivered", "dropped", "rejected", "timers_fired", "frames_sent", "handler_errors"):
        if name in network:
            totals[f"network.{name}"] = network[name]
    totals["max_view"] = sum(max(node.view for node in group.nodes) for group in _groups(space))
    totals["requests_ordered"] = sum(
        max(node.statistics["requests_executed"] for node in group.nodes)
        for group in _groups(space)
    )
    return totals


def _check_replicas(space: Any, ledger: Ledger) -> int:
    """Correct replicas must agree on their state; returns the policy
    denials one up-to-date correct replica per group counted."""
    denied = 0
    for group in _groups(space):
        correct = group.correct_nodes()
        executed = {node.last_executed for node in correct}
        digests = {node.application.state_digest() for node in correct}
        if len(executed) != 1 or len(digests) != 1:
            ledger.fail(
                f"correct replicas diverge: last_executed {sorted(executed)}, "
                f"{len(digests)} distinct state digests"
            )
        reference = max(correct, key=lambda node: node.last_executed)
        monitor = reference.application.monitor
        denied += monitor.denied_count
        intruders = set(monitor.denials_by_process()) - {"byz"}
        if intruders:
            ledger.fail(f"correct identities denied: {sorted(map(str, intruders))}")
    if denied != ledger.forbidden_attempts:
        ledger.fail(
            f"policy denied {denied} ops but {ledger.forbidden_attempts} were forbidden"
        )
    return denied


def pass_fingerprint(result: PassResult) -> str:
    """What two same-seed passes on the simulated network must share."""
    material = repr(
        (
            result.ops,
            [round(value, 9) for value in result.vlat_ms],
            sorted(result.counters.items()),
            result.ledger.digest(),
            round(result.outage_vms, 9),
        )
    )
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def run_pass(
    workload: Workload,
    seed: int,
    *,
    wrap: Optional[Callable[[str, Callable], Callable]] = None,
    root: Optional[Callable[[Callable], Any]] = None,
    sample_live: bool = False,
) -> PassResult:
    """Set up a fresh deployment and drive one pass of ``workload``.

    ``wrap(name, fn)`` may replace the benchmark's own callbacks (its
    completion handler ``bench.generator`` and, on a real transport, its
    blocking wait ``bench.wait``) and ``root`` runs the measured phase:
    the traced run passes span recorders for both.  ``sample_live``
    tracks the live tuple count.
    """
    programs = workload.programs(seed)
    space, setup_s, setup_speed = timed_set_up(workload, programs, seed)
    try:
        if workload.transport == "sim":
            result = _drive_sim(workload, programs, space, wrap, root, sample_live)
        else:
            result = _drive_loopback(workload, programs, space, wrap, root, sample_live)
        result.setup_s = setup_s
        result.setup_speed = setup_speed
        if workload.transport == "sim":
            # Let in-flight protocol traffic (commits at lagging backups,
            # checkpoints) settle before comparing replicas.
            space.network.run_for(2_000.0)
        else:
            space.network.run_until(
                lambda: len({node.last_executed for node in space.service.nodes}) == 1,
                timeout=10_000.0,
            )
        result.ledger.finish(space.snapshot, workload)
        result.denied = _check_replicas(space, result.ledger)
        result.counters = _counters(space)
    finally:
        space.close()
    return result


def _live_tuples(space: Any) -> int:
    total = 0
    for group in _groups(space):
        reference = max(group.correct_nodes(), key=lambda node: node.last_executed)
        total += len(reference.application.space)
    return total


def _drive_sim(workload, programs, space, wrap, root, sample_live) -> PassResult:
    network = space.network
    ledger = Ledger()
    vlat: list[float] = []
    wlat: list[float] = []
    state = {"active": len(programs), "completed": 0, "crash_at": None, "outage": 0.0, "live": 0}
    clock = clock_of(workload)
    speed = HostSpeed(clock=clock)

    def issue(program: Program) -> None:
        op = program.next_op()
        issued = (network.now, clock())
        future = _submit(space, program, op)
        future.add_done_callback(lambda done: on_done(program, op, done, issued))

    def on_done(program: Program, op: Op, future: Any, issued: tuple) -> None:
        wall = clock()
        error = future.exception
        ledger_outcome = None if error is not None else future.result()
        program.judge(op, ledger_outcome, error, ledger)
        vlat.append(network.now - issued[0])
        wlat.append((wall - issued[1]) * 1000.0)
        state["completed"] += 1
        crash_at = state["crash_at"]
        if crash_at is not None and not state["outage"] and issued[0] >= crash_at:
            if _touches_crashed_group(workload, op):
                state["outage"] = network.now - crash_at
        if workload.crash_after is not None and state["completed"] == workload.crash_after:
            # Crash group 1's primary the way repro.sim.faults.CrashWindow
            # does: the node stops sending and ignores everything.
            _groups(space)[1].nodes[0].fault_mode = ReplicaFaultMode.CRASHED
            state["crash_at"] = network.now
        if sample_live:
            state["live"] = max(state["live"], _live_tuples(space))
        if program.finished:
            state["active"] -= 1
        else:
            issue(program)

    if wrap is not None:
        on_done = wrap("bench.generator", on_done)  # noqa: F811 - traced stand-in

    def measured() -> float:
        begin = clock()
        for program in programs:
            issue(program)
        network.run_until(
            lambda: speed.tick() or state["active"] == 0, max_events=100_000_000
        )
        return clock() - begin

    wall_s = root(measured) if root is not None else measured()
    if state["active"]:
        ledger.fail(f"{state['active']} clients never finished")
    if workload.crash_after is not None and not state["outage"]:
        ledger.fail("the crashed group never served another request")
    return PassResult(
        workload=workload.name,
        ops=state["completed"],
        wall_s=wall_s,
        speed=speed.factor,
        vlat_ms=vlat,
        wlat_ms=wlat,
        ledger=ledger,
        counters={},
        outage_vms=state["outage"],
        live_max=state["live"],
    )


def _drive_loopback(workload, programs, space, wrap, root, sample_live) -> PassResult:
    """Main thread runs the client programs; replies arrive on the
    reactor thread and are handed back through a queue."""
    replies: "queue.SimpleQueue" = queue.SimpleQueue()
    ledger = Ledger()
    vlat: list[float] = []
    wlat: list[float] = []
    state = {"active": len(programs), "completed": 0, "live": 0}
    # Sampled on the main thread between replies; the reactor does the work.
    speed = HostSpeed(every=4)

    def issue(program: Program) -> None:
        op = program.next_op()
        issued = perf_counter()
        future = _submit(space, program, op)
        future.add_done_callback(lambda done: replies.put((program, op, done, issued)))

    def on_done(program: Program, op: Op, future: Any, issued: float) -> None:
        wall = perf_counter()
        error = future.exception
        program.judge(op, None if error is not None else future.result(), error, ledger)
        vlat.append(future.latency)
        wlat.append((wall - issued) * 1000.0)
        state["completed"] += 1
        if sample_live:
            state["live"] = max(state["live"], _live_tuples(space))
        if program.finished:
            state["active"] -= 1
        else:
            issue(program)

    wait = replies.get
    if wrap is not None:
        on_done = wrap("bench.generator", on_done)  # noqa: F811 - traced stand-in
        wait = wrap("bench.wait", wait)

    def measured() -> float:
        begin = perf_counter()
        for program in programs:
            issue(program)
        while state["active"]:
            try:
                reply = wait(timeout=LOOPBACK_STALL_S)
            except queue.Empty:
                ledger.fail(f"no reply within {LOOPBACK_STALL_S} s")
                break
            on_done(*reply)
            speed.tick()
        return perf_counter() - begin

    wall_s = root(measured) if root is not None else measured()
    return PassResult(
        workload=workload.name,
        ops=state["completed"],
        wall_s=wall_s,
        speed=speed.factor,
        vlat_ms=vlat,
        wlat_ms=wlat,
        ledger=ledger,
        counters={},
        live_max=state["live"],
    )


def local_replay(workload: Workload, seed: int, *, root: Optional[Callable] = None) -> tuple[int, float, Ledger]:
    """Replay ``workload``'s generated ops against ``connect("local")``
    under the same policy: the single-node PEATS baseline.  Programs take
    turns, one op each, so every reply is available before the next op."""
    programs = workload.programs(seed)
    space = connect("local", policy=workload.policy(programs))
    ledger = Ledger()
    ops = 0

    def measured() -> float:
        nonlocal ops
        begin = perf_counter()
        pending = list(programs)
        while pending:
            for program in pending:
                op = program.next_op()
                future = _submit(space, program, op)
                error = future.exception
                program.judge(op, None if error is not None else future.result(), error, ledger)
                ops += 1
            pending = [program for program in pending if not program.finished]
        return perf_counter() - begin

    wall_s = root(measured) if root is not None else measured()
    ledger.finish(space.snapshot, workload)
    denied = space.service.monitor.denied_count
    if denied != ledger.forbidden_attempts:
        ledger.fail(f"local policy denied {denied}, expected {ledger.forbidden_attempts}")
    return ops, wall_s, ledger
