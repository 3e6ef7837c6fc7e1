"""One benchmark run: timed passes (``--trace 0``) or the traced breakdown
(``--trace 1``) of one workload, reduced to the metrics in BENCHMARK.json.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import sys
import time
from typing import Any, Optional

from perfbench.drive import PassResult, local_replay, pass_fingerprint, run_pass, timed_set_up
from perfbench.trace import LAYERS, Tracer, install, layer_of
from perfbench.workloads import WORKLOADS, Workload

__all__ = ["measure", "trace"]

perf_counter = time.perf_counter

#: Set-up is timed once per pass; when a run had fewer passes, extra
#: deployments are built so ``setup_s`` is always a median of this many.
SETUP_SAMPLES = 15
#: Where the traced run writes its spans (inside the checkout).
SPAN_DIR = ".perfbench"
#: The PBFT message types a replica handles.
MESSAGE_TYPES = (
    "ClientRequest",
    "RegisterWaiter",
    "CancelWaiter",
    "PrePrepare",
    "Prepare",
    "Commit",
    "Checkpoint",
    "StateRequest",
    "StateResponse",
    "ViewChange",
    "NewView",
)
TXN_ABORT_REASONS = ("no-match", "locked", "match")


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _report_failures(result: PassResult) -> None:
    for message in result.ledger.messages:
        _log(f"[{result.workload}] check failed: {message}")


def _check_seed_changes_plan(workload: Workload, seed: int) -> Optional[str]:
    if workload.plan_fingerprint(seed) == workload.plan_fingerprint(seed + 1):
        return f"seeds {seed} and {seed + 1} generate the same op plan"
    return None


def _one_pass(workload: Workload, seed: int, **options: Any) -> PassResult:
    gc.collect()
    return run_pass(workload, seed, **options)


def _setup_sample(workload: Workload, seed: int) -> float:
    """One normalized set-up time (see :mod:`perfbench.hostspeed`)."""
    gc.collect()
    space, elapsed, speed = timed_set_up(workload, workload.programs(seed), seed)
    space.close()
    return elapsed * speed


def measure(name: str, seed: int, seconds: float) -> dict[str, Any]:
    """Repeat same-seed passes for ``seconds``; report medians."""
    workload = WORKLOADS[name]
    problems = []
    plan_problem = _check_seed_changes_plan(workload, seed)
    if plan_problem:
        problems.append(plan_problem)
    deadline = perf_counter() + seconds
    passes: list[PassResult] = []
    longest = 0.0
    while True:
        began = perf_counter()
        result = _one_pass(workload, seed)
        passes.append(result)
        _report_failures(result)
        longest = max(longest, perf_counter() - began)
        # Start another pass only if even the slowest pass so far would
        # end in time: the host's speed drifts by tens of percent.
        if perf_counter() + longest > deadline:
            break
    setups = [result.setup_s * result.setup_speed for result in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(workload, seed))
    if workload.transport == "sim":
        prints = {pass_fingerprint(result) for result in passes}
        if len(prints) != 1:
            problems.append(f"same-seed passes diverged: {sorted(prints)}")
    for problem in problems:
        _log(f"[{name}] check failed: {problem}")
    attempted = sum(result.ops for result in passes)
    failed = min(attempted, sum(result.ledger.failures for result in passes) + len(problems))

    # Wall-clock figures are expressed at the nominal host speed (each
    # pass measured its own; see perfbench.hostspeed), and every figure is
    # a median over passes, so a slow phase covering a minority of the
    # passes does not move it.  Virtual time needs no normalizing.
    median = statistics.median
    virtual = workload.transport == "sim"
    metrics = {
        "ops_per_s": (median([r.ops / (r.wall_s * r.speed) for r in passes]), "1/s"),
        "lat_p50_ms": (median([percentile(r.wlat_ms, 0.50) * r.speed for r in passes]), "ms"),
        "lat_p99_ms": (median([percentile(r.wlat_ms, 0.99) * r.speed for r in passes]), "ms"),
        "vlat_p50_ms": (
            median([percentile(r.vlat_ms, 0.50) * (1.0 if virtual else r.speed) for r in passes]),
            "ms",
        ),
        "vlat_p99_ms": (
            median([percentile(r.vlat_ms, 0.99) * (1.0 if virtual else r.speed) for r in passes]),
            "ms",
        ),
        "setup_s": (median(setups), "s"),
    }
    _log(
        f"[{name}] {len(passes)} passes of {passes[0].ops} ops; raw pass walls "
        f"{[round(r.wall_s, 3) for r in passes]}, host-speed factors "
        f"{[round(r.speed, 3) for r in passes]}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def _self(totals: dict, prefix: str) -> float:
    return sum(
        slot["self_s"]
        for name, slot in totals.items()
        if name == prefix or name.startswith(prefix + ".")
    )


def _get(totals: dict, name: str, field: str) -> float:
    return totals.get(name, {}).get(field, 0)


def trace(name: str, seed: int) -> dict[str, Any]:
    """Untraced pass, then the same pass traced; per-layer metrics."""
    workload = WORKLOADS[name]
    problems = []
    baseline = _one_pass(workload, seed)
    _report_failures(baseline)
    local_untraced = None
    if workload.name == "consensus-small":
        gc.collect()
        local_untraced = local_replay(workload, seed)

    tracer = Tracer()
    install(tracer)
    traced = _one_pass(
        workload,
        seed,
        wrap=tracer.wrap,
        root=lambda measured: tracer.record("bench.pass", measured),
        sample_live=True,
    )
    _report_failures(traced)
    _log(
        f"[{name}] untraced pass {baseline.wall_s:.3f} s (host-speed factor "
        f"{baseline.speed:.3f}), traced pass {traced.wall_s:.3f} s ({traced.speed:.3f})"
    )
    if workload.transport == "sim" and pass_fingerprint(traced) != pass_fingerprint(baseline):
        problems.append("the traced pass did not replay the untraced one")
    totals = tracer.totals()
    counters = dict(tracer.counters)
    thread_busy = tracer.thread_top_level()
    os.makedirs(SPAN_DIR, exist_ok=True)
    span_path = os.path.join(SPAN_DIR, f"spans-{name}-seed{seed}.jsonl")
    spans = tracer.write(span_path)
    _log(f"[{name}] wrote {spans} spans to {span_path}")

    local_traced = None
    local_totals: dict = {}
    if local_untraced is not None:
        tracer.reset()
        gc.collect()
        local_traced = local_replay(
            workload, seed, root=lambda measured: tracer.record("bench.local", measured)
        )
        local_totals = tracer.totals()
        for ledger in (local_untraced[2], local_traced[2]):
            if ledger.failures:
                problems.append(f"local replay: {ledger.messages[:3]}")

    metrics = layer_metrics(
        workload, baseline, traced, totals, counters, thread_busy, local_untraced, local_traced, local_totals
    )
    for problem in problems:
        _log(f"[{name}] check failed: {problem}")
    attempted = baseline.ops + traced.ops
    failed = min(
        attempted, baseline.ledger.failures + traced.ledger.failures + len(problems)
    )
    metrics["fail_frac"] = (failed / attempted, "ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def layer_metrics(
    workload: Workload,
    baseline: PassResult,
    traced: PassResult,
    totals: dict,
    counters: dict,
    thread_busy: dict,
    local_untraced: Optional[tuple],
    local_traced: Optional[tuple],
    local_totals: dict,
) -> dict[str, tuple[float, str]]:
    ops = traced.ops
    per_op = 1.0 / ops
    us = 1e6
    # Span times are wall time (perf_counter), so shares are taken of the
    # root span's wall time, not of the pass's own clock.
    traced_wall = _get(totals, "bench.pass", "incl_s")
    threads = max(1, len(thread_busy))
    thread_time = traced_wall * threads
    net = traced.counters
    delivered = net.get("network.delivered", 0)
    metrics: dict[str, tuple[float, str]] = {}

    def put(key: str, value: float, unit: str) -> None:
        metrics[key] = (float(value), unit)

    crypto = "replication.crypto"
    for fn in ("mac", "verify", "canonical_bytes"):
        put(f"{crypto}.{fn}.self_us_per_op", _get(totals, f"{crypto}.{fn}", "self_s") * us * per_op, "us")
    put(f"{crypto}.mac.calls_per_op", _get(totals, f"{crypto}.mac", "count") * per_op, "count")
    put(f"{crypto}.shared_key.calls_per_op", _get(totals, f"{crypto}.shared_key", "count") * per_op, "count")
    put(f"{crypto}.canonical_bytes.bytes_per_op", counters.get("canonical_bytes.bytes", 0) * per_op, "B")
    put(f"{crypto}.digest.calls_per_op", _get(totals, f"{crypto}.digest", "count") * per_op, "count")

    # The replica state digest is computed at every checkpoint (capture
    # the whole state, pickle and hash it, inside _take_checkpoint) and on
    # direct PEATSReplica.state_digest calls; both count here.
    digest_name = "replication.replica.state_digest"
    checkpoint_name = "replication.pbft.take_checkpoint"
    digests = _get(totals, digest_name, "count") + _get(totals, checkpoint_name, "count")
    digest_s = _get(totals, digest_name, "incl_s") + _get(totals, checkpoint_name, "incl_s")
    put(f"{digest_name}.calls_per_kop", digests * per_op * 1000, "count")
    put(f"{digest_name}.ms_per_call", digest_s * 1000 / digests if digests else 0.0, "ms")
    put(f"{digest_name}.incl_ms_per_kop", digest_s * 1e6 * per_op, "ms")
    put(
        "replication.pbft.checkpoints_per_kop",
        _get(totals, checkpoint_name, "count") * per_op * 1000,
        "count",
    )
    put(
        "replication.replica.execute.self_us_per_op",
        _get(totals, "replication.replica.execute", "self_s") * us * per_op,
        "us",
    )

    put("tspace.self_us_per_op", _self(totals, "tspace") * us * per_op, "us")
    put("tspace.live_tuples_max", traced.live_max, "count")
    match_calls = _get(totals, "tuples.matches", "count")
    put("tuples.matches.calls_per_op", match_calls * per_op, "count")
    put("tuples.matches.hit_frac", counters.get("matches.hits", 0) / match_calls if match_calls else 0.0, "ratio")
    put("tuples.matches.self_us_per_op", _get(totals, "tuples.matches", "self_s") * us * per_op, "us")

    put("policy.evaluate.calls_per_op", _get(totals, "policy.evaluate", "count") * per_op, "count")
    put("policy.evaluate.self_us_per_op", _get(totals, "policy.evaluate", "self_s") * us * per_op, "us")
    put("policy.denied", traced.denied, "count")

    for kind in MESSAGE_TYPES:
        span = f"replication.pbft.on_message.{kind}"
        count = _get(totals, span, "count")
        put(f"replication.pbft.on_message.self_us.{kind}", _get(totals, span, "self_s") * us / count if count else 0.0, "us")
        put(f"replication.pbft.on_message.count_per_op.{kind}", count * per_op, "count")
    batches = net.get("pbft.batches_proposed", 0)
    put("replication.pbft.ops_per_batch", net.get("requests_ordered", 0) / batches if batches else 0.0, "count")
    put("replication.network.msgs_per_op", delivered * per_op, "count")
    put("replication.pbft.view_changes", net.get("max_view", 0), "count")
    put("replication.pbft.state_transfers", net.get("pbft.state_transfers", 0), "count")

    put(
        "replication.client.on_reply.self_us_per_op",
        _get(totals, "replication.client.on_reply", "self_s") * us * per_op,
        "us",
    )
    put("replication.client.replies_per_op", counters.get("client.message.ClientReply", 0) * per_op, "count")
    put(
        "replication.client.retransmissions_per_kop",
        net.get("client.retransmissions", 0) * per_op * 1000,
        "count",
    )
    step_self = _get(totals, "replication.network.step", "self_s")
    put("replication.network.step.self_us_per_msg", step_self * us / delivered if delivered and step_self else 0.0, "us")

    frames = _get(totals, "net.send", "count")
    put("net.send.self_us_per_frame", _get(totals, "net.send", "self_s") * us / frames if frames else 0.0, "us")
    put("net.frames_per_op", frames * per_op, "count")
    reactor_busy = sum(busy for thread, busy in thread_busy.items() if "reactor" in thread)
    put("net.reactor_busy_frac", reactor_busy / traced_wall, "ratio")
    put("net.handler_errors", net.get("network.handler_errors", 0), "count")

    put("api.submit.self_us_per_op", _self(totals, "api") * us * per_op, "us")
    put("api.txn_lock_retries_per_kop", _get(totals, "api.resolve_lock", "count") * per_op * 1000, "count")
    put("cluster.requests_per_op", _get(totals, "cluster.submit", "count") * per_op, "count")
    ledger = traced.ledger
    transfers = ledger.transfers_committed + sum(ledger.transfers_aborted.values())
    put("txn.commit_frac", ledger.transfers_committed / transfers if transfers else 0.0, "ratio")
    txn_requests = sum(value for key, value in counters.items() if key.startswith("client.submit.txn_"))
    put("txn.requests_per_transfer", txn_requests / transfers if transfers else 0.0, "count")
    for reason in TXN_ABORT_REASONS:
        put(f"txn.aborts.{reason}", ledger.transfers_aborted.get(reason, 0), "count")

    reads = ledger.blocking_reads
    put("notify.pushes_per_blocking_read", counters.get("client.message.Notify", 0) / reads if reads else 0.0, "count")
    put(
        "notify.fallback_polls_per_blocking_read",
        counters.get("probe.parent.replication.network.step", 0) / reads if reads else 0.0,
        "count",
    )

    if local_untraced is not None and local_traced is not None:
        local_ops, local_wall, _ = local_untraced
        _, local_traced_wall, _ = local_traced
        put("peo.local_us_per_op", local_wall * us / local_ops, "us")
        put("peo.local.policy_share", _self(local_totals, "policy") / local_traced_wall, "ratio")
        put(
            "peo.local.tspace_share",
            (_self(local_totals, "tspace") + _self(local_totals, "tuples")) / local_traced_wall,
            "ratio",
        )
    else:
        put("peo.local_us_per_op", 0.0, "us")
        put("peo.local.policy_share", 0.0, "ratio")
        put("peo.local.tspace_share", 0.0, "ratio")

    # Every thread that recorded spans counts for the whole traced wall
    # time; on a real transport the main thread's blocking wait for
    # replies is its own span, and reactor idle time is unattributed.
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, slot in totals.items():
        if not span.startswith("bench."):
            layer_self[layer_of(span)] += slot["self_s"]
    for layer, seconds in layer_self.items():
        put(f"{layer}.self_frac", seconds / thread_time, "ratio")
    bench_self = _get(totals, "bench.generator", "self_s")
    bench_wait = _get(totals, "bench.wait", "self_s")
    put("bench.generator_self_frac", bench_self / thread_time, "ratio")
    put("bench.wait_frac", bench_wait / thread_time, "ratio")
    attributed = sum(layer_self.values()) + bench_self + bench_wait
    put("unattributed.self_frac", (thread_time - attributed) / thread_time, "ratio")
    put(
        "trace.overhead",
        (traced.wall_s * traced.speed) / (baseline.wall_s * baseline.speed),
        "ratio",
    )
    put("outage_vms", traced.outage_vms, "ms")
    return metrics
