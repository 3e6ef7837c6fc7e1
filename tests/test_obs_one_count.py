"""One count, two views: metric families read the counts components keep,
and each event is recorded once through ``Observability.record``."""

from __future__ import annotations

import pytest

from repro.api import connect
from repro.obs import NULL_FLIGHT, NULL_OBS, MetricsRegistry, Observability
from repro.policy import AccessPolicy, Rule
from repro.sim import Scenario, ViewChangeStorm, run_scenario
from repro.sim.workloads import consensus_storm, kv_readwrite, multi_shard_kv
from repro.tuples import Formal, entry, template

#: Read-time pbft families → the ``OrderingNode.statistics`` key each reads.
PBFT_FAMILIES = {
    "pbft_batches_total": "batches_proposed",
    "pbft_pending_depth": "pending_unordered",
    "pbft_view_changes_total": "view_changes_started",
    "pbft_checkpoints_total": "checkpoints_taken",
    "pbft_truncations_total": "truncations",
    "pbft_reply_cache_hits_total": "reply_cache_hits",
    "pbft_executed_total": "requests_executed",
}
#: Read-time client families → the summed client ``statistics`` key.
CLIENT_FAMILIES = {
    "client_requests_total": "requests",
    "client_retransmissions_total": "retransmissions",
    "client_quorum_failures_total": "quorum_failures",
}
#: Read-time transport families → the ``RealTransport.statistics`` key.
NET_FAMILIES = {
    "net_frames_sent_total": "frames_sent",
    "net_frames_delivered_total": "delivered",
    "net_frames_dropped_total": "dropped",
    "net_mac_rejects_total": "rejected",
    "net_handler_errors_total": "handler_errors",
    "net_bytes_sent_total": "bytes_sent",
    "net_bytes_received_total": "bytes_received",
}


def samples(obs, family):
    return {
        tuple(sorted(row["labels"].items())): row["value"]
        for row in obs.registry.snapshot()[family]["samples"]
    }


def assert_service_counts_match(obs, service):
    for family, key in PBFT_FAMILIES.items():
        expected = {
            (("node", str(node.replica_id)),): float(node.statistics[key])
            for node in service.nodes
        }
        assert samples(obs, family) == expected, family
    waiters = {
        (("node", str(node.replica_id)),): float(len(node.application.waiters))
        for node in service.nodes
    }
    assert samples(obs, "notify_waiters") == waiters
    totals = service.client_statistics()
    for family, key in CLIENT_FAMILIES.items():
        assert samples(obs, family) == {(): float(totals[key])}, family


def open_policy() -> AccessPolicy:
    return AccessPolicy(
        [Rule(op, op) for op in ("out", "rdp", "inp", "cas")], name="one-count"
    )


# ----------------------------------------------------------------------
# Read-time families equal the counts they read
# ----------------------------------------------------------------------


def test_pending_depth_reads_each_nodes_own_queue_after_the_storm():
    """Regression: the gauge used to be set only on request intake, so
    backups kept their last intake depth (8) after the primary drained."""
    obs = Observability()
    result = run_scenario(
        Scenario(name="storm", clients=consensus_storm(8), seed=31, obs=obs)
    )
    assert result.completed
    depth = samples(obs, "pbft_pending_depth")
    assert len(depth) == len(result.service.nodes)
    for node in result.service.nodes:
        sample = depth[(("node", str(node.replica_id)),)]
        assert sample == node.statistics["pending_unordered"]


def test_replicated_sim_run_one_count_two_views():
    obs = Observability()
    result = run_scenario(
        Scenario(
            name="storm-vc",
            clients=kv_readwrite(6, ops_per_client=6, seed=3),
            faults=(ViewChangeStorm(start=5.0, rounds=2),),
            seed=17,
            checkpoint_interval=2,
            obs=obs,
        )
    )
    assert result.completed
    assert_service_counts_match(obs, result.service)
    executed = samples(obs, "pbft_executed_total")
    assert all(value > 0 for value in executed.values())
    assert sum(samples(obs, "pbft_view_changes_total").values()) > 0
    assert sum(samples(obs, "pbft_truncations_total").values()) > 0


def test_sharded_sim_run_one_count_two_views():
    obs = Observability()
    result = run_scenario(
        Scenario(
            name="sharded",
            clients=multi_shard_kv(6, shards=3, seed=5),
            shards=3,
            seed=7,
            obs=obs,
        )
    )
    assert result.completed
    assert_service_counts_match(obs, result.service)
    assert len(samples(obs, "pbft_executed_total")) == 12


def test_loopback_run_one_count_two_views():
    obs = Observability()
    space = connect("replicated", policy=open_policy(), transport="loopback", obs=obs)
    try:
        for index in range(4):
            space.out(entry("JOB", index), process="alice")
            space.inp(template("JOB", Formal("n", int)), process="bob")
    finally:
        space.close()  # stops the reactors: every count is final
    service = space.service
    assert_service_counts_match(obs, service)
    statistics = service.network.statistics
    for family, key in NET_FAMILIES.items():
        assert samples(obs, family) == {
            (("transport", service.network.name),): float(statistics[key])
        }, family
    assert statistics["frames_sent"] > 0


# ----------------------------------------------------------------------
# The registry's read-time hook
# ----------------------------------------------------------------------


def test_read_from_is_read_at_export_and_sums_owners():
    registry = MetricsRegistry()
    counts = {"a": 1, "b": 2}
    family = registry.counter("owned_total", "owned")
    family.read_from(lambda: counts["a"])
    family.read_from(lambda: counts["b"])
    registry.gauge("depth", "").read_from(lambda: counts["a"], node="n0")
    counts["a"] = 5
    snapshot = registry.snapshot()
    assert snapshot["owned_total"]["samples"] == [{"labels": {}, "value": 7.0}]
    assert snapshot["depth"]["samples"] == [{"labels": {"node": "n0"}, "value": 5.0}]
    assert "owned_total 7.0" in registry.to_prometheus_text()
    merged = MetricsRegistry()
    merged.merge(registry)
    assert merged.snapshot() == snapshot


def test_read_from_refuses_a_label_set_that_is_already_pushed():
    registry = MetricsRegistry()
    family = registry.counter("mixed_total", "")
    family.labels(node="n0").inc()
    with pytest.raises(TypeError):
        family.read_from(lambda: 1, node="n0")


def test_null_registry_read_from_is_a_no_op():
    NULL_OBS.registry.counter("x_total").read_from(lambda: 1 / 0, node="n")
    assert NULL_OBS.registry.snapshot() == {}


# ----------------------------------------------------------------------
# One record call per event
# ----------------------------------------------------------------------


def test_one_record_feeds_the_ring_and_the_span():
    obs = Observability()
    key = ("alice", 0)
    obs.record("submit", "alice", 1.0, key=key, operation="out")
    obs.record("pre-prepare", "replica-0", 2.0, view=0, sequence=1, keys=(key,))
    obs.record("route", "alice", 1.5, key=key, shard=2, operation="out")
    obs.record("execute", "replica-1", 3.0, key=key, sequence=1, operation="txn_prepare")
    obs.record("txn-decision", "replica-1", 3.5, txn="t", client="alice", type="TxnDecision")
    obs.record("msg-send", "replica-0", 2.0, type="PrePrepare")
    assert obs.tracer.timeline(key) == [
        ("submit", 1.0, "alice"),
        ("route", 1.5, "shard-2"),
        ("pre-prepare", 2.0, "replica-0"),
        ("execute", 3.0, "replica-1"),
        ("txn-prepare", 3.0, "replica-1"),
    ]
    kinds = [event["kind"] for event in obs.flight.events("replica-1")]
    assert kinds == ["execute", "txn-decision"]
    (batch,) = [e for e in obs.flight.events("replica-0") if e["kind"] == "pre-prepare"]
    assert (batch["view"], batch["sequence"], batch["keys"]) == (0, 1, (key,))


def test_each_instrument_can_be_off_independently():
    obs = Observability(flight=NULL_FLIGHT)
    obs.record("reply", "replica-0", 4.0, key=("c", 1), client="c")
    assert obs.tracer.timeline(("c", 1)) == [("reply", 4.0, "replica-0")]
    assert obs.flight.statistics()["recorded"] == 0
    NULL_OBS.record("reply", "replica-0", 4.0, key=("c", 1))  # no-op
