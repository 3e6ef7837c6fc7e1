"""The replica state digest: an AdHash accumulator kept up to date per
mutation must always equal a recompute from the captured state.

``PEATSReplica.state_digest()`` reads the space through its running
AdHash accumulator instead of pickling every tuple; ``state_digest_of``
recomputes the same value from a ``capture_state()`` snapshot.  These
tests drive random operation sequences through a replica and check the
two never drift apart, that a state installed on a fresh replica digests
and answers like the original, and that insertion order is part of the
digest.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.policy import AccessPolicy, Rule
from repro.replication.messages import ClientRequest
from repro.replication.replica import PEATSReplica, state_digest_of
from repro.tuples import ANY, entry, template

NAMES = ("A", "B")
CLIENTS = ("c0", "c1", "c2")


def open_policy():
    return AccessPolicy(
        [Rule(name, name) for name in ("out", "rdp", "inp", "cas")], name="open"
    )


names = st.sampled_from(NAMES)
values = st.integers(0, 3)
maybe_any = st.one_of(st.just(ANY), values)

operations = st.one_of(
    st.tuples(st.just("out"), names, values),
    st.tuples(st.just("inp"), st.one_of(st.just(ANY), names), maybe_any),
    st.tuples(st.just("rdp"), st.one_of(st.just(ANY), names), maybe_any),
    st.tuples(st.just("cas"), names, values),
    st.tuples(st.just("txn"), names, values),
)


class Driver:
    """Turns generated operations into ordered client requests."""

    def __init__(self):
        self._next_id = {client: 0 for client in CLIENTS}
        self._turn = 0

    def request(self, op):
        client = CLIENTS[self._turn % len(CLIENTS)]
        self._turn += 1
        request_id = self._next_id[client]
        self._next_id[client] += 1
        kind, name, value = op
        if kind == "out":
            operation, arguments = "out", (entry(name, value),)
        elif kind in ("inp", "rdp"):
            operation, arguments = kind, (template(name, value),)
        elif kind == "cas":
            operation, arguments = "cas", (template(name, ANY), entry(name, value))
        else:
            # Take any tuple of this name and put it back under the other
            # name: one removal and one insert in a single ordered request.
            other = NAMES[1 - NAMES.index(name)]
            legs = (("in", template(name, ANY)), ("out", entry(other, value)))
            operation, arguments = "txn_exec", (legs,)
        return ClientRequest(
            client=client, request_id=request_id, operation=operation, arguments=arguments
        )


def consistent(replica):
    return replica.state_digest() == state_digest_of(replica.capture_state())


class TestIncrementalDigest:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(operations, max_size=40))
    def test_incremental_digest_equals_recompute_after_every_step(self, ops):
        replica = PEATSReplica("r0", open_policy())
        driver = Driver()
        assert consistent(replica)
        for op in ops:
            replica.execute(driver.request(op))
            assert consistent(replica)

    @settings(max_examples=40, deadline=None)
    @given(
        prefix=st.lists(operations, max_size=30),
        suffix=st.lists(operations, min_size=1, max_size=20),
    )
    def test_installed_state_digests_and_answers_like_the_original(self, prefix, suffix):
        original = PEATSReplica("r0", open_policy())
        driver = Driver()
        for op in prefix:
            original.execute(driver.request(op))
        fresh = PEATSReplica("r1", open_policy())
        assert fresh.install_state(original.capture_state(), original.state_digest())
        assert fresh.state_digest() == original.state_digest()
        assert list(fresh.space.by_id().items()) == list(original.space.by_id().items())
        for op in suffix:
            request = driver.request(op)
            assert fresh.execute(request) == original.execute(request)
            assert fresh.state_digest() == original.state_digest()
        assert consistent(fresh)

    def test_install_refuses_a_state_that_is_not_the_digested_one(self):
        original = PEATSReplica("r0", open_policy())
        for value in range(4):
            original.space.out(entry("A", value))
        original.space.inp(template("A", 1))
        state, state_digest = original.checkpoint()
        fresh = PEATSReplica("r1", open_policy())
        before = fresh.state_digest()
        # Another state under this digest: refused, nothing changes.
        other = ({0: entry("A", 9)},) + state[1:]
        assert not fresh.install_state(other, state_digest)
        # The right pairs in another order: the AdHash sum alone cannot
        # tell, so install_state rejects entries whose ids do not ascend.
        reordered = (dict(reversed(state[0].items())),) + state[1:]
        with pytest.raises(ValueError):
            fresh.install_state(reordered, state_digest)
        with pytest.raises(ValueError):
            state_digest_of(reordered)
        with pytest.raises(TypeError):
            fresh.install_state((tuple(state[0].items()),) + state[1:], state_digest)
        assert fresh.state_digest() == before and len(fresh.space) == 0
        assert fresh.install_state(state, state_digest)
        assert fresh.state_digest() == state_digest

    def test_insertion_order_is_part_of_the_digest(self):
        first = PEATSReplica("r0", open_policy())
        second = PEATSReplica("r1", open_policy())
        first.space.out(entry("A", 1))
        first.space.out(entry("B", 2))
        second.space.out(entry("B", 2))
        second.space.out(entry("A", 1))
        assert sorted(first.space.snapshot(), key=repr) == sorted(
            second.space.snapshot(), key=repr
        )
        assert first.state_digest() != second.state_digest()

    def test_removal_cancels_its_insert(self):
        replica = PEATSReplica("r0", open_policy())
        replica.space.out(entry("A", 1))
        before = replica.space.accumulator
        replica.space.out(entry("A", 2))
        assert replica.space.inp(template("A", 2)) == entry("A", 2)
        assert replica.space.accumulator == before
        assert consistent(replica)

    def test_clear_resets_the_accumulator(self):
        replica = PEATSReplica("r0", open_policy())
        for value in range(5):
            replica.space.out(entry("A", value))
        assert replica.space.accumulator != 0
        replica.space.clear()
        assert replica.space.accumulator == 0
        assert len(replica.space) == 0
        assert consistent(replica)

    def test_digest_is_a_sha256_hex_string(self):
        replica = PEATSReplica("r0", open_policy())
        replica.space.out(entry("A", 1))
        digest = replica.state_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
