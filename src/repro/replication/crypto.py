"""Authenticated channels for the replicated PEATS.

Section 2.1 assumes a faulty process cannot impersonate a correct one; in
the deployment of Section 4 this is obtained with authenticated channels
("standard technologies like IPSec or SSL").  We model the same guarantee
with pairwise shared keys and HMAC-SHA256 message authentication codes:

* the :class:`KeyStore` is the trusted key-distribution step: each
  pairwise key is derived once, on first use, and kept;
* every message carries a MAC computed over a canonical serialisation of
  its content under the key shared by sender and receiver;
* a receiver drops (and counts) messages whose MAC does not verify, so a
  Byzantine node can only ever speak under its own identity.

A message is serialised once per send or broadcast.  The transports pass
those bytes (``data=``) to the MAC of every link, and carry them with the
message to the receiver's :meth:`MessageAuthenticator.verify`, instead
of pickling the payload again for each link and each check.
"""

from __future__ import annotations

import hashlib
import hmac
import io
import pickle
from typing import Any, Hashable

from repro.errors import AuthenticationError

__all__ = [
    "ADHASH_MODULUS",
    "KeyStore",
    "MessageAuthenticator",
    "adhash_term",
    "canonical_bytes",
    "digest",
]


def canonical_bytes(payload: Any) -> bytes:
    """Serialise ``payload`` so that equal *content* gives equal bytes.

    ``pickle.dumps`` memoises: when the same object appears twice in a
    graph the second occurrence is emitted as a back-reference, so two
    payloads that compare equal but share objects differently serialise
    to different bytes.  Replicas compare digests of independently built
    values (checkpoint states, replies voted on by clients), where object
    identity is an execution-history accident — a cached result stored
    twice on one replica, rebuilt on another.  Disabling the memo makes
    the encoding a pure function of content.  Payloads are protocol data
    (tuples, entries, scalars) and never cyclic, which ``fast`` requires.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=4)
    pickler.fast = True
    pickler.dump(payload)
    return buffer.getvalue()


def digest(payload: Any) -> str:
    """A deterministic SHA-256 digest of an arbitrary picklable payload.

    Used both for request digests in the ordering protocol and for reply
    voting at the client.
    """
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


#: AdHash (Bellare & Micciancio, EUROCRYPT '97) sums element hashes mod
#: 2^2048: a 256-bit sum falls to Wagner's generalized-birthday attack
#: (CRYPTO 2002), which a 2048-bit one puts out of reach.
ADHASH_MODULUS = 1 << 2048


def adhash_term(item: Any) -> int:
    """The AdHash term of ``item``: SHAKE-256 of its canonical bytes,
    expanded to 2048 bits, as an integer below :data:`ADHASH_MODULUS`.

    A multiset's digest is the sum of its elements' terms mod
    :data:`ADHASH_MODULUS`, so adding or removing one element updates it
    in O(1) whatever the size of the multiset.
    """
    return int.from_bytes(hashlib.shake_256(canonical_bytes(item)).digest(256), "big")


class KeyStore:
    """Pairwise symmetric keys between every two principals.

    The key for the unordered pair ``{a, b}`` is derived deterministically
    from a master secret, which keeps the simulation reproducible while
    still giving every pair a distinct key.
    """

    def __init__(self, master_secret: bytes = b"repro-peats-master-secret") -> None:
        self._master_secret = master_secret
        self._keys: dict[tuple[Hashable, Hashable], bytes] = {}

    def shared_key(self, a: Hashable, b: Hashable) -> bytes:
        """The symmetric key shared by principals ``a`` and ``b``."""
        key = self._keys.get((a, b))
        if key is None:
            first, second = sorted((repr(a), repr(b)))
            material = f"{first}|{second}".encode()
            key = hmac.digest(self._master_secret, material, "sha256")
            # Reactor threads may race here; the loser re-derives and
            # stores the same key, so no lock is needed.
            # repro-lint: disable=RL006 — at most one entry per principal
            # pair (each stored under both orders), bounded by the set of
            # identities that ever exchange a message.
            self._keys[(a, b)] = self._keys[(b, a)] = key
        return key


class MessageAuthenticator:
    """Computes and verifies per-pair HMACs for network messages."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        self._rejected = 0

    @property
    def rejected_count(self) -> int:
        """Messages that failed verification since construction."""
        return self._rejected

    def mac(
        self, sender: Hashable, receiver: Hashable, payload: Any, *, data: bytes | None = None
    ) -> str:
        """MAC of ``payload`` under the sender/receiver shared key.

        The tag covers ``data``, by default ``canonical_bytes(payload)``.
        Callers that authenticate one message on several links serialise
        it once and pass the bytes; a transport whose wire format is
        already bytes passes those.
        """
        return self._tag(sender, receiver, payload, data)

    def verify(
        self,
        sender: Hashable,
        receiver: Hashable,
        payload: Any,
        tag: str,
        *,
        data: bytes | None = None,
    ) -> bool:
        """Constant-time verification of a received MAC (``data`` as in
        :meth:`mac`: the bytes the sender authenticated, when known)."""
        expected = self._tag(sender, receiver, payload, data)
        valid = hmac.compare_digest(expected, tag)
        if not valid:
            self._rejected += 1
        return valid

    def _tag(self, sender: Hashable, receiver: Hashable, payload: Any, data: bytes | None) -> str:
        if data is None:
            # Canonical bytes, not a plain pickle: a receiver that
            # recomputes the MAC over its own decoded copy of the payload
            # sees an object graph that need not share sub-objects the way
            # the sender's did.
            data = canonical_bytes(payload)
        return hmac.digest(self._keystore.shared_key(sender, receiver), data, "sha256").hex()

    def require_valid(self, sender: Hashable, receiver: Hashable, payload: Any, tag: str) -> None:
        """Raise :class:`AuthenticationError` when the MAC does not verify."""
        if not self.verify(sender, receiver, payload, tag):
            raise AuthenticationError(
                f"message from {sender!r} to {receiver!r} failed authentication"
            )
