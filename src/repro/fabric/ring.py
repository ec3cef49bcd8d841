"""Consistent-hash ring over MSV rows: who owns which classes.

The fabric partitions the class library by the **shard key** of each
class: a 64-bit blake2b over the arity and the bytes of the class's flat
MSV row (:func:`repro.engine.signatures.signature_keys`, the library's
:attr:`ClassLibrary.parts`), written as 16 hex digits.  The MSV is an
NPN invariant, so a *query* hashes to exactly the same shard key as the
class it belongs to (if any): the router can compute a query's owner
without knowing the library at all, and a worker can decide which
classes it owns without talking to anyone.  The exact-canonical class
ids make class identity injective across machines; the shard key on
top of them makes ownership *stable* — a class always hashes to the
same point of the ring, whatever order libraries were built in.

The ring itself is the textbook construction: every worker id is hashed
onto ``vnodes`` points of a 64-bit circle, a key is owned by the first
``replicas`` *distinct* workers clockwise from its point — the key's
own 64 bits.  Replication is what makes failover answer *correctly*:
the ring successor of a suspect owner holds a replica of the same
shard, so a retried or failed-over request gets the same verified
witness the owner would have served — not a spurious miss.

Everything here is deterministic (blake2b over little-endian rows, no
process seed), so router and workers build byte-identical rings from the
same spec.  The spec names the key scheme, :data:`KEY_SCHEME`; the
registration handshake rejects a worker whose spec disagrees on it or on
the ring's shape.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.engine.classifier import BatchedClassifier

__all__ = [
    "HashRing",
    "ShardFilter",
    "DEFAULT_VNODES",
    "DEFAULT_REPLICAS",
    "KEY_SCHEME",
    "shard_key_of",
    "shard_keys",
    "parse_ring_spec",
]

#: Virtual nodes per worker: enough that 2-4 workers split the key
#: space within a few percent of evenly, cheap enough to rebuild on
#: every membership change.
DEFAULT_VNODES = 64

#: Workers holding each shard (owner + ring successors).  Two means one
#: worker can die without any shard going dark *or* any failover answer
#: degrading to a miss.
DEFAULT_REPLICAS = 2

#: How a shard key is made (see :func:`shard_key_of`).  Every ring spec
#: carries it; a ring built from a spec naming another scheme is refused.
KEY_SCHEME = "msv-row-blake2b64"


def _hash64(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode(), digest_size=8).digest(), "big"
    )


def shard_key_of(n: int, row: bytes) -> str:
    """The shard key of an ``n``-input MSV key (== its class's key).

    ``row`` is one key of :meth:`BatchedClassifier.signatures`, the flat
    MSV row's little-endian bytes; the key is a 64-bit blake2b of ``n``
    and those bytes, as 16 hex digits.
    """
    return hashlib.blake2b(bytes((n,)) + row, digest_size=8).hexdigest()


def shard_keys(tables) -> list[str]:
    """Shard keys of many tables (arities may mix) in one batched pass."""
    tables = list(tables)
    rows = BatchedClassifier().signatures(tables)
    return [shard_key_of(table.n, row) for table, row in zip(tables, rows)]


def parse_ring_spec(spec: str) -> tuple[str, ...]:
    """Parse the ``--ring`` grammar: comma-separated worker ids."""
    ids = tuple(piece.strip() for piece in spec.split(",") if piece.strip())
    if not ids:
        raise ValueError(f"ring spec {spec!r} names no workers")
    if len(set(ids)) != len(ids):
        raise ValueError(f"ring spec {spec!r} repeats a worker id")
    for worker_id in ids:
        if any(c.isspace() for c in worker_id):
            raise ValueError(f"worker id {worker_id!r} contains whitespace")
    return ids


class HashRing:
    """Deterministic consistent-hash ring with replica ownership.

    Args:
        nodes: the full ring membership (worker ids).  Note this is the
            *spec*, not liveness — a dead worker keeps its arcs, the
            router simply routes its keys to the surviving replicas.
        vnodes: hash points per node.
        replicas: distinct owners per key (primary + successors).
    """

    def __init__(
        self,
        nodes,
        vnodes: int = DEFAULT_VNODES,
        replicas: int = DEFAULT_REPLICAS,
    ) -> None:
        self.nodes = tuple(nodes)
        if not self.nodes:
            raise ValueError("ring needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node ids in {self.nodes}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.vnodes = vnodes
        self.replicas = min(replicas, len(self.nodes))
        points = []
        for node in self.nodes:
            for v in range(vnodes):
                points.append((_hash64(f"{node}#{v}"), node))
        points.sort()
        self._points = [h for h, _ in points]
        self._owners_at = [node for _, node in points]

    def owners(self, key: str) -> tuple[str, ...]:
        """The ``replicas`` distinct nodes owning ``key``, primary first.

        ``key`` is a :func:`shard_key_of` string; its 64 bits are its
        point on the ring.
        """
        start = bisect.bisect_right(self._points, int(key, 16))
        seen: list[str] = []
        total = len(self._owners_at)
        for step in range(total):
            node = self._owners_at[(start + step) % total]
            if node not in seen:
                seen.append(node)
                if len(seen) == self.replicas:
                    break
        return tuple(seen)

    def owner(self, key: str) -> str:
        """The primary owner of ``key``."""
        return self.owners(key)[0]

    def covers(self, key: str, node: str) -> bool:
        """Whether ``node`` holds ``key`` (as primary or replica)."""
        return node in self.owners(key)

    def spec(self) -> dict:
        """The wire form workers register with (must match the router's)."""
        return {
            "nodes": list(self.nodes),
            "vnodes": self.vnodes,
            "replicas": self.replicas,
            "keys": KEY_SCHEME,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "HashRing":
        """The ring a spec describes; a spec of another key scheme fails."""
        try:
            if spec["keys"] != KEY_SCHEME:
                raise ValueError(
                    f"key scheme {spec['keys']!r} is not {KEY_SCHEME!r}"
                )
            return cls(
                tuple(spec["nodes"]),
                vnodes=int(spec["vnodes"]),
                replicas=int(spec["replicas"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad ring spec {spec!r}: {exc}") from None

    def shard_filter(self, node: str) -> "ShardFilter":
        """Which library entries ``node`` holds.

        Feed it to :meth:`ClassLibrary.subset` to load a worker's shard
        (its owned arcs plus the replicas of its predecessors); the
        subset keys every representative in one batched pass.
        """
        if node not in self.nodes:
            raise ValueError(f"node {node!r} is not on the ring {self.nodes}")
        return ShardFilter(self, node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashRing(nodes={self.nodes}, vnodes={self.vnodes}, "
            f"replicas={self.replicas})"
        )


class ShardFilter:
    """Which library entries one ring node holds (see ``shard_filter``).

    :meth:`select` answers for many entries at once from one batched
    signature pass, which is how :meth:`ClassLibrary.subset` loads a
    shard.
    """

    def __init__(self, ring: HashRing, node: str) -> None:
        self.ring = ring
        self.node = node

    def select(self, entries) -> list[bool]:
        """Ownership of each entry's class, in input order."""
        keys = shard_keys([entry.representative for entry in entries])
        return [self.ring.covers(key, self.node) for key in keys]
