"""Consistent-hash ring: determinism, replication, shard partitioning."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.fabric.ring import (
    DEFAULT_REPLICAS,
    KEY_SCHEME,
    HashRing,
    parse_ring_spec,
    shard_keys,
)
from repro import obs
from repro.cli import main
from repro.fabric.router import RouterService
from repro.library import ClassLibrary, LibraryFormatError, build_library
from repro.library import store
from repro.service.protocol import Request
from tests.library.test_library import _rewrite_tables
from tests.msv_rows import scalar_shard_key as key_of
from tests.strategies import npn_transforms, truth_tables

# The differential suite is parametric over the arity range: n=0 is the
# constant-only corner, n=7..8 the multi-word tables the protocol still
# accepts.
MIN_KEY_VARS = 0
MAX_KEY_VARS = 8


@st.composite
def key_batches(draw, min_n=MIN_KEY_VARS, max_n=MAX_KEY_VARS):
    """A mixed-arity batch: each drawn table, a constant of its arity and
    a random NPN image of it, all shuffled together."""
    seeds = draw(
        st.lists(truth_tables(min_n=min_n, max_n=max_n), min_size=1,
                 max_size=6)
    )
    batch = []
    for table in seeds:
        image = table.apply(draw(npn_transforms(n=table.n)))
        constant = TruthTable(table.n, draw(st.sampled_from(
            (0, (1 << (1 << table.n)) - 1)
        )))
        batch += [table, image, constant]
    return draw(st.permutations(batch))


def spread_keys(count, seed=0):
    """``count`` shard-key strings: 16 hex digits spread over the ring."""
    rng = random.Random(seed)
    return [f"{rng.getrandbits(64):016x}" for _ in range(count)]


class Keep:
    """A :meth:`ClassLibrary.subset` selection by a per-entry predicate."""

    def __init__(self, predicate):
        self.predicate = predicate

    def select(self, entries):
        return [self.predicate(entry) for entry in entries]


def router_keys(tables):
    """The keys the router routes one read's table ops by, checked to
    come from one batched pass."""
    router = RouterService(port=0)
    routed = []
    router._route = lambda request, key, trace, start: routed.append(key)
    requests = [Request(op="match", table=table) for table in tables]
    passes = obs.registry().get("repro_fabric_shard_key_batch_size")
    before = passes.series()["count"]
    router._resolve_all(requests, [None] * len(requests))
    assert passes.series()["count"] - before == 1
    return routed


class TestRingSpec:
    def test_parse_ring_spec(self):
        assert parse_ring_spec("w0,w1,w2") == ("w0", "w1", "w2")
        assert parse_ring_spec(" a , b ") == ("a", "b")

    @pytest.mark.parametrize("bad", ["", ",,", "w0,w0", "w 0,w1"])
    def test_parse_ring_spec_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_ring_spec(bad)

    def test_spec_roundtrip(self):
        ring = HashRing(("w0", "w1", "w2"), vnodes=16, replicas=2)
        clone = HashRing.from_spec(ring.spec())
        for key in spread_keys(200):
            assert ring.owners(key) == clone.owners(key)

    def test_from_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            HashRing.from_spec({"nodes": ["w0"]})

    @pytest.mark.parametrize("scheme", [None, "n{n}-{digest}", 1])
    def test_from_spec_rejects_another_key_scheme(self, scheme):
        spec = HashRing(("w0",)).spec()
        assert spec["keys"] == KEY_SCHEME
        if scheme is None:
            del spec["keys"]
        else:
            spec["keys"] = scheme
        with pytest.raises(ValueError, match="bad ring spec"):
            HashRing.from_spec(spec)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": ()},
            {"nodes": ("w0", "w0")},
            {"nodes": ("w0",), "vnodes": 0},
            {"nodes": ("w0",), "replicas": 0},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        with pytest.raises(ValueError):
            HashRing(**kwargs)


class TestOwnership:
    def test_owners_are_distinct_and_replica_many(self):
        ring = HashRing(("w0", "w1", "w2", "w3"), replicas=3)
        for key in spread_keys(300):
            owners = ring.owners(key)
            assert len(owners) == 3
            assert len(set(owners)) == 3

    def test_replicas_clamped_to_membership(self):
        ring = HashRing(("w0", "w1"), replicas=5)
        assert ring.replicas == 2
        assert set(ring.owners(spread_keys(1)[0])) == {"w0", "w1"}

    def test_determinism_across_instances(self):
        a = HashRing(("w0", "w1", "w2"))
        b = HashRing(("w0", "w1", "w2"))
        keys = spread_keys(100)
        assert [a.owner(key) for key in keys] == [b.owner(key) for key in keys]

    def test_membership_change_moves_few_keys(self):
        # The property consistent hashing exists for: adding a node
        # remaps only the keys the new node takes over.
        before = HashRing(("w0", "w1", "w2"))
        after = HashRing(("w0", "w1", "w2", "w3"))
        keys = spread_keys(1000)
        moved = sum(
            1
            for key in keys
            if before.owner(key) != after.owner(key)
            and after.owner(key) != "w3"
        )
        # Keys not claimed by w3 must keep their owner.
        assert moved == 0

    def test_balance_within_reason(self):
        ring = HashRing(("w0", "w1", "w2"))
        counts = {"w0": 0, "w1": 0, "w2": 0}
        for key in spread_keys(3000):
            counts[ring.owner(key)] += 1
        for count in counts.values():
            assert 500 < count < 1700  # no node starved or dominant


class TestShardKeys:
    #: Keys of fixed tables.  Row bytes are little-endian and the hash is
    #: blake2b, so these hold on any host and under any PYTHONHASHSEED
    #: (which is random per interpreter unless set).
    PINNED = {
        (0, 0x1): "07c2c2c850358745",
        (3, 0xE8): "72fb60aecd5e6ea1",
        (4, 0x6AC5): "08cdb1d4bae31549",
        (6, 0x0123456789ABCDEF): "2d2e6cf9102d3b7c",
        (7, (1 << 128) - 3): "b631e089f7c28089",
    }

    def test_pinned_keys(self):
        tables = [TruthTable(n, bits) for n, bits in self.PINNED]
        assert shard_keys(tables) == list(self.PINNED.values())
        assert [key_of(table) for table in tables] == list(self.PINNED.values())

    def test_npn_equivalent_queries_share_a_shard(self, tiny_library):
        # The MSV is NPN-invariant: any transform of a function must
        # hash to the same shard its class representative lives on.
        rng = random.Random(2023)
        for value in (0xE8, 0x96, 0x1B, 0x80):
            table = TruthTable(3, value)
            key = key_of(table)
            for _ in range(10):
                transformed = table.apply(random_transform(3, rng))
                assert key_of(transformed) == key

    def test_shard_filter_partitions_the_library(self, tiny_library):
        ring = HashRing(("w0", "w1", "w2"))
        shards = {
            node: tiny_library.subset(ring.shard_filter(node))
            for node in ring.nodes
        }
        # Every class is held by exactly `replicas` workers...
        holders = {class_id: 0 for class_id in tiny_library.classes}
        for shard in shards.values():
            for class_id in shard.classes:
                holders[class_id] += 1
        assert set(holders.values()) == {DEFAULT_REPLICAS}
        # ...and the shards' union is the whole library.
        union = set().union(*(s.classes for s in shards.values()))
        assert union == set(tiny_library.classes)

    @pytest.mark.parametrize("library", ["tiny", "random-n6"])
    def test_batched_shard_filter_matches_scalar_filter(
        self, library, tiny_library
    ):
        if library == "tiny":
            source = tiny_library
        else:
            rng = random.Random(200)
            source = build_library(
                [TruthTable(6, rng.getrandbits(64)) for _ in range(200)]
            )
            assert source.num_classes == 200
        ring = HashRing(("w0", "w1", "w2"))
        for node in ring.nodes:
            batched = source.subset(ring.shard_filter(node))
            scalar = [
                class_id
                for class_id, entry in source.classes.items()
                if ring.covers(key_of(entry.representative), node)
            ]
            assert list(batched.classes) == scalar

    def test_shard_filter_rejects_foreign_node(self):
        ring = HashRing(("w0", "w1"))
        with pytest.raises(ValueError):
            ring.shard_filter("intruder")

    def test_sharded_worker_answers_its_own_queries(self, tiny_library):
        # A query routed by shard key must hit a worker whose subset
        # still matches it — the property the router relies on.
        ring = HashRing(("w0", "w1", "w2"))
        shards = {
            node: tiny_library.subset(ring.shard_filter(node))
            for node in ring.nodes
        }
        rng = random.Random(7)
        for _ in range(50):
            table = TruthTable(3, rng.randrange(1 << 8))
            key = key_of(table)
            for owner in ring.owners(key):
                hit = shards[owner].match(table)
                assert hit is not None
                assert hit.verify(table)


class TestBatchedShardKeys:
    @settings(max_examples=25, deadline=None)
    @given(batch=key_batches())
    def test_batched_keys_equal_scalar_keys(self, batch):
        expected = [key_of(table) for table in batch]
        assert shard_keys(batch) == expected
        assert router_keys(batch) == expected


class TestSubset:
    def test_subset_preserves_scheme_and_parts(self, tiny_library):
        subset = tiny_library.subset(Keep(lambda entry: entry.n == 2))
        assert subset.parts == tiny_library.parts
        assert subset.num_classes == 4
        assert all(entry.n == 2 for entry in subset.classes.values())

    def test_empty_subset_serves_misses(self, tiny_library):
        empty = tiny_library.subset(Keep(lambda entry: False))
        assert empty.num_classes == 0
        assert empty.match(TruthTable(3, 0xE8)) is None


class TestShardLoad:
    """A worker's load verifies only the rows its shard keeps."""

    RING = ("w0", "w1", "w2")

    @pytest.fixture
    def tampered(self, tiny_library, tmp_path):
        """The tiny library, resealed with its last row replaced by the
        constant-1 table: a non-canonical representative whose row still
        sorts last, so only the orbit check can catch it."""
        path = tmp_path / "lib"
        tiny_library.save(path)

        def plant(arrays):
            assert int(arrays["ns"][-1]) == 3
            arrays["reps"][-1, 0] = 0xFF

        _rewrite_tables(path, plant)
        bad = TruthTable(3, 0xFF)
        owners = HashRing(self.RING).owners(key_of(bad))
        assert 0 < len(owners) < len(self.RING)
        return path, bad, owners

    def test_only_the_owners_of_a_bad_row_refuse_it(self, tampered):
        path, bad, owners = tampered
        ring = HashRing(self.RING)
        with pytest.raises(LibraryFormatError, match="non-canonical"):
            ClassLibrary.load(path)
        for node in self.RING:
            keep = ring.shard_filter(node)
            if node in owners:
                with pytest.raises(LibraryFormatError, match="non-canonical"):
                    ClassLibrary.load(path, keep)
            else:
                shard = ClassLibrary.load(path, keep)
                assert shard.num_classes > 0
                assert bad not in [
                    e.representative for e in shard.classes.values()
                ]

    def test_verify_canonicalizes_exactly_the_kept_rows(
        self, tiny_library, tmp_path, monkeypatch
    ):
        path = tmp_path / "lib"
        tiny_library.save(path)
        seen = []
        real = store.canonical_forms
        monkeypatch.setattr(
            store,
            "canonical_forms",
            lambda tables, *args: seen.append(list(tables))
            or real(tables, *args),
        )
        ring = HashRing(self.RING)
        for node in self.RING:
            seen.clear()
            shard = ClassLibrary.load(path, ring.shard_filter(node))
            expected = tiny_library.subset(ring.shard_filter(node))
            assert list(shard.classes) == list(expected.classes)
            assert seen == [
                [e.representative for e in expected.classes.values()]
            ]
            assert 0 < shard.num_classes < tiny_library.num_classes

    def test_worker_command_loads_only_its_shard(self, tampered, monkeypatch,
                                                 capsys):
        path, _, owners = tampered
        served = {}

        class StubWorker:
            def __init__(self, shard, worker_id, **kwargs):
                served[worker_id] = shard

            async def serve_forever(self):
                return None

        monkeypatch.setattr("repro.fabric.worker.FabricWorker", StubWorker)
        for node in self.RING:
            code = main([
                "worker", "--id", node, "--ring", ",".join(self.RING),
                "--library", str(path), "--port", "0",
            ])
            if node in owners:
                assert code == 2
                assert "non-canonical" in capsys.readouterr().err
                assert node not in served
            else:
                assert code == 0
                assert served[node].num_classes > 0
