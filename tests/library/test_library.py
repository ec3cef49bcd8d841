"""Tests for the persistent NPN class library (build/save/load/match)."""

import hashlib
import json
import random
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.exact_enum import exact_npn_canonical
from repro.canonical.form import canonical_form
from repro.core.classifier import FacePointClassifier
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier
from repro.library import (
    ClassLibrary,
    LibraryFormatError,
    build_exhaustive_library,
    build_library,
    library_from_result,
    migrate_library,
)
from repro.library.store import MANIFEST_FILE, TABLES_FILE
from repro.workloads.library_corpus import exhaustive_tables
from repro.workloads.random_functions import random_tables

V2_FIXTURE = Path(__file__).parent.parent / "data" / "library_v2"


@pytest.fixture(scope="module")
def lib3() -> ClassLibrary:
    """The complete n=3 inventory: 14 NPN classes over 256 functions."""
    return build_exhaustive_library(3)


class TestBuild:
    def test_exhaustive_n3_class_inventory(self, lib3):
        assert lib3.num_classes == 14
        assert lib3.num_functions == 256
        assert lib3.arities() == (3,)

    def test_exact_representatives_are_orbit_minima(self, lib3):
        for entry in lib3.entries():
            canonical = exact_npn_canonical(entry.representative).representative
            assert entry.representative == canonical
            assert entry.class_id == f"n3-c{canonical.to_hex()}"

    def test_class_sizes_partition_the_space(self, lib3):
        assert sum(e.size for e in lib3.entries()) == 256

    def test_engines_build_identical_libraries(self):
        """The two signature engines build byte-identical libraries."""
        tables = list(exhaustive_tables(2)) + random_tables(5, 120, seed=9)

        def snapshot(library):
            return [
                (e.class_id, e.representative, e.size) for e in library.entries()
            ]

        perfn = library_from_result(FacePointClassifier().classify(tables))
        batched = build_library(tables)
        assert snapshot(perfn) == snapshot(batched)
        for entry in batched.entries():
            assert entry.representative == canonical_form(entry.representative)

    def test_exact_build_splits_a_shared_signature_bucket(self):
        # Two n=5 orbits with one MSV: a signature bucket holds both, so
        # the signature engines build one class and the exact build two.
        pair = [TruthTable(5, 0x3DE88452), TruthTable(5, 0x83161D9A)]
        orbits = {exact_npn_canonical(tt).representative for tt in pair}
        assert len(orbits) == 2
        assert build_library(pair).num_classes == 1
        perfn = FacePointClassifier().classify(pair)
        assert library_from_result(perfn).num_classes == 1
        exact = build_library(pair, exact=True)
        assert exact.num_classes == 2
        assert {e.representative for e in exact.entries()} == orbits

    def test_add_class_accumulates_size(self):
        library = ClassLibrary()
        maj = TruthTable.majority(3)
        library.add_class(maj, size=2)
        library.add_class(~maj, size=3)  # same class id (NPN inv.)
        assert library.num_classes == 1
        assert library.num_functions == 5

    def test_stats_rows(self, lib3):
        (row,) = lib3.stats()
        assert row["n"] == 3
        assert row["classes"] == 14
        assert row["functions"] == 256
        assert set(row) == {"n", "classes", "functions", "largest_class"}


class TestMatch:
    def test_every_function_matches_with_verified_witness(self, lib3):
        seen = set()
        for tt in exhaustive_tables(3):
            hit = lib3.match(tt)
            assert hit is not None
            assert hit.verify(tt)
            assert hit.representative.apply(hit.transform) == tt
            seen.add(hit.class_id)
        assert len(seen) == 14

    def test_match_of_representative_is_identity(self, lib3):
        for entry in lib3.entries():
            hit = lib3.match(entry.representative)
            assert hit.class_id == entry.class_id
            assert hit.transform.is_identity

    def test_miss_outside_covered_arities(self, lib3):
        assert lib3.match(TruthTable.majority(5)) is None
        assert lib3.lookup(TruthTable(2, 0b0110)) is None

    def test_elected_library_matches_planted_images(self):
        rng = random.Random(77)
        seeds = [TruthTable.random(5, rng) for _ in range(20)]
        corpus = [
            s.apply(random_transform(5, rng)) for s in seeds for _ in range(3)
        ]
        library = build_library(corpus)
        for seed_fn in seeds:
            query = seed_fn.apply(random_transform(5, rng))
            hit = library.match(query)
            assert hit is not None
            assert hit.verify(query)
            assert (
                hit.representative
                == exact_npn_canonical(query).representative
            )

    def test_libray_match_verify_rejects_other_query(self, lib3):
        maj = TruthTable.majority(3)
        hit = lib3.match(maj)
        assert hit.verify(maj)
        assert not hit.verify(~maj)


class TestChainWalk:
    """Classes sharing a chain key share one matching chain.

    The chain key is the flat MSV row's bytes.  Real signature
    collisions between NPN classes are rare to find by search, so these
    tests index a class under another class's key with
    ``add_class(signature=...)``, or put two classes under one key as a
    signature collision would.  The constant-0 class
    has the smallest id of its arity, so it always heads the chain.
    Chains index only ``n >= 6`` classes (smaller queries resolve by
    canonical form), so the functions here have six variables.
    """

    @staticmethod
    def chained(tt: TruthTable, with_tt: bool) -> ClassLibrary:
        """Constant-0 indexed under ``tt``'s signature, ahead of ``tt``."""
        library = ClassLibrary()
        if with_tt:
            library.add_class(tt, size=1)
        library._chain_index()
        zero = TruthTable(tt.n, 0)
        (key,) = BatchedClassifier(library.parts).signatures([tt])
        library.add_class(zero, size=1, signature=key)
        chain = library._chains[key]
        assert chain[0] == library.lookup(zero).class_id
        assert len(chain) == 1 + with_tt
        return library

    def test_match_walks_past_inequivalent_first_candidate(self):
        tt = TruthTable.random(6, random.Random(60))
        library = self.chained(tt, with_tt=True)
        hit = library.match(tt)
        assert hit is not None
        assert hit.class_id == library.lookup(tt).class_id
        assert hit.verify(tt)

    def test_npn_images_resolve_to_the_second_class(self):
        rng = random.Random(62)
        tt = TruthTable.random(6, rng)
        library = self.chained(tt, with_tt=True)
        for _ in range(5):
            image = tt.apply(random_transform(6, rng))
            hits = library.match_many([image, image])
            for hit in hits:
                assert hit is not None
                assert hit.class_id == library.lookup(tt).class_id
                assert hit.verify(image)

    def test_chain_end_is_a_clean_miss(self):
        tt = TruthTable.random(6, random.Random(63))
        library = self.chained(tt, with_tt=False)
        assert library.match(tt) is None

    def test_colliding_chain_key_resolves_each_query_to_its_class(self):
        rng = random.Random(64)
        tables = [TruthTable.random(6, rng) for _ in range(2)]
        library = ClassLibrary()
        for tt in tables:
            library.add_class(tt, size=1)
        chains = library._chain_index()
        keys = BatchedClassifier(library.parts).signatures(tables)
        assert keys[0] != keys[1]
        # A signature collision: both keys find one chain of two classes.
        shared = sorted(chains.pop(keys[0]) + chains.pop(keys[1]))
        chains[keys[0]] = chains[keys[1]] = shared
        for tt in tables:
            image = tt.apply(random_transform(6, rng))
            hit = library.match(image)
            assert hit is not None
            assert hit.class_id == library.lookup(tt).class_id
            assert hit.verify(image)


class TestMatchMany:
    def test_agrees_with_per_query_match(self, lib3):
        rng = random.Random(13)
        queries = [
            TruthTable.random(3, rng).apply(random_transform(3, rng))
            for _ in range(40)
        ]
        bulk = lib3.match_many(queries)
        assert len(bulk) == len(queries)
        for query, hit in zip(queries, bulk):
            single = lib3.match(query)
            assert hit is not None and single is not None
            assert hit.class_id == single.class_id
            assert hit.verify(query)

    def test_mixed_arities_and_misses_keep_order(self, lib3):
        queries = [
            TruthTable.majority(3),      # hit
            TruthTable.majority(5),      # miss: arity not covered
            TruthTable(3, 0x1E),         # hit
            TruthTable(2, 0b0110),       # miss: arity not covered
        ]
        bulk = lib3.match_many(queries)
        assert [hit is not None for hit in bulk] == [True, False, True, False]
        assert bulk[0].verify(queries[0])
        assert bulk[2].verify(queries[2])

    def test_empty_input(self, lib3):
        assert lib3.match_many([]) == []

    def test_match_delegates_to_match_many(self, lib3):
        # The single-query path is the bulk path: same hit, same witness.
        maj = TruthTable.majority(3)
        assert lib3.match(maj).class_id == lib3.match_many([maj])[0].class_id


class TestPersistence:
    def test_save_load_round_trip(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        loaded = ClassLibrary.load(tmp_path / "lib")
        assert loaded.parts == lib3.parts
        assert {e.class_id for e in loaded.entries()} == {
            e.class_id for e in lib3.entries()
        }
        for tt in exhaustive_tables(3):
            original = lib3.match(tt)
            reloaded = loaded.match(tt)
            assert reloaded is not None
            assert reloaded.class_id == original.class_id
            assert reloaded.verify(tt)

    def test_load_is_observed_in_the_load_histogram(self, lib3, tmp_path):
        from repro import obs

        histogram = obs.registry().get("repro_library_load_seconds")
        lib3.save(tmp_path / "lib")
        before = histogram.series()["count"]
        ClassLibrary.load(tmp_path / "lib")
        with pytest.raises(LibraryFormatError):
            ClassLibrary.load(tmp_path / "missing")
        assert histogram.series()["count"] == before + 2

    def test_save_is_byte_stable(self, lib3, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        lib3.save(first)
        build_exhaustive_library(3).save(second)  # independent rebuild
        for name in (MANIFEST_FILE, TABLES_FILE):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize(
        "corpus, manifest_sha256, tables_sha256",
        [
            (
                "exhaustive-n3",
                "6fb804d5bc0b65f607fbece257b4e24d49599fbde091035748418884b3caac01",
                "f679f39bdaf4373eac55812cfbc0050dab7a8ace72b9cd1748dd14529313717c",
            ),
            (
                "mixed-n2-6",
                "1759ba4fdea32b96c9cb5a7c4c624746702c073fb72dfe855e1ca0044223bce4",
                "cf034f86016c23e5c70a0ebf02398e969d89605f1fa93caca0c53fcb26341ed5",
            ),
        ],
    )
    def test_saved_bytes_are_pinned(
        self, corpus, manifest_sha256, tables_sha256, tmp_path
    ):
        """The version-3 files of two fixed corpora, byte for byte."""
        if corpus == "exhaustive-n3":
            library = build_exhaustive_library(3)
        else:
            library = build_library(
                [
                    *exhaustive_tables(2),
                    *exhaustive_tables(3),
                    *random_tables(5, 40, 7),
                    *random_tables(6, 40, 7),
                ]
            )
        library.save(tmp_path)
        digests = [
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in (MANIFEST_FILE, TABLES_FILE)
        ]
        assert digests == [manifest_sha256, tables_sha256]

    def test_round_trip_preserves_metadata(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        loaded = ClassLibrary.load(tmp_path / "lib")
        for original, reloaded in zip(lib3.entries(), loaded.entries()):
            assert original == reloaded

    def test_load_and_match_leave_the_directory_untouched(self, tmp_path):
        """Reading a library never writes to it: same files, same bytes."""
        from repro.kernels.gather import clear_memory_cache

        directory = tmp_path / "lib"
        tables = [tt for n in range(3, 7) for tt in random_tables(n, 25, seed=n)]
        build_library(tables).save(directory)

        def snapshot():  # every path under the library -> bytes (dirs: False)
            return {
                path.relative_to(directory): path.is_file() and path.read_bytes()
                for path in directory.rglob("*")
            }

        before = snapshot()
        clear_memory_cache()  # gather tables are built during the matches
        loaded = ClassLibrary.load(directory)
        rng = random.Random(5)
        hits = [tt.apply(random_transform(tt.n, rng)) for tt in tables]
        misses = [
            tt for n in range(3, 7) for tt in random_tables(n, 25, seed=50 + n)
        ]
        outcomes = loaded.match_many(hits + misses)
        assert all(o is not None for o in outcomes[: len(hits)])
        assert any(o is None for o in outcomes[len(hits):])
        loaded.match(hits[0])
        after = snapshot()
        assert sorted(after) == sorted(before)  # no file or directory added
        assert after == before  # and none rewritten

    def test_compressed_tables_file_loads(self, lib3, tmp_path):
        # A foreign tool may rewrite classes.npz with DEFLATE members;
        # resealed, the image loads as before.
        lib3.save(tmp_path)
        with np.load(tmp_path / TABLES_FILE) as data:
            arrays = {name: data[name] for name in data.files}
        np.savez_compressed(tmp_path / TABLES_FILE, **arrays)
        _reseal(tmp_path)
        loaded = ClassLibrary.load(tmp_path)
        assert loaded.entries() == lib3.entries()

    def test_empty_library_round_trips(self, tmp_path):
        empty = build_library([])
        empty.save(tmp_path / "empty")
        loaded = ClassLibrary.load(tmp_path / "empty")
        assert loaded.num_classes == 0
        assert loaded.stats() == []

    def test_missing_directory(self, tmp_path):
        with pytest.raises(LibraryFormatError, match="not found"):
            ClassLibrary.load(tmp_path / "nowhere")

    def test_missing_tables_file(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        (tmp_path / "lib" / TABLES_FILE).unlink()
        with pytest.raises(LibraryFormatError, match="not found"):
            ClassLibrary.load(tmp_path / "lib")

    def test_invalid_manifest_json(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        (tmp_path / "lib" / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(LibraryFormatError, match="not valid JSON"):
            ClassLibrary.load(tmp_path / "lib")

    def test_wrong_format_name(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        _edit_manifest(tmp_path / "lib", lambda m: m.update(format="pickle-dump"))
        with pytest.raises(LibraryFormatError, match="not a repro-npn"):
            ClassLibrary.load(tmp_path / "lib")

    def test_unsupported_version(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        _edit_manifest(tmp_path / "lib", lambda m: m.update(version=99))
        with pytest.raises(LibraryFormatError, match="version 99"):
            ClassLibrary.load(tmp_path / "lib")

    def test_class_count_mismatch(self, lib3, tmp_path):
        directory = tmp_path / "lib"
        lib3.save(directory)
        _rewrite_tables(directory, lambda a: a.update(sizes=a["sizes"][:-1]))
        with pytest.raises(LibraryFormatError, match="number of classes"):
            ClassLibrary.load(directory)

    @pytest.mark.parametrize(
        "field, corrupt",
        [
            ("manifest", lambda m: m["classes"][0].pop("id")),
            ("manifest", lambda m: m["classes"][0].update(id=5)),
            ("manifest", lambda m: m.update(classes=5)),
            ("manifest", lambda m: m["classes"].__setitem__(0, "n3-c00")),
            ("tables", lambda a: a["ns"].__setitem__(0, 7)),
            ("tables", lambda a: a["ns"].__setitem__(0, 21)),
            ("tables", lambda a: a["ns"].__setitem__(0, -1)),
            ("tables", lambda a: a.update(ns=a["ns"].astype(np.float64))),
            ("tables", lambda a: a.update(reps=a["reps"][:, 0])),
            ("tables", lambda a: a["reps"].__setitem__((0, 0), 0x1FF)),
            ("tables", lambda a: a.update(sizes=a["sizes"][:, None])),
            ("tables", lambda a: a.update(sizes=np.full_like(a["sizes"], -5))),
            ("tables", lambda a: a.update(sizes=np.zeros_like(a["sizes"]))),
            ("tables", lambda a: a.update(sizes=np.full(a["sizes"].shape, 2.5))),
        ],
        ids=[
            "record-without-id",
            "record-id-not-a-string",
            "classes-not-a-list",
            "record-not-an-object",
            "arity-wider-than-reps",
            "arity-above-max",
            "negative-arity",
            "float-arities",
            "one-dimensional-reps",
            "rep-wider-than-its-arity",
            "two-dimensional-sizes",
            "negative-sizes",
            "zero-sizes",
            "float-sizes",
        ],
    )
    def test_malformed_artifact_is_a_format_error(
        self, lib3, tmp_path, field, corrupt
    ):
        """Malformed tables fail a resealed load; malformed per-class
        records, which only the old formats carry, fail their migration."""
        if field == "manifest":
            directory = _copy_v2(tmp_path)
            _edit_manifest(directory, corrupt)
            with pytest.raises(LibraryFormatError):
                migrate_library(directory)
            return
        directory = tmp_path / "lib"
        lib3.save(directory)
        _rewrite_tables(directory, corrupt)
        with pytest.raises(LibraryFormatError):
            ClassLibrary.load(directory)

    def test_tampered_representative_hex(self, tmp_path):
        """A version-2 record whose hex disagrees with its npz row."""
        directory = _copy_v2(tmp_path)
        _edit_manifest(
            directory,
            lambda m: m["classes"][0].update(representative="ff"),
        )
        with pytest.raises(LibraryFormatError, match="disagrees"):
            migrate_library(directory)

    @pytest.mark.parametrize("part", ["npz-byte", "manifest-sha256"])
    def test_broken_seal_is_refused(self, lib3, tmp_path, part):
        """One flipped byte of ``classes.npz``, or an edited seal."""
        directory = tmp_path / "lib"
        lib3.save(directory)
        if part == "npz-byte":
            path = directory / TABLES_FILE
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        else:
            _edit_manifest(
                directory,
                lambda m: m.update(classes_sha256=m["classes_sha256"][::-1]),
            )
        with pytest.raises(LibraryFormatError, match="sha256"):
            ClassLibrary.load(directory)

    def test_tampered_table_words_fail_identity_check(self, lib3, tmp_path):
        """A resealed npz storing one class twice fails the row order.

        Both rows are orbit minima and each id is derived from its row,
        so only the strictly-increasing check can catch the repeat.
        """
        directory = tmp_path / "lib"
        lib3.save(directory)
        _rewrite_tables(
            directory, lambda a: a["reps"].__setitem__(0, a["reps"][1])
        )
        with pytest.raises(LibraryFormatError, match="strictly increase"):
            ClassLibrary.load(directory)

    def test_swapped_rows_break_the_row_order(self, lib3, tmp_path):
        directory = tmp_path / "lib"
        lib3.save(directory)

        def swap(arrays):
            for name in ("ns", "sizes", "reps"):
                arrays[name][[0, 1]] = arrays[name][[1, 0]]

        _rewrite_tables(directory, swap)
        with pytest.raises(LibraryFormatError, match="strictly increase"):
            ClassLibrary.load(directory)

    def test_load_verifies_with_one_kernel_call_per_arity(
        self, tmp_path, monkeypatch
    ):
        from repro.canonical import form

        rng = random.Random(17)
        tables = [TruthTable.random(n, rng) for n in (3, 4, 5, 6) for _ in range(9)]
        build_library(tables).save(tmp_path / "lib")
        arities = []
        real = form.canonical_min
        monkeypatch.setattr(
            form,
            "canonical_min",
            lambda ints, n: arities.append(n) or real(ints, n),
        )
        loaded = ClassLibrary.load(tmp_path / "lib")
        assert sorted(arities) == [3, 4, 5, 6]
        assert loaded.arities() == (3, 4, 5, 6)

    def test_corrupted_parts_field(self, lib3, tmp_path):
        """Only the full MSV is a library's signature: a valid but
        different part list is refused like garbage."""
        lib3.save(tmp_path / "lib")
        for parts in ("garbage", ["c0", "oiv"]):
            _edit_manifest(tmp_path / "lib", lambda m: m.update(parts=parts))
            with pytest.raises(LibraryFormatError, match="parts are invalid"):
                ClassLibrary.load(tmp_path / "lib")

    def test_corrupted_zip_payload(self, lib3, tmp_path):
        lib3.save(tmp_path / "lib")
        (tmp_path / "lib" / TABLES_FILE).write_bytes(b"\x00" * 64)
        _reseal(tmp_path / "lib")
        with pytest.raises(LibraryFormatError, match="cannot read"):
            ClassLibrary.load(tmp_path / "lib")


def _edit_manifest(directory, mutate) -> None:
    path = directory / MANIFEST_FILE
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


def _reseal(directory) -> None:
    """Make the manifest's seal name the current ``classes.npz`` bytes."""
    digest = hashlib.sha256((directory / TABLES_FILE).read_bytes()).hexdigest()
    _edit_manifest(directory, lambda m: m.update(classes_sha256=digest))


def _rewrite_tables(directory, mutate) -> None:
    """Apply ``mutate`` to the npz arrays, rewrite the file and reseal it."""
    with np.load(directory / TABLES_FILE) as data:
        arrays = {name: data[name].copy() for name in data.files}
    mutate(arrays)
    _write_raw_npz(directory / TABLES_FILE, arrays)
    _reseal(directory)


def _write_raw_npz(path, arrays) -> None:
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, array in arrays.items():
            with archive.open(f"{name}.npy", "w") as handle:
                np.lib.format.write_array(handle, array)


def _copy_v2(tmp_path):
    """A scratch copy of the version-2 fixture library."""
    directory = tmp_path / "v2"
    shutil.copytree(V2_FIXTURE, directory)
    return directory


class TestIdSchemePersistence:
    """Artifacts are version 3; ids are derived from the representatives."""

    def test_canonical_round_trip_is_version_3(self, lib3, tmp_path):
        directory = tmp_path / "lib"
        lib3.save(directory)
        tables = (directory / TABLES_FILE).read_bytes()
        assert json.loads((directory / MANIFEST_FILE).read_text()) == {
            "format": "repro-npn-class-library",
            "version": 3,
            "parts": list(lib3.parts),
            "classes_sha256": hashlib.sha256(tables).hexdigest(),
        }
        with np.load(directory / TABLES_FILE) as data:
            assert sorted(data.files) == ["ns", "reps", "sizes"]
        loaded = ClassLibrary.load(directory)
        assert {e.class_id for e in loaded.entries()} == {
            e.class_id for e in lib3.entries()
        }

    def test_v2_manifest_with_unknown_scheme_rejected(self, tmp_path):
        directory = _copy_v2(tmp_path)
        _edit_manifest(directory, lambda m: m.update(id_scheme="garbage"))
        with pytest.raises(LibraryFormatError, match="id scheme"):
            migrate_library(directory)

    def test_load_rejects_non_minimum_canonical_rep(self, lib3, tmp_path):
        # Replace one rep with a *non-minimum* member of its orbit and
        # keep the rows sorted and sealed: the derived id names the
        # impostor and the row order holds, so only the orbit-minimum
        # verification pass can catch it.
        directory = tmp_path / "lib"
        lib3.save(directory)
        victim = next(
            e for e in lib3.entries() if e.representative != ~e.representative
        )
        impostor = ~victim.representative  # same orbit, not the minimum
        row = lib3.entries().index(victim)

        def tamper(arrays):
            arrays["reps"][row][0] = impostor.bits
            order = np.argsort(arrays["reps"][:, 0], kind="stable")
            for name in ("ns", "sizes", "reps"):
                arrays[name] = arrays[name][order]

        _rewrite_tables(directory, tamper)
        with pytest.raises(LibraryFormatError, match="non-canonical"):
            ClassLibrary.load(directory)
