"""Persistent NPN class library: canonical representatives + witness matching.

A :class:`ClassLibrary` stores one entry per NPN class: a canonical
representative truth table and the class size observed at build time.
The library closes the loop the bucketing engines leave open — a
:class:`~repro.core.classifier.ClassificationResult` groups functions
without ever saying *which* class a bucket is or *how* a member maps onto
it.  Here every class has a stable identity and :meth:`ClassLibrary.match`
recovers an explicit :class:`~repro.core.transforms.NPNTransform` witness
mapping the stored representative onto any queried function: by the
query's canonical form up to ``KERNEL_MATCH_VARS`` inputs, via the
signature-pruned matcher of :mod:`repro.baselines.matcher` above.
Every canonical form comes from :mod:`repro.canonical.form`, which
alone picks the canonicalizer for each arity of a batch.

Every representative is the *exact orbit minimum*
(:mod:`repro.canonical.form`) and the id is ``n{n}-c{hex}`` where the
hex **is** the representative.  Ids are a pure function of the orbit:
injective (no collisions, ever), identical across machines and build
orders.  The MSV only buckets the larger classes into the matching
chains that pre-filter :meth:`ClassLibrary.match`.

Persistence is a directory holding two files:

* ``classes.npz`` — every class once: its arity (``ns``), its size
  (``sizes``) and its representative as packed little-endian ``uint64``
  words (``reps``), rows sorted by ``(n, representative)``;
* ``manifest.json`` — a header only: format name, format version 3,
  MSV parts and the sha256 of ``classes.npz``.

Ids are not stored: each is derived from its representative.  Both
files are written deterministically (sorted rows, canonical JSON, fixed
zip timestamps), so rebuilding the same corpus yields byte-identical
artifacts — the property the regression suite pins.  Every
:meth:`ClassLibrary.load` checks the seal, the array shapes, arities
and sizes, that the rows strictly increase, and that every
representative is its own orbit minimum (one
:func:`~repro.canonical.form.canonical_forms` call), so corruption or
a format drift fails loudly instead of producing garbage matches.  Older, version-1 and version-2
artifacts are converted once by :mod:`repro.library.migrate`.
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.baselines.matcher import find_npn_transforms_grouped
from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    canonical_forms_with_transforms,
    checked_witnesses,
)
from repro.core import bitops
from repro.core.msv import DEFAULT_PARTS, MixedSignature
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.engine import BatchedClassifier, PackedTables
from repro.engine.signatures import row_bytes, signature_keys
from repro.kernels import canonical_min  # noqa: F401 - a perfbench span target

__all__ = [
    "ClassLibrary",
    "NPNClassEntry",
    "LibraryMatch",
    "LibraryFormatError",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_FILE",
    "TABLES_FILE",
]

FORMAT_NAME = "repro-npn-class-library"
FORMAT_VERSION = 3
MANIFEST_FILE = "manifest.json"
TABLES_FILE = "classes.npz"
#: The arrays of a version-3 ``classes.npz``, one row per class.
TABLE_ARRAYS = ("ns", "sizes", "reps")
#: The manifest field holding the sha256 hex digest of ``classes.npz``.
SEAL_FIELD = "classes_sha256"
#: Largest arity :meth:`ClassLibrary.match_many` resolves by canonical
#: form.  Above it the signature chains plus the grouped matcher are
#: cheaper.  ``n = 6`` hits from a 64-class library, in µs per query on a
#: 2-core x86 host (chains vs form path): 829-861 vs 314-367 for a lone
#: query, but 101-109 vs 158-173 at batch 16 and 37-39 vs 149-161 at 256.
KERNEL_MATCH_VARS = 5

_REG = obs.registry()
_MATCH_PHASE_SECONDS = _REG.histogram(
    "repro_library_match_seconds",
    "match_many phase timings per batch: the canonical-form kernel pass "
    "of small queries, the vectorized signature pass and the grouped "
    "witness-search rounds of the rest, and the learn step of the misses.",
    labels=("phase",),
)
_MATCH_QUERIES = _REG.counter(
    "repro_library_match_queries_total",
    "Queries resolved by match_many, by outcome (hit or miss).",
    labels=("outcome",),
)
_LOAD_SECONDS = _REG.histogram(
    "repro_library_load_seconds",
    "Wall-clock time of one ClassLibrary.load: reading both files and "
    "checking them, the canonical-representative check included.",
)
_MATCH_ROUNDS = _REG.counter(
    "repro_library_match_rounds_total",
    "Chain-walk witness rounds run by match_many (one grouped matcher "
    "pass each).",
)


class LibraryFormatError(ValueError):
    """A library artifact is missing, corrupted, or of the wrong format."""


@dataclass(frozen=True)
class NPNClassEntry:
    """One NPN class: identity, canonical representative, size.

    Attributes:
        class_id: stable identity ``n{n}-c{hex}``, a pure function of
            the orbit (the hex is the exact canonical representative).
        representative: the class's canonical truth table, the minimum
            table over the whole NPN orbit.
        size: number of functions classified into this class at build
            time (summed by :meth:`ClassLibrary.add_class` when the class
            is added again).
    """

    class_id: str
    representative: TruthTable
    size: int

    @property
    def n(self) -> int:
        return self.representative.n


@dataclass(frozen=True)
class LibraryMatch:
    """A successful library lookup: the class plus a witness transform.

    ``transform`` maps the stored representative onto the queried
    function: ``entry.representative.apply(transform) == query``.  It is
    verified before being returned (by
    :func:`~repro.canonical.form.checked_witnesses`, or by the matcher
    on the chain path), and :meth:`verify` re-checks it against
    any table.
    """

    entry: NPNClassEntry
    transform: NPNTransform

    @property
    def class_id(self) -> str:
        return self.entry.class_id

    @property
    def representative(self) -> TruthTable:
        return self.entry.representative

    def verify(self, query: TruthTable) -> bool:
        """Check the witness reproduces ``query`` from the representative."""
        return self.entry.representative.apply(self.transform) == query


class ClassLibrary:
    """Disk-backed collection of NPN classes with witness-producing lookup.

    The signature pre-filter of the larger classes and the fabric's
    shard key are both the paper's full MSV, :data:`DEFAULT_PARTS`;
    the part ablations live in the classifiers only.

    Example:
        >>> from repro.library import build_exhaustive_library
        >>> lib = build_exhaustive_library(3)
        >>> lib.num_classes
        14
        >>> from repro import TruthTable
        >>> hit = lib.match(TruthTable.majority(3))
        >>> hit.verify(TruthTable.majority(3))
        True
    """

    #: The MSV parts every signature of a library is computed over.
    parts = DEFAULT_PARTS

    def __init__(self) -> None:
        self.classes: dict[str, NPNClassEntry] = {}
        #: Lazy signature index: a flat MSV row's bytes -> ordered list
        #: of candidate class ids (the matching chain).  A chain holds
        #: exactly the classes of one signature; the matcher proves
        #: every witness.  At the library's parts the row width grows
        #: with ``n``, so rows of two arities never share a key.
        #: ``None`` until the first :meth:`match_many`; kept
        #: incrementally by :meth:`add_class`, dropped on wholesale
        #: mutation.
        self._chains: dict[bytes, list[str]] | None = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    @property
    def num_functions(self) -> int:
        """Total functions classified into the library at build time."""
        return sum(entry.size for entry in self.classes.values())

    def arities(self) -> tuple[int, ...]:
        """Distinct variable counts covered, ascending."""
        return tuple(sorted({entry.n for entry in self.classes.values()}))

    def entries(self) -> list[NPNClassEntry]:
        """All entries in the canonical (n, class_id) order."""
        return sorted(
            self.classes.values(), key=lambda e: (e.n, e.class_id)
        )

    def stats(self) -> list[dict]:
        """Per-arity summary rows (for the CLI and reports)."""
        rows = []
        for n in self.arities():
            entries = [e for e in self.classes.values() if e.n == n]
            rows.append(
                {
                    "n": n,
                    "classes": len(entries),
                    "functions": sum(e.size for e in entries),
                    "largest_class": max(e.size for e in entries),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def base_id_of(signature: MixedSignature) -> str:
        """The signature's digest bucket id ``n{n}-{digest}``.

        It names the bucket of every class whose orbit has this
        signature (several classes share it when their signatures
        collide), stable across processes.  No serving path uses it:
        the matching chains and the fabric's shard key key on the flat
        MSV row.  It stays because perfbench's ``_SignatureScreen``
        (``perfbench/workloads.py``) screens the learn workload's
        traffic with it.
        """
        return f"n{signature.n}-{signature.digest()}"

    def add_class(
        self,
        representative: TruthTable,
        size: int,
        canonical_rep: bool = False,
        signature: bytes | None = None,
    ) -> NPNClassEntry:
        """Insert (or grow) the class of ``representative``.

        The representative is canonicalized (exact orbit minimum) unless
        ``canonical_rep`` asserts it already is — the batched build and
        learn paths canonicalize up front and skip the recompute — and
        the id *is* that form.  An existing entry absorbs the new size.

        ``signature``, when given, is the MSV key (the flat row's bytes
        of :meth:`BatchedClassifier.signatures`) of any member of the
        class — it is an NPN invariant; a new class is indexed in the
        matching chains under it instead of recomputing the
        representative's.
        """
        rep = representative if canonical_rep else canonical_form(representative)
        class_id = canonical_class_id(rep)
        entry = NPNClassEntry(class_id, rep, size)
        existing = self.classes.get(class_id)
        if existing is not None:
            entry = _merge_entries(existing, entry)
        self.classes[class_id] = entry
        if existing is None and self._chains is not None:
            self._chain_insert(entry, signature)
        return entry

    def subset(self, keep) -> "ClassLibrary":
        """A new library holding only the entries ``keep`` selects.

        The distributed fabric's shard loader: a worker keeps the
        classes whose shard key — the hashed flat MSV row of the
        representative — it owns on the consistent-hash ring (see
        :meth:`repro.fabric.ring.HashRing.shard_filter`) and drops the
        rest, so N workers hold ~1/N of the library each (times the
        replication factor).  Entries are shared by reference — they are
        frozen dataclasses — and *not* verified here: a loaded library
        verified its entries, and :meth:`load` with ``keep`` subsets
        first and then verifies only the kept ones.

        ``keep.select(entries) -> list[bool]`` is asked once for every
        entry, so the ring's shard filter answers from one batched pass.
        """
        shard = ClassLibrary()
        items = list(self.classes.items())
        kept = keep.select([entry for _, entry in items])
        shard.classes = {
            class_id: entry
            for (class_id, entry), wanted in zip(items, kept)
            if wanted
        }
        return shard

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def lookup(self, tt: TruthTable) -> NPNClassEntry | None:
        """The entry of ``tt``'s class (no witness transform).

        Exact: ``tt`` is canonicalized and its orbit's id looked up
        directly, so a hit is a guaranteed class membership and a miss
        is a guaranteed absence.
        """
        rep = canonical_form(tt)
        return self.classes.get(canonical_class_id(rep))

    def match(self, tt: TruthTable) -> LibraryMatch | None:
        """Resolve ``tt`` to its class and a verified witness transform.

        Returns ``None`` when ``tt``'s orbit is not stored: at
        ``n <= KERNEL_MATCH_VARS`` its canonical id is absent; above,
        no stored class shares its signature, or the matcher proves
        every class in that signature's chain NPN-inequivalent (a
        signature collision — possible because the MSV is sound but not
        exact; the miss is reported instead of a wrong class id).
        """
        return self.match_many([tt])[0]

    def match_many(
        self,
        tts: Iterable[TruthTable],
        learn: Callable[..., list[LibraryMatch]] | None = None,
    ) -> list[LibraryMatch | None]:
        """Resolve many queries in one batched pass, preserving order.

        Queries of arity ``n <= KERNEL_MATCH_VARS`` take one
        :func:`~repro.canonical.form.canonical_forms_with_transforms`
        call, whatever their arities: the orbit minimum *is* the class
        id, so ``classes[id]`` is the answer, and the inverse of the
        transform onto the form is the witness (all hits checked in one
        gather per arity by
        :func:`~repro.canonical.form.checked_witnesses`, which raises on
        a canonicalizer bug).  No signature, no chain walk.

        Larger queries are signed in one
        :meth:`~repro.engine.BatchedClassifier.signatures` call; the
        witness searches then run through the gather kernels with
        candidate checks batched **across queries sharing a class** —
        one variable-key pass per arity, one gather per class group —
        instead of a scalar search per query.

        ``learn`` (``serve --learn`` passes
        :meth:`~repro.library.online.LearningLibrary.learn`) is called
        once, after the hit/miss counters, as ``learn(tables, forms,
        signatures)`` with the misses and the ``(form, transform)`` or
        signature this pass computed for each (``None`` for the other);
        its matches replace the misses' ``None``.
        """
        tts = list(tts)
        if not tts or (not self.classes and learn is None):
            # A library with no classes yet (empty, or all knowledge
            # still in un-replayed WAL segments) answers every query
            # with a clean miss — no signature pass, no matcher call.
            _MATCH_QUERIES.inc(len(tts), outcome="miss")
            return [None] * len(tts)
        out: list[LibraryMatch | None] = [None] * len(tts)
        small: list[int] = []
        chained: list[int] = []
        for index, tt in enumerate(tts):
            (small if tt.n <= KERNEL_MATCH_VARS else chained).append(index)
        forms: dict[int, tuple[TruthTable, NPNTransform]] = {}
        signatures: dict[int, bytes] = {}
        if small:
            with obs.timed(_MATCH_PHASE_SECONDS, phase="kernel"):
                forms = self._match_by_form(tts, small, out)
        if chained:
            rows = [tts[i] for i in chained]
            with obs.timed(_MATCH_PHASE_SECONDS, phase="signatures"):
                signed = BatchedClassifier(self.parts).signatures(rows)
            signatures = dict(zip(chained, signed))
            with obs.timed(_MATCH_PHASE_SECONDS, phase="witness"):
                self._match_by_chain(tts, signatures, out)
        misses = [i for i, match in enumerate(out) if match is None]
        _MATCH_QUERIES.inc(len(out) - len(misses), outcome="hit")
        _MATCH_QUERIES.inc(len(misses), outcome="miss")
        if learn is not None and misses:
            with obs.timed(_MATCH_PHASE_SECONDS, phase="learn"):
                learned = learn(
                    [tts[i] for i in misses],
                    [forms.get(i) for i in misses],
                    [signatures.get(i) for i in misses],
                )
            for i, match in zip(misses, learned):
                out[i] = match
        return out

    def _match_by_form(
        self,
        tts: list[TruthTable],
        indices: list[int],
        out: list[LibraryMatch | None],
    ) -> dict[int, tuple[TruthTable, NPNTransform]]:
        """Resolve small queries by canonical form: id lookup + witness.

        The witnesses are built only for hits, and checked in one batch:
        a miss costs one kernel row and one dict lookup, no inverse and
        no apply check.  Returns each query's ``(form, transform)`` by
        index, for the learner.
        """
        rows = [tts[i] for i in indices]
        forms = dict(zip(indices, canonical_forms_with_transforms(rows)))
        hits = []
        for i, (form, _) in forms.items():
            entry = self.classes.get(canonical_class_id(form))
            if entry is not None:
                hits.append((i, entry))
        witnesses = checked_witnesses(
            [forms[i] for i, _ in hits], [tts[i] for i, _ in hits]
        )
        for (i, entry), witness in zip(hits, witnesses):
            out[i] = LibraryMatch(entry, witness)
        return forms

    def _match_by_chain(
        self,
        tts: list[TruthTable],
        signatures: dict[int, bytes],
        out: list[LibraryMatch | None],
    ) -> None:
        """Resolve queries by walking their signature chains.

        ``signatures`` maps each query's index to its MSV key.  Each
        query's chain holds the classes indexed under that key, in id
        order.  Round by round, queries whose candidate
        proves NPN-inequivalent advance to the next chain position;
        single-entry chains — the overwhelmingly common case — finish in
        one grouped matcher round.
        """
        chains = self._chain_index()
        active: dict[int, tuple[list[str], int]] = {}
        for index, signature in signatures.items():
            chain = chains.get(signature)
            if chain:
                active[index] = (chain, 0)
        while active:
            _MATCH_ROUNDS.inc()
            groups: dict[str, list[int]] = {}
            for index, (chain, position) in active.items():
                groups.setdefault(chain[position], []).append(index)
            group_entries = [self.classes[class_id] for class_id in groups]
            witness_rows = find_npn_transforms_grouped(
                [
                    (entry.representative, [tts[i] for i in indices])
                    for entry, indices in zip(group_entries, groups.values())
                ]
            )
            advanced: dict[int, tuple[list[str], int]] = {}
            for entry, indices, witnesses in zip(
                group_entries, groups.values(), witness_rows
            ):
                for i, witness in zip(indices, witnesses):
                    if witness is not None:
                        out[i] = LibraryMatch(entry, witness)
                    else:
                        chain, position = active[i]
                        if position + 1 < len(chain):
                            advanced[i] = (chain, position + 1)
            active = advanced

    # ------------------------------------------------------------------
    # Candidate-chain index
    # ------------------------------------------------------------------

    def _chain_index(self) -> dict[bytes, list[str]]:
        """MSV key -> ordered candidate class ids, built lazily.

        Only classes above ``KERNEL_MATCH_VARS`` are indexed: smaller
        queries resolve by canonical form and never walk a chain.  Every
        indexed representative's MSV row is recomputed — one vectorized
        pass per arity — to group the classes under their keys, ordered
        by id (deterministic: the fixed-width hex sorts numerically).
        A library with no such class signs nothing.
        """
        if self._chains is None:
            chains: dict[bytes, list[str]] = {}
            by_arity: dict[int, list[NPNClassEntry]] = {}
            for entry in self.entries():
                if entry.n > KERNEL_MATCH_VARS:
                    by_arity.setdefault(entry.n, []).append(entry)
            for entries in by_arity.values():
                for entry, key in zip(entries, self._keys(entries)):
                    chains.setdefault(key, []).append(entry.class_id)
            self._chains = chains
        return self._chains

    def _chain_insert(
        self,
        entry: NPNClassEntry,
        signature: bytes | None = None,
    ) -> None:
        """Incrementally index one new class (the learner's mint path).

        ``signature`` (any member's MSV key) saves recomputing the
        representative's.  Classes the canonical-form path serves
        (``n <= KERNEL_MATCH_VARS``) are not indexed.
        """
        if self._chains is None or entry.n <= KERNEL_MATCH_VARS:
            return
        if signature is None:
            (signature,) = self._keys([entry])
        chain = self._chains.setdefault(signature, [])
        chain.append(entry.class_id)
        chain.sort()

    def _keys(self, entries: list[NPNClassEntry]) -> list[bytes]:
        """MSV keys of one arity's representatives, in one kernel pass."""
        packed = PackedTables.from_tables([e.representative for e in entries])
        return row_bytes(signature_keys(packed, self.parts))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write ``classes.npz`` + ``manifest.json`` under directory ``path``.

        Deterministic: the same library content produces byte-identical
        files on every run and platform (rows sorted by
        ``(n, representative)``, canonical JSON, fixed zip timestamps).
        The manifest goes last: it seals the npz bytes just written.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        entries = self.entries()
        words = max(
            (bitops.words_per_table(e.n) for e in entries), default=1
        )
        reps = np.zeros((len(entries), words), dtype=np.uint64)
        for row, e in enumerate(entries):
            bits = e.representative.bits
            for w in range(bitops.words_per_table(e.n)):
                reps[row, w] = (bits >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
        tables = _npz_bytes(
            {
                "ns": np.array([e.n for e in entries], dtype=np.int64),
                "sizes": np.array([e.size for e in entries], dtype=np.int64),
                "reps": reps,
            }
        )
        (directory / TABLES_FILE).write_bytes(tables)
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "parts": list(self.parts),
            SEAL_FIELD: hashlib.sha256(tables).hexdigest(),
        }
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        return directory

    @classmethod
    def load(cls, path: str | Path, keep=None) -> "ClassLibrary":
        """Read a saved library, checking every part of it.

        Only version-3 manifests load; an older one raises
        :class:`LibraryFormatError` naming ``repro-npn library migrate``,
        which converts it in place.  Every load checks that
        ``classes.npz`` hashes to the manifest's seal, that its arrays
        have consistent shapes, valid arities and sizes of at least one,
        that its rows strictly increase by ``(n, representative)`` — no
        duplicate, no reorder — and that every representative is its own
        canonical form, recomputed in one batch.  A corrupted or hand-edited
        artifact raises :class:`LibraryFormatError` instead of
        mis-matching queries.  Class ids are derived from the
        representatives; loading never writes to the directory.

        With ``keep`` (a :meth:`subset` selector, such as a worker's
        :meth:`~repro.fabric.ring.HashRing.shard_filter`) the load
        returns only the entries ``keep`` selects.  The seal, shape and
        row-order checks still cover the whole file, but only the kept
        representatives are canonicalized: a worker pays the orbit
        check for its own shard, not for the whole library.

        Every call, failed ones included, is observed into
        ``repro_library_load_seconds``.
        """
        with obs.timed(_LOAD_SECONDS):
            return cls._read(path, keep)

    @classmethod
    def _read(cls, path: str | Path, keep=None) -> "ClassLibrary":
        """The body of :meth:`load`, unmetered."""
        directory = Path(path)
        manifest = _read_manifest(directory / MANIFEST_FILE)
        arrays = _read_tables(
            directory / TABLES_FILE, TABLE_ARRAYS, seal=manifest[SEAL_FIELD]
        )
        library = _empty_library(directory, manifest)
        previous = None
        for row, (table, size) in enumerate(_table_rows(directory, arrays)):
            key = (table.n, table.bits)
            if previous is not None and key <= previous:
                raise LibraryFormatError(
                    f"{directory}: row {row} of {TABLES_FILE} does not "
                    f"follow its predecessor — rows must strictly increase "
                    f"by (n, representative)"
                )
            previous = key
            class_id = canonical_class_id(table)
            library.classes[class_id] = NPNClassEntry(class_id, table, size)
        if keep is not None:
            library = library.subset(keep)
        _verify_canonical_reps(directory, library)
        return library


def _empty_library(directory: Path, manifest: dict) -> ClassLibrary:
    """An empty library, once the manifest names the library's MSV parts."""
    if manifest["parts"] != list(ClassLibrary.parts):
        raise LibraryFormatError(
            f"{directory}: manifest parts are invalid: "
            f"{manifest['parts']!r} is not {list(ClassLibrary.parts)}"
        )
    return ClassLibrary()


def _table_rows(
    directory: Path, arrays: dict[str, np.ndarray]
) -> list[tuple[TruthTable, int]]:
    """``(representative, size)`` of every row of the ``ns``/``sizes``/``reps`` arrays.

    Array shapes, lengths, arities and sizes are checked before any row
    is read, so every malformed table file raises :class:`LibraryFormatError`.
    """
    ns, sizes, reps = (arrays[name] for name in TABLE_ARRAYS)
    if ns.ndim != 1 or sizes.ndim != 1 or reps.ndim != 2:
        raise LibraryFormatError(
            f"{directory}: {TABLES_FILE} arrays have the wrong shape "
            f"(ns and sizes must be 1-D, reps 2-D)"
        )
    if not len(ns) == len(sizes) == len(reps):
        raise LibraryFormatError(
            f"{directory}: {TABLES_FILE} arrays disagree on the number of "
            f"classes"
        )
    if ns.dtype.kind not in "iu" or (
        len(ns) and not 0 <= ns.min() <= ns.max() <= bitops.MAX_VARS
    ):
        raise LibraryFormatError(
            f"{directory}: {TABLES_FILE} stores an arity that is not an "
            f"integer in 0..{bitops.MAX_VARS}"
        )
    if sizes.dtype.kind not in "iu" or (len(sizes) and sizes.min() < 1):
        raise LibraryFormatError(
            f"{directory}: {TABLES_FILE} stores a class size that is not "
            f"an integer >= 1"
        )
    words =bitops.words_per_table(int(ns.max(initial=0)))
    if reps.shape[1] < words:
        raise LibraryFormatError(
            f"{directory}: {TABLES_FILE} reps has {reps.shape[1]} word "
            f"column(s); its largest arity needs {words}"
        )
    rows = []
    for row, (n, size, words_of_row) in enumerate(
        zip(ns.tolist(), sizes.tolist(), reps.tolist())
    ):
        bits = 0
        for w in range(bitops.words_per_table(n)):
            bits |= int(words_of_row[w]) << (64 * w)
        try:
            rows.append((TruthTable(n, bits), int(size)))
        except ValueError as exc:
            raise LibraryFormatError(
                f"{directory}: row {row} of {TABLES_FILE}: {exc}"
            ) from exc
    return rows


def _merge_entries(a: NPNClassEntry, b: NPNClassEntry) -> NPNClassEntry:
    """Combine two entries of the same class id: sum their sizes."""
    return replace(a, size=a.size + b.size)


def _verify_canonical_reps(directory: Path, library: ClassLibrary) -> None:
    """Check every stored representative is its own canonical form.

    Ids are derived from the tables; this ties each table to its
    *orbit* — a tampered representative cannot smuggle a wrong table in
    under a self-consistent id.  All representatives go through one
    :func:`~repro.canonical.form.canonical_forms` call.
    """
    entries = list(library.classes.values())
    forms = canonical_forms([e.representative for e in entries])
    for entry, form in zip(entries, forms):
        if form != entry.representative:
            raise LibraryFormatError(
                f"{directory}: class {entry.class_id!r} stores a "
                f"non-canonical representative (not its orbit minimum) — "
                f"the artifact is corrupted or was produced by an "
                f"incompatible canonicalizer"
            )


def _read_manifest(
    path: Path,
    versions: tuple[int, ...] = (FORMAT_VERSION,),
    fields: tuple[str, ...] = ("parts", SEAL_FIELD),
) -> dict:
    """The parsed manifest at ``path``: one of ``versions``, holding ``fields``."""
    if not path.exists():
        raise LibraryFormatError(f"{path}: library manifest not found")
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LibraryFormatError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise LibraryFormatError(
            f"{path}: not a {FORMAT_NAME} manifest "
            f"(format={manifest.get('format') if isinstance(manifest, dict) else None!r})"
        )
    found = manifest.get("version")
    if found not in versions:
        hint = ""
        if found == FORMAT_VERSION:
            hint = "; the library is already current"
        elif isinstance(found, int) and found < FORMAT_VERSION:
            hint = (
                f"; convert it in place with: repro-npn library migrate "
                f"--library {path.parent}"
            )
        expected = " or ".join(str(v) for v in versions)
        raise LibraryFormatError(
            f"{path}: unsupported library format version {found!r} "
            f"(this reader expects version {expected}){hint}"
        )
    for field in fields:
        if field not in manifest:
            raise LibraryFormatError(f"{path}: manifest is missing {field!r}")
    return manifest


def _read_tables(
    path: Path, names: tuple[str, ...], seal: str | None = None
) -> dict[str, np.ndarray]:
    """The ``names`` arrays of the npz at ``path``.

    With ``seal``, the file's sha256 hex digest must equal it; the bytes
    hashed are the bytes parsed.
    """
    if not path.exists():
        raise LibraryFormatError(f"{path}: library table file not found")
    data = path.read_bytes()
    if seal is not None and hashlib.sha256(data).hexdigest() != seal:
        raise LibraryFormatError(
            f"{path}: sha256 does not match the manifest's {SEAL_FIELD} — "
            f"the files are corrupted or out of step"
        )
    try:
        with np.load(io.BytesIO(data)) as npz:
            arrays = {name: npz[name] for name in names}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise LibraryFormatError(f"{path}: cannot read table arrays: {exc}") from exc
    return arrays


def _npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """``np.savez`` with reproducible bytes (fixed entry order and dates).

    ``np.savez`` stamps zip entries with the current time, which would
    make otherwise-identical libraries differ byte-for-byte between
    runs; the regression suite pins byte stability, so the archive is
    assembled by hand with the epoch timestamp.  ``np.load`` reads it
    like any other ``.npz``.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w") as handle:
                np.lib.format.write_array(
                    handle, np.ascontiguousarray(arrays[name])
                )
    return buffer.getvalue()
