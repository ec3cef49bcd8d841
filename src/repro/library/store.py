"""Persistent NPN class library: canonical representatives + witness matching.

A :class:`ClassLibrary` stores one entry per NPN class: a canonical
representative truth table, the class size observed at build time, and
the face/point characteristics of the representative.  The library
closes the loop the bucketing engines leave open — a
:class:`~repro.core.classifier.ClassificationResult` groups functions
without ever saying *which* class a bucket is or *how* a member maps onto
it.  Here every class has a stable identity and :meth:`ClassLibrary.match`
recovers an explicit :class:`~repro.core.transforms.NPNTransform` witness
mapping the stored representative onto any queried function, via the
signature-pruned matcher of :mod:`repro.baselines.matcher`.

Two id schemes exist:

* ``"canonical"`` (the default, format version 2) — every representative
  is the *exact orbit minimum* (:mod:`repro.canonical.form`) and the id
  is ``n{n}-c{hex}`` where the hex **is** the representative.  Ids are a
  pure function of the orbit: injective (no collisions, ever), identical
  across machines and build orders, so libraries merge by id safely.
* ``"digest"`` (legacy, format version 1) — ids are ``n{n}-{MSV digest}``
  with ``-1``, ``-2`` … overflow slots for digest-colliding orbits.
  Still fully readable and writable (byte-identical to pre-canonical
  artifacts) so existing libraries keep loading; new libraries should
  not use it.

Persistence is a directory holding two files:

* ``manifest.json`` — format name, format version, id scheme (version
  2), MSV parts and the per-class metadata (id, arity, size,
  representative hex, satisfy count, influence vector);
* ``classes.npz`` — the representatives as packed little-endian
  ``uint64`` words plus the size/arity arrays, in manifest order.

Both files are written deterministically (sorted classes, fixed zip
timestamps), so rebuilding the same corpus yields byte-identical
artifacts — the property the regression suite pins.  :meth:`ClassLibrary.load`
cross-checks the two files against each other and re-verifies every
class id against its representative (signature recomputation for the
digest scheme, canonical-form recomputation for the canonical scheme),
so corruption or a format drift fails loudly instead of producing
garbage matches.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.baselines.matcher import find_npn_transform, find_npn_transforms_grouped
from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    parse_canonical_class_id,
)
from repro.core import bitops
from repro.core import characteristics as chars
from repro.core.msv import DEFAULT_PARTS, MixedSignature, compute_msv, normalize_parts
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS
from repro.kernels.ops import canonical_min

__all__ = [
    "ClassLibrary",
    "NPNClassEntry",
    "LibraryMatch",
    "LibraryFormatError",
    "class_id_matches",
    "overflow_successor",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "DIGEST_FORMAT_VERSION",
    "ID_SCHEMES",
    "MANIFEST_FILE",
    "TABLES_FILE",
]

FORMAT_NAME = "repro-npn-class-library"
#: Current format: canonical-scheme manifests carrying an ``id_scheme``.
FORMAT_VERSION = 2
#: Legacy format: digest-scheme manifests with no ``id_scheme`` field.
#: Digest-scheme saves still emit this version so pre-canonical builds
#: and readers keep working byte-for-byte.
DIGEST_FORMAT_VERSION = 1
#: Class-identity schemes a library can use (see module docstring).
ID_SCHEMES = ("canonical", "digest")
MANIFEST_FILE = "manifest.json"
TABLES_FILE = "classes.npz"

_REG = obs.registry()
_MATCH_PHASE_SECONDS = _REG.histogram(
    "repro_library_match_seconds",
    "match_many phase timings per batch: the vectorized signature pass "
    "vs. the grouped witness-search rounds.",
    labels=("phase",),
)
_MATCH_QUERIES = _REG.counter(
    "repro_library_match_queries_total",
    "Queries resolved by match_many, by outcome (hit or miss).",
    labels=("outcome",),
)
_LOAD_SECONDS = _REG.histogram(
    "repro_library_load_seconds",
    "Wall-clock time of one ClassLibrary.load: reading both files and, "
    "when verifying, the canonical-representative check.",
)
_MATCH_ROUNDS = _REG.counter(
    "repro_library_match_rounds_total",
    "Chain-walk witness rounds run by match_many (one grouped matcher "
    "pass each).",
)


class LibraryFormatError(ValueError):
    """A library artifact is missing, corrupted, or of the wrong format."""


def overflow_successor(class_id: str) -> str:
    """The next overflow slot after ``class_id`` (digest scheme only).

    Signature digests are sound but not injective: two NPN-inequivalent
    orbits can share an MSV digest.  The second orbit cannot live under
    the base id ``n{n}-{digest}``, so it is minted into the first free
    *overflow slot* ``n{n}-{digest}-1``, ``-2``, … — and matching probes
    the slots in this same order, so the chain is always contiguous.

    The canonical id scheme makes all of this unnecessary — ids embed
    the exact representative, so two orbits can never collide; overflow
    slots survive only for legacy digest-scheme libraries.

    >>> overflow_successor("n6-0123456789abcdef")
    'n6-0123456789abcdef-1'
    >>> overflow_successor("n6-0123456789abcdef-1")
    'n6-0123456789abcdef-2'
    """
    head, _, tail = class_id.rpartition("-")
    if "-" in head and tail.isdigit():
        return f"{head}-{int(tail) + 1}"
    return f"{class_id}-1"


def class_id_matches(stored: str, derived: str) -> bool:
    """Is ``stored`` the base id ``derived`` or an overflow slot of it?

    The integrity checks in :meth:`ClassLibrary.load` and the WAL replay
    recompute ``derived`` from each entry's representative; a stored id
    passes when it is exactly that, or that plus a ``-{k}`` overflow
    suffix (``k`` a positive integer with no leading zeros).
    """
    if stored == derived:
        return True
    if not stored.startswith(derived + "-"):
        return False
    suffix = stored[len(derived) + 1 :]
    return suffix.isdigit() and suffix[0] != "0"


def _digest_base(class_id: str) -> str:
    """Base digest id of a possibly-overflow digest-scheme id."""
    head, _, tail = class_id.rpartition("-")
    if "-" in head and tail.isdigit():
        return head
    return class_id


def _digest_slot(class_id: str) -> int:
    """Overflow slot number of a digest-scheme id (0 for the base)."""
    head, _, tail = class_id.rpartition("-")
    if "-" in head and tail.isdigit():
        return int(tail)
    return 0


@dataclass(frozen=True)
class NPNClassEntry:
    """One NPN class: identity, canonical representative, metadata.

    Attributes:
        class_id: stable identity.  Canonical scheme: ``n{n}-c{hex}``, a
            pure function of the orbit (the hex is the exact canonical
            representative).  Digest scheme: ``n{n}-{MSV digest}`` plus
            overflow slots, a pure function of the class signature.
        representative: the class's canonical truth table.  ``exact``
            entries store the minimum table over the whole NPN orbit
            (always, under the canonical scheme); elected entries store
            the minimum *observed* member.
        size: number of functions classified into this class at build
            time (summed by :meth:`ClassLibrary.merged_with`).
        exact: True when the representative is the exhaustive orbit
            minimum (the n<=4 build path), False for elected ones.
        count: satisfy count of the representative (0-ary face char.).
        influences: ordered influence vector of the representative (the
            point-face characteristic, an NPN invariant of the class).
    """

    class_id: str
    representative: TruthTable
    size: int
    exact: bool
    count: int
    influences: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.representative.n

    @classmethod
    def from_representative(
        cls,
        class_id: str,
        representative: TruthTable,
        size: int,
        exact: bool,
    ) -> "NPNClassEntry":
        """Build an entry, deriving the metadata from the representative."""
        return cls(
            class_id=class_id,
            representative=representative,
            size=size,
            exact=exact,
            count=representative.count_ones(),
            influences=tuple(sorted(chars.influences(representative))),
        )


@dataclass(frozen=True)
class LibraryMatch:
    """A successful library lookup: the class plus a witness transform.

    ``transform`` maps the stored representative onto the queried
    function: ``entry.representative.apply(transform) == query``.  It is
    verified by the matcher before being returned, and :meth:`verify`
    re-checks it against any table.
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

    Args:
        parts: MSV part selection the library's signature pre-filter is
            defined over.  Matching a query recomputes its MSV with the
            *same* parts, so a library only answers queries in the
            signature space it was built in.
        id_scheme: ``"canonical"`` (default — exact orbit-minimum ids)
            or ``"digest"`` (legacy MSV-digest ids with overflow slots).

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

    def __init__(self, parts=DEFAULT_PARTS, id_scheme: str = "canonical") -> None:
        if id_scheme not in ID_SCHEMES:
            raise ValueError(
                f"unknown id scheme {id_scheme!r}; known: {', '.join(ID_SCHEMES)}"
            )
        self.parts = normalize_parts(parts)
        self.id_scheme = id_scheme
        self.classes: dict[str, NPNClassEntry] = {}
        #: Directory the transform gather tables persist under (set by
        #: :meth:`save`/:meth:`load`); ``None`` keeps them memory-only.
        self.kernel_cache_dir: Path | None = None
        #: Lazy signature-digest index: base digest id -> ordered list of
        #: candidate class ids (the matching chain).  ``None`` until the
        #: first :meth:`match_many`; kept incrementally by
        #: :meth:`add_class`, dropped on wholesale mutation.
        self._chains: dict[str, list[str]] | None = None

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
                    "exact_reps": sum(1 for e in entries if e.exact),
                    "largest_class": max(e.size for e in entries),
                }
            )
        return rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def base_id_of(self, signature: MixedSignature) -> str:
        """The signature's digest bucket id ``n{n}-{digest}``.

        Both schemes index their matching chains under this key: it is
        the digest scheme's base class id, and the canonical scheme's
        pre-filter bucket (several canonical classes may share it when
        their orbits' signatures collide).
        """
        if signature.parts != self.parts:
            raise ValueError(
                f"signature parts {signature.parts} != library parts {self.parts}"
            )
        return f"n{signature.n}-{signature.digest()}"

    def class_id_of(self, signature: MixedSignature) -> str:
        """The stable class identity for a signature (digest scheme only).

        Canonical-scheme ids derive from exact representatives, not
        signatures — a signature maps to a *chain* of candidate classes
        there, so this raises to stop silent misuse.
        """
        if self.id_scheme != "digest":
            raise ValueError(
                "canonical-scheme class ids derive from representatives, "
                "not signatures; canonicalize the query instead "
                "(repro.canonical.form.canonical_class_id)"
            )
        return self.base_id_of(signature)

    def class_id_for(self, representative: TruthTable) -> str:
        """The id the given *canonical* representative lives under."""
        if self.id_scheme == "canonical":
            return canonical_class_id(representative)
        return self.base_id_of(compute_msv(representative, self.parts))

    def add_class(
        self,
        representative: TruthTable,
        size: int,
        exact: bool,
        class_id: str | None = None,
        canonical_rep: bool = False,
        signature: MixedSignature | None = None,
    ) -> NPNClassEntry:
        """Insert (or grow) the class of ``representative``.

        Canonical scheme: the representative is canonicalized (exact
        orbit minimum) unless ``canonical_rep`` asserts it already is —
        the batched build and learn paths canonicalize up front and skip
        the recompute — and the id *is* that form, so an explicit
        ``class_id`` must equal it.  Entries are always ``exact``.

        Digest scheme: the identity derives from the representative's
        own MSV (legal because the MSV is an NPN invariant, so any
        member yields the same id); an explicit ``class_id`` may place
        the entry in an overflow slot of its derived id (the online
        learner minting a digest-colliding orbit).  Anything else
        raises.  An existing entry absorbs the new size and keeps the
        smaller representative.

        ``signature``, when given, is the MSV of any member of the class
        (it is an NPN invariant) over this library's parts; a new class
        is indexed in the matching chains under it instead of
        recomputing the representative's.
        """
        if signature is not None and (
            signature.n != representative.n or signature.parts != self.parts
        ):
            raise ValueError(
                f"signature (n={signature.n}, parts={signature.parts}) does "
                f"not fit a class of arity {representative.n} over "
                f"{self.parts}"
            )
        if self.id_scheme == "canonical":
            rep = (
                representative
                if canonical_rep
                else canonical_form(
                    representative, cache_dir=self.kernel_cache_dir
                )
            )
            derived = canonical_class_id(rep)
            if class_id is None:
                class_id = derived
            elif class_id != derived:
                raise ValueError(
                    f"class id {class_id!r} does not name the canonical "
                    f"representative (expected {derived!r})"
                )
            entry = NPNClassEntry.from_representative(
                class_id, rep, size, exact=True
            )
        else:
            derived = self.class_id_of(compute_msv(representative, self.parts))
            if class_id is None:
                class_id = derived
            elif not class_id_matches(class_id, derived):
                raise ValueError(
                    f"class id {class_id!r} is neither {derived!r} nor an "
                    f"overflow slot of it"
                )
            entry = NPNClassEntry.from_representative(
                class_id, representative, size, exact
            )
        existing = self.classes.get(class_id)
        if existing is not None:
            entry = _merge_entries(existing, entry)
        self.classes[class_id] = entry
        if existing is None and self._chains is not None:
            self._chain_insert(entry, signature)
        return entry

    def merged_with(self, other: "ClassLibrary") -> "ClassLibrary":
        """Union of two libraries over the same MSV parts and id scheme.

        Shared classes sum their sizes and keep the lexicographically
        smaller representative (for exact entries both sides store the
        identical orbit minimum, so this is a no-op).

        Digest-scheme reconciliation: two libraries that independently
        minted overflow slots for *different* orbits can hold
        NPN-inequivalent classes under the same id.  Colliding entries
        with different representatives are therefore re-verified with
        the matcher — equivalent ones merge, inequivalent ones are
        re-slotted along the digest's overflow chain instead of being
        silently fused.  Canonical-scheme ids embed the representative,
        so equal ids always mean the same orbit and no matcher runs.
        """
        if other.parts != self.parts:
            raise ValueError(
                f"cannot merge libraries with different MSV parts: "
                f"{self.parts} vs {other.parts}"
            )
        if other.id_scheme != self.id_scheme:
            raise ValueError(
                f"cannot merge libraries with different id schemes: "
                f"{self.id_scheme} vs {other.id_scheme} (resave one of "
                f"them under the other's scheme first)"
            )
        merged = ClassLibrary(self.parts, self.id_scheme)
        merged.classes = dict(self.classes)
        for class_id, entry in other.classes.items():
            existing = merged.classes.get(class_id)
            if existing is None:
                merged.classes[class_id] = entry
            elif existing.representative == entry.representative:
                merged.classes[class_id] = _merge_entries(existing, entry)
            elif self.id_scheme == "canonical":
                # Canonical ids embed the representative, so one id with
                # two different tables means a corrupted side.
                raise LibraryFormatError(
                    f"class {class_id!r} carries two different canonical "
                    f"representatives — one input library is corrupted"
                )
            elif (
                find_npn_transform(
                    existing.representative, entry.representative
                )
                is not None
            ):
                merged.classes[class_id] = _merge_entries(existing, entry)
            else:
                merged._reslot(entry)
        return merged

    def subset(self, keep) -> "ClassLibrary":
        """A new library holding only the entries ``keep(entry)`` accepts.

        The distributed fabric's shard loader: a worker keeps the
        classes whose signature-digest shard key it owns on the
        consistent-hash ring (see
        :meth:`repro.fabric.ring.HashRing.shard_filter`) and drops the
        rest, so N workers hold ~1/N of the library each (times the
        replication factor).  Entries are shared by reference — they are
        frozen dataclasses — and *not* re-verified: the source library
        already verified them at load time.  ``kernel_cache_dir`` is
        inherited so the shard keeps using the on-disk gather tables.

        A ``keep`` with a ``select(entries) -> list[bool]`` method (the
        ring's shard filter) is asked once for every entry, so it can
        answer from one batched pass instead of one call per entry.
        """
        shard = ClassLibrary(self.parts, self.id_scheme)
        items = list(self.classes.items())
        select = getattr(keep, "select", None)
        if select is not None:
            kept = select([entry for _, entry in items])
        else:
            kept = [keep(entry) for _, entry in items]
        shard.classes = {
            class_id: entry
            for (class_id, entry), wanted in zip(items, kept)
            if wanted
        }
        shard.kernel_cache_dir = self.kernel_cache_dir
        return shard

    def _reslot(self, entry: NPNClassEntry) -> None:
        """Place a digest-scheme entry in the first compatible chain slot.

        Walks the overflow chain of the entry's *derived* base id: an
        occupant proven NPN-equivalent absorbs it, the first free slot
        receives it.  Used by :meth:`merged_with` when two libraries
        minted the same overflow id for different orbits.
        """
        slot = self.class_id_of(
            compute_msv(entry.representative, self.parts)
        )
        while True:
            occupant = self.classes.get(slot)
            if occupant is None:
                self.classes[slot] = replace(entry, class_id=slot)
                return
            if (
                occupant.representative == entry.representative
                or find_npn_transform(
                    occupant.representative, entry.representative
                )
                is not None
            ):
                self.classes[slot] = _merge_entries(
                    occupant, replace(entry, class_id=slot)
                )
                return
            slot = overflow_successor(slot)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def lookup(self, tt: TruthTable) -> NPNClassEntry | None:
        """The entry of ``tt``'s class (no witness transform).

        Canonical scheme: exact — ``tt`` is canonicalized and its orbit's
        id looked up directly, so a hit is a guaranteed class membership
        and a miss is a guaranteed absence.  Digest scheme: the entry
        stored under ``tt``'s signature digest, which is necessary but
        not sufficient for membership (use :meth:`match` for certainty).
        """
        if self.id_scheme == "canonical":
            rep = canonical_form(tt, cache_dir=self.kernel_cache_dir)
            return self.classes.get(canonical_class_id(rep))
        return self.classes.get(self.class_id_of(compute_msv(tt, self.parts)))

    def match(self, tt: TruthTable) -> LibraryMatch | None:
        """Resolve ``tt`` to its class and a verified witness transform.

        Returns ``None`` when no stored class shares ``tt``'s signature,
        or when the signature bucket is hit but the matcher proves the
        representative NPN-inequivalent (a signature collision between
        two exact orbits — possible because the MSV is sound but not
        exact; the miss is reported instead of a wrong class id).
        """
        return self.match_many([tt])[0]

    def match_many(
        self,
        tts: Iterable[TruthTable],
        signatures: Sequence[MixedSignature] | None = None,
    ) -> list[LibraryMatch | None]:
        """Resolve many queries in one signature pass, preserving order.

        All query signatures are computed in a single vectorized batch
        through the packed engine (arities may be mixed); the witness
        searches then run through the gather kernels with candidate
        checks batched **across queries sharing a class** — one variable
        -key pass per arity, one gather per class group — instead of a
        scalar search per query.  Representative keys are cached on the
        library, so repeated calls never recompute them.  The online
        service's coalescer calls this with ``signatures`` it already
        computed on its shared engine; leave it ``None`` to let the
        library compute them on a lazily created batched classifier
        whose signature cache persists across calls.
        """
        tts = list(tts)
        if signatures is not None:
            signatures = list(signatures)
            if len(signatures) != len(tts):
                raise ValueError(
                    f"{len(signatures)} signatures for {len(tts)} queries"
                )
        if not self.classes or not tts:
            # A library with no classes yet (empty, or all knowledge
            # still in un-replayed WAL segments) answers every query
            # with a clean miss — no signature pass, no matcher call.
            _MATCH_QUERIES.inc(len(tts), outcome="miss")
            return [None] * len(tts)
        if signatures is None:
            with obs.timed(_MATCH_PHASE_SECONDS, phase="signatures"):
                signatures = self._signature_engine().signatures(tts)
        out: list[LibraryMatch | None] = [None] * len(tts)
        # Walk each query's candidate chain — the classes indexed under
        # its signature digest — round by round: queries whose candidate
        # proves NPN-inequivalent advance to the next chain position.
        # Chains are overflow slots in slot order (digest scheme) or the
        # canonical classes sharing the digest in id order (canonical
        # scheme); either way, single-entry chains — the overwhelmingly
        # common case — finish in one grouped matcher round.
        chains = self._chain_index()
        active: dict[int, tuple[list[str], int]] = {}
        for index, signature in enumerate(signatures):
            chain = chains.get(self.base_id_of(signature))
            if chain:
                active[index] = (chain, 0)
        with obs.timed(_MATCH_PHASE_SECONDS, phase="witness"):
            while active:
                _MATCH_ROUNDS.inc()
                groups: dict[str, list[int]] = {}
                for index, (chain, position) in active.items():
                    groups.setdefault(chain[position], []).append(index)
                group_entries = [self.classes[class_id] for class_id in groups]
                witness_rows = find_npn_transforms_grouped(
                    [
                        (entry.representative, [tts[i] for i in indices])
                        for entry, indices in zip(
                            group_entries, groups.values()
                        )
                    ],
                    cache_dir=self.kernel_cache_dir,
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
        hits = sum(1 for o in out if o is not None)
        _MATCH_QUERIES.inc(hits, outcome="hit")
        _MATCH_QUERIES.inc(len(out) - hits, outcome="miss")
        return out

    # ------------------------------------------------------------------
    # Candidate-chain index
    # ------------------------------------------------------------------

    def _chain_index(self) -> dict[str, list[str]]:
        """Base digest id -> ordered candidate class ids, built lazily.

        Digest scheme: chains are read straight off the stored ids (base
        first, then overflow slots in slot order).  Canonical scheme:
        every representative's signature is recomputed — one vectorized
        batch — to group the canonical classes under their digest
        buckets, ordered by id (deterministic: the fixed-width hex sorts
        numerically).
        """
        if self._chains is None:
            chains: dict[str, list[str]] = {}
            if self.id_scheme == "digest":
                for class_id in self.classes:
                    chains.setdefault(_digest_base(class_id), []).append(
                        class_id
                    )
                for chain in chains.values():
                    chain.sort(key=_digest_slot)
            else:
                entries = self.entries()
                signatures = self._signature_engine().signatures(
                    [e.representative for e in entries]
                )
                for entry, signature in zip(entries, signatures):
                    chains.setdefault(self.base_id_of(signature), []).append(
                        entry.class_id
                    )
            self._chains = chains
        return self._chains

    def _chain_insert(
        self,
        entry: NPNClassEntry,
        signature: MixedSignature | None = None,
    ) -> None:
        """Incrementally index one new class (the learner's mint path).

        Canonical scheme: ``signature`` (any member's MSV) saves
        recomputing the representative's.
        """
        if self._chains is None:
            return
        if self.id_scheme == "digest":
            base = _digest_base(entry.class_id)
            key = _digest_slot
        else:
            if signature is None:
                signature = compute_msv(entry.representative, self.parts)
            base = self.base_id_of(signature)
            key = None
        chain = self._chains.setdefault(base, [])
        chain.append(entry.class_id)
        chain.sort(key=key)

    def _signature_engine(self):
        """Shared batched classifier for bulk signature computation."""
        engine = getattr(self, "_bulk_engine", None)
        if engine is None:
            # Imported lazily: repro.engine depends on repro.core only,
            # but keeping the library importable without the engine
            # package keeps layering honest for light-weight consumers.
            from repro.engine import BatchedClassifier

            engine = BatchedClassifier(self.parts)
            self._bulk_engine = engine
        return engine

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write ``manifest.json`` + ``classes.npz`` under directory ``path``.

        Deterministic: the same library content produces byte-identical
        files on every run and platform (classes sorted by
        ``(n, class_id)``, canonical JSON, fixed zip timestamps).
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        entries = self.entries()
        manifest = {
            "format": FORMAT_NAME,
            # Digest-scheme libraries keep writing the legacy version-1
            # manifest (no id_scheme field) so their artifacts stay
            # byte-identical to pre-canonical builds.
            "version": (
                FORMAT_VERSION
                if self.id_scheme == "canonical"
                else DIGEST_FORMAT_VERSION
            ),
            "parts": list(self.parts),
            "num_classes": len(entries),
            "num_functions": self.num_functions,
            "classes": [
                {
                    "id": e.class_id,
                    "n": e.n,
                    "size": e.size,
                    "exact": e.exact,
                    "representative": e.representative.to_hex(),
                    "count": e.count,
                    "influences": list(e.influences),
                }
                for e in entries
            ],
        }
        if self.id_scheme == "canonical":
            manifest["id_scheme"] = self.id_scheme
        (directory / MANIFEST_FILE).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        words = max(
            (bitops.words_per_table(e.n) for e in entries), default=1
        )
        reps = np.zeros((len(entries), words), dtype=np.uint64)
        for row, e in enumerate(entries):
            bits = e.representative.bits
            for w in range(bitops.words_per_table(e.n)):
                reps[row, w] = (bits >> (64 * w)) & 0xFFFFFFFFFFFFFFFF
        _write_npz_deterministic(
            directory / TABLES_FILE,
            {
                "ns": np.array([e.n for e in entries], dtype=np.int64),
                "sizes": np.array([e.size for e in entries], dtype=np.int64),
                "exact": np.array([e.exact for e in entries], dtype=np.uint8),
                "reps": reps,
            },
        )
        # Transform gather tables persist lazily next to the artifact:
        # nothing is written until a match actually builds one.
        self.kernel_cache_dir = directory / "kernels"
        return directory

    @classmethod
    def load(
        cls,
        path: str | Path,
        verify: bool = True,
        mmap_mode: str | None = None,
    ) -> "ClassLibrary":
        """Read a saved library, validating format, version and integrity.

        Both manifest versions load: version 2 carries its ``id_scheme``
        explicitly, version 1 (the pre-canonical format) is a digest
        -scheme library — the migration path that keeps old artifacts
        readable.  With ``verify`` (the default) every class id is
        re-derived from its representative and cross-checked against
        both files, so a corrupted or hand-edited artifact raises
        :class:`LibraryFormatError` instead of mis-matching queries:
        digest ids recompute the representative's signature (overflow
        ids ``n{n}-{digest}-{k}`` pass when their base id matches),
        canonical ids recompute the representative's exact canonical
        form — batched per arity — and require the stored table to *be*
        that form.

        ``mmap_mode="r"`` (or ``"c"``) memory-maps the ``classes.npz``
        table arrays instead of reading them into anonymous memory —
        the members are STORED (uncompressed) in a deterministic layout,
        so every array is a page-aligned :class:`numpy.memmap` straight
        into the artifact.  N serving replicas on one box then share one
        page-cache copy of the library image instead of N heap copies,
        and pages load on demand.  Falls back to an eager read for
        archives whose members turn out compressed or foreign.

        Every call, failed ones included, is observed into
        ``repro_library_load_seconds``.
        """
        with obs.timed(_LOAD_SECONDS):
            return cls._read(path, verify, mmap_mode)

    @classmethod
    def _read(
        cls, path: str | Path, verify: bool, mmap_mode: str | None
    ) -> "ClassLibrary":
        """The body of :meth:`load`, unmetered."""
        if mmap_mode not in (None, "r", "c"):
            raise ValueError(
                f"mmap_mode must be None, 'r' or 'c', got {mmap_mode!r}"
            )
        directory = Path(path)
        manifest = _read_manifest(directory / MANIFEST_FILE)
        arrays = _read_tables(directory / TABLES_FILE, mmap_mode)
        records = manifest["classes"]
        if not (
            len(records)
            == manifest["num_classes"]
            == len(arrays["ns"])
            == len(arrays["sizes"])
            == len(arrays["reps"])
            == len(arrays["exact"])
        ):
            raise LibraryFormatError(
                f"{directory}: manifest and {TABLES_FILE} disagree on the "
                f"number of classes"
            )
        if int(manifest["version"]) == DIGEST_FORMAT_VERSION:
            id_scheme = "digest"
        else:
            id_scheme = manifest.get("id_scheme")
            if id_scheme not in ID_SCHEMES:
                raise LibraryFormatError(
                    f"{directory}: version-{FORMAT_VERSION} manifest carries "
                    f"unknown id scheme {id_scheme!r}"
                )
        try:
            library = cls(manifest["parts"], id_scheme)
        except (ValueError, TypeError) as exc:
            raise LibraryFormatError(
                f"{directory}: manifest parts are invalid: {exc}"
            ) from exc
        for row, record in enumerate(records):
            n = int(arrays["ns"][row])
            bits = 0
            for w in range(bitops.words_per_table(n)):
                bits |= int(arrays["reps"][row][w]) << (64 * w)
            rep = TruthTable(n, bits)
            entry = NPNClassEntry.from_representative(
                record["id"], rep, int(arrays["sizes"][row]),
                bool(arrays["exact"][row]),
            )
            _check_record(directory, record, entry)
            if verify:
                if id_scheme == "canonical":
                    if parse_canonical_class_id(entry.class_id) != rep:
                        raise LibraryFormatError(
                            f"{directory}: class {entry.class_id!r} does not "
                            f"name its stored representative "
                            f"{rep.to_hex()!r} — the artifact is corrupted"
                        )
                else:
                    derived = library.class_id_of(
                        compute_msv(rep, library.parts)
                    )
                    if not class_id_matches(entry.class_id, derived):
                        raise LibraryFormatError(
                            f"{directory}: class {entry.class_id!r} fails its "
                            f"signature check (recomputed {derived!r}) — the "
                            f"artifact is corrupted or was produced by an "
                            f"incompatible signature implementation"
                        )
            if entry.class_id in library.classes:
                raise LibraryFormatError(
                    f"{directory}: duplicate class id {entry.class_id!r}"
                )
            library.classes[entry.class_id] = entry
        if verify and id_scheme == "canonical":
            _verify_canonical_reps(directory, library)
        library.kernel_cache_dir = directory / "kernels"
        return library


def _merge_entries(a: NPNClassEntry, b: NPNClassEntry) -> NPNClassEntry:
    """Combine two entries of the same class id: sum sizes, min rep."""
    base = a if (a.representative, not a.exact) <= (b.representative, not b.exact) else b
    return replace(base, size=a.size + b.size)


def _verify_canonical_reps(directory: Path, library: ClassLibrary) -> None:
    """Check every stored representative is its own canonical form.

    The per-record check already ties each id to its table; this ties
    the table to the *orbit* — a tampered representative cannot smuggle
    a wrong table in under a self-consistent id.  Arities the kernels
    serve verify as one batched ``canonical_min`` per arity; larger ones
    go through the scalar canonicalizer.
    """
    by_arity: dict[int, list[NPNClassEntry]] = {}
    for entry in library.classes.values():
        by_arity.setdefault(entry.n, []).append(entry)
    for n, entries in sorted(by_arity.items()):
        if n <= MAX_KERNEL_VARS:
            minima = canonical_min(
                [e.representative.bits for e in entries], n
            )
            bad = [
                e
                for e, low in zip(entries, minima)
                if e.representative.bits != int(low)
            ]
        else:
            bad = [
                e
                for e in entries
                if canonical_form(e.representative) != e.representative
            ]
        if bad:
            raise LibraryFormatError(
                f"{directory}: class {bad[0].class_id!r} stores a "
                f"non-canonical representative (not its orbit minimum) — "
                f"the artifact is corrupted or was produced by an "
                f"incompatible canonicalizer"
            )


def _read_manifest(path: Path) -> dict:
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
    version = manifest.get("version")
    if version not in (DIGEST_FORMAT_VERSION, FORMAT_VERSION):
        raise LibraryFormatError(
            f"{path}: unsupported library format version {version!r} "
            f"(this build reads versions {DIGEST_FORMAT_VERSION} "
            f"and {FORMAT_VERSION})"
        )
    for field in ("parts", "num_classes", "classes"):
        if field not in manifest:
            raise LibraryFormatError(f"{path}: manifest is missing {field!r}")
    return manifest


def _read_tables(
    path: Path, mmap_mode: str | None = None
) -> dict[str, np.ndarray]:
    if not path.exists():
        raise LibraryFormatError(f"{path}: library table file not found")
    if mmap_mode is not None:
        arrays = _mmap_tables(path, mmap_mode)
        if arrays is not None:
            return arrays
        # Structural surprise (compressed member, foreign npy version):
        # the eager path below still reads it — or raises the proper
        # LibraryFormatError if the archive is actually corrupt.
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in ("ns", "sizes", "exact", "reps")}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise LibraryFormatError(f"{path}: cannot read table arrays: {exc}") from exc
    return arrays


def _mmap_tables(path: Path, mmap_mode: str) -> dict[str, np.ndarray] | None:
    """Memory-map every table array of a STORED ``.npz``, or ``None``.

    ``np.load(..., mmap_mode=...)`` refuses zip archives, but this
    archive is written by :func:`_write_npz_deterministic` with STORED
    (uncompressed) members, so each member's npy payload sits at a fixed
    file offset: local zip header (30 bytes + name + extra), then the
    npy magic/header, then raw array bytes ``np.memmap`` can map
    directly.  Returns ``None`` — never raises — on any layout this
    parser does not recognise, letting the caller fall back to
    ``np.load``.
    """
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(path) as archive, open(path, "rb") as handle:
            for name in ("ns", "sizes", "exact", "reps"):
                info = archive.getinfo(f"{name}.npy")
                if info.compress_type != zipfile.ZIP_STORED:
                    return None
                handle.seek(info.header_offset)
                local = handle.read(30)
                if len(local) != 30 or local[:4] != b"PK\x03\x04":
                    return None
                name_len = int.from_bytes(local[26:28], "little")
                extra_len = int.from_bytes(local[28:30], "little")
                handle.seek(info.header_offset + 30 + name_len + extra_len)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    header = np.lib.format.read_array_header_1_0(handle)
                elif version == (2, 0):
                    header = np.lib.format.read_array_header_2_0(handle)
                else:
                    return None
                shape, fortran_order, dtype = header
                if fortran_order or dtype.hasobject:
                    return None
                arrays[name] = np.memmap(
                    path,
                    dtype=dtype,
                    mode=mmap_mode,
                    offset=handle.tell(),
                    shape=shape,
                )
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return arrays


def _check_record(directory: Path, record: dict, entry: NPNClassEntry) -> None:
    """Cross-check one manifest record against the npz-derived entry."""
    stored = (
        record.get("id"),
        record.get("n"),
        record.get("size"),
        bool(record.get("exact")),
        record.get("representative"),
    )
    derived = (
        entry.class_id,
        entry.n,
        entry.size,
        entry.exact,
        entry.representative.to_hex(),
    )
    if stored != derived:
        raise LibraryFormatError(
            f"{directory}: manifest record {record.get('id')!r} disagrees "
            f"with {TABLES_FILE} ({stored} != {derived})"
        )


def _write_npz_deterministic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez`` with reproducible bytes (fixed entry order and dates).

    ``np.savez`` stamps zip entries with the current time, which would
    make otherwise-identical libraries differ byte-for-byte between
    runs; the regression suite pins byte stability, so the archive is
    assembled by hand with the epoch timestamp.  ``np.load`` reads it
    like any other ``.npz``.
    """
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            with archive.open(info, "w") as handle:
                np.lib.format.write_array(
                    handle, np.ascontiguousarray(arrays[name])
                )
