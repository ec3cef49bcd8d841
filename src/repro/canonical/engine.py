"""The hybrid canonical engine: signature pre-filter, exact decider.

:class:`CanonicalClassifier` classifies in two tiers:

1. **Pre-filter** — the vectorized MixedSignature pass of
   :class:`repro.engine.classifier.BatchedClassifier`.  Signatures are
   sound (NPN-equivalent functions never get different signatures), so
   functions in different buckets are decided for free.
2. **Decider** — inside a bucket, each structurally new table is matched
   against the bucket's already-discovered classes with the verified
   NPN matcher; only genuinely *new* classes reach the exact
   canonicalizer, one batched :func:`repro.canonical.form.canonical_forms`
   call per arity.

The result is keyed by :class:`CanonicalClass` — the exact orbit-minimum
representative — so equal keys mean NPN-equivalent *for certain*, rare
signature collisions split correctly, and every class carries the
portable ``n{n}-c{hex}`` id.  The pre-filter typically prunes well over
90% of exact-canonicalization calls on mixed hit/miss traffic
(``benchmarks/bench_canonical.py`` pins this).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.baselines.matcher import find_npn_transform
from repro.canonical.form import canonical_class_id, canonical_forms
from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS, MixedSignature
from repro.core.truth_table import TruthTable
from repro.engine.cache import SignatureCache
from repro.engine.classifier import BatchedClassifier
from repro.engine.packed import PackedTables

__all__ = ["CanonicalClass", "CanonicalClassifier", "CanonicalStats"]

#: Cache-key tag for canonical forms (shares the LRU key shape
#: ``(bits, n, parts)`` with signatures without ever colliding).
_FORM_PARTS = ("canonical-form",)

_REG = obs.registry()
_FUNCTIONS = _REG.counter(
    "repro_canonical_functions_total",
    "Functions classified by the canonical engine.",
)
_DECISIONS = _REG.counter(
    "repro_canonical_decisions_total",
    "How each structurally new function was decided: matcher (pruned) "
    "vs. exact canonicalization.",
    labels=("via",),
)
_MATCHER_CALLS = _REG.counter(
    "repro_canonical_matcher_calls_total",
    "Verified-matcher probes run inside signature buckets.",
)
_CANONICAL_SECONDS = _REG.histogram(
    "repro_canonical_form_seconds",
    "Wall-clock time of one batched exact-canonicalization call "
    "(per arity batch).",
)


@dataclass(frozen=True)
class CanonicalClass:
    """Class key of the canonical engine: the exact orbit minimum.

    Unlike a :class:`~repro.core.msv.MixedSignature`, equality is a
    certificate: two functions share a :class:`CanonicalClass` iff they
    are NPN equivalent.
    """

    n: int
    bits: int

    @property
    def key(self):
        """Hashable payload (mirrors ``MixedSignature.key`` for digests)."""
        return (self.n, self.bits)

    @property
    def table(self) -> TruthTable:
        """The canonical representative as a truth table."""
        return TruthTable(self.n, self.bits)

    @property
    def class_id(self) -> str:
        """The portable ``n{n}-c{hex}`` library id of this orbit."""
        return canonical_class_id(self.table)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.class_id


@dataclass
class CanonicalStats:
    """Running counters of one :class:`CanonicalClassifier`.

    ``pruned_fraction`` is the head-to-head metric: the share of
    functions the signature pre-filter + matcher decided *without* an
    exact canonicalization.
    """

    functions: int = 0
    classes: int = 0
    canonical_calls: int = 0
    matcher_calls: int = 0

    @property
    def pruned_fraction(self) -> float:
        if not self.functions:
            return 0.0
        return 1.0 - self.canonical_calls / self.functions

    def as_dict(self) -> dict:
        return {
            "functions": self.functions,
            "classes": self.classes,
            "canonical_calls": self.canonical_calls,
            "matcher_calls": self.matcher_calls,
            "pruned_fraction": self.pruned_fraction,
        }


@dataclass
class _Bucket:
    """Per-signature state: discovered classes and a bits fast path."""

    classes: list[tuple[TruthTable, int]] = field(default_factory=list)
    by_bits: dict[int, int] = field(default_factory=dict)


class CanonicalClassifier:
    """Exact NPN classifier with a signature pre-filter.

    Drop-in alongside the other engines (`make_classifier("canonical")`):
    same ``classify`` / ``signatures`` surface, but result groups are
    keyed by :class:`CanonicalClass` instead of raw signatures.

    Example:
        >>> from repro import TruthTable
        >>> from repro.canonical import CanonicalClassifier
        >>> clf = CanonicalClassifier()
        >>> maj = TruthTable.majority(3)
        >>> result = clf.classify([maj, ~maj, maj.flip_input(1)])
        >>> [key.class_id for key in result.groups]
        ['n3-c17']
    """

    def __init__(
        self,
        parts: Iterable[str] = DEFAULT_PARTS,
        cache_size: int = 1 << 16,
        chunk_size: int | None = None,
    ) -> None:
        self._batched = BatchedClassifier(parts, cache_size, chunk_size)
        self.parts = self._batched.parts
        self._forms = SignatureCache(maxsize=cache_size)
        self.stats = CanonicalStats()

    # ------------------------------------------------------------------
    # Signatures (pre-filter tier, delegated)
    # ------------------------------------------------------------------

    def signature(self, tt: TruthTable) -> MixedSignature:
        """The MSV of one function (cached, vectorized)."""
        return self._batched.signature(tt)

    def signatures(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> list[MixedSignature]:
        """MSVs of many functions, in input order."""
        return self._batched.signatures(tables)

    # ------------------------------------------------------------------
    # Canonical forms
    # ------------------------------------------------------------------

    def canonical(self, tt: TruthTable) -> TruthTable:
        """Exact canonical representative of one function (cached)."""
        return self._canonical_batch([tt])[0]

    def _canonical_batch(self, tables: Sequence[TruthTable]) -> list[TruthTable]:
        """Canonical forms of arbitrary tables, LRU-cached per orbit member."""
        out: list[TruthTable | None] = [None] * len(tables)
        misses: dict[int, list[tuple[int, TruthTable]]] = {}
        for index, tt in enumerate(tables):
            cached = self._forms.get((tt.bits, tt.n, _FORM_PARTS))
            if cached is not None:
                out[index] = cached
            else:
                misses.setdefault(tt.n, []).append((index, tt))
        for n, pending in misses.items():
            with obs.timed(_CANONICAL_SECONDS):
                reps = canonical_forms([tt for _, tt in pending], n)
            self.stats.canonical_calls += len(pending)
            _DECISIONS.inc(len(pending), via="canonical")
            for (index, tt), rep in zip(pending, reps):
                self._forms.put((tt.bits, tt.n, _FORM_PARTS), rep)
                out[index] = rep
        return out  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> ClassificationResult:
        """Group functions into *exact* NPN classes.

        Result groups are keyed by :class:`CanonicalClass` in first-seen
        class order with members in input order — the same shape the
        signature engines produce, so ``buckets_digest`` and downstream
        library construction work unchanged.
        """
        if isinstance(tables, PackedTables):
            members = tables.to_tables()
            signatures = self._batched.signatures(tables)
        else:
            members = list(tables)
            signatures = self._batched.signatures(members)
        self.stats.functions += len(members)
        _FUNCTIONS.inc(len(members))

        buckets: dict[MixedSignature, _Bucket] = {}
        firsts: list[TruthTable] = []  # first-seen member per new class
        assignment: list[int] = []
        for tt, signature in zip(members, signatures):
            bucket = buckets.setdefault(signature, _Bucket())
            index = bucket.by_bits.get(tt.bits)
            if index is None:
                for first, existing in bucket.classes:
                    self.stats.matcher_calls += 1
                    _MATCHER_CALLS.inc()
                    if find_npn_transform(first, tt) is not None:
                        index = existing
                        _DECISIONS.inc(via="matcher")
                        break
                if index is None:
                    index = len(firsts)
                    firsts.append(tt)
                    bucket.classes.append((tt, index))
                bucket.by_bits[tt.bits] = index
            assignment.append(index)

        reps = self._canonical_batch(firsts)
        keys = [CanonicalClass(rep.n, rep.bits) for rep in reps]
        self.stats.classes += len(keys)
        result = ClassificationResult(self.parts)
        groups = result.groups
        for index, tt in zip(assignment, members):
            groups.setdefault(keys[index], []).append(tt)  # type: ignore[arg-type]
        return result

    def count_classes(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> int:
        """Number of exact classes without retaining membership."""
        return self.classify(tables).num_classes

    @property
    def cache_stats(self):
        """Hit/miss counters of the underlying signature cache."""
        return self._batched.cache_stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CanonicalClassifier(parts={self.parts}, "
            f"classes={self.stats.classes}, "
            f"canonical_calls={self.stats.canonical_calls})"
        )
