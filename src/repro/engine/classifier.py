"""The batched NPN classifier: Algorithm 1 over packed batches.

:class:`BatchedClassifier` is a drop-in replacement for
:class:`repro.core.classifier.FacePointClassifier` that moves the
signature computation from one big-int at a time to whole
:class:`~repro.engine.packed.PackedTables` batches: each distinct table
of a call is one flat row of :func:`repro.engine.signatures.signature_keys`,
and its key is that row's bytes.

Contract: for any input sequence the classifier produces *identical*
buckets to ``FacePointClassifier`` — same :class:`MixedSignature` keys,
same first-seen group order, same member order.  Buckets are grouped by
``(n, row bytes)``; each is nested into its :class:`MixedSignature` once.
The rows are checked against :func:`repro.core.msv.compute_msv`, the
scalar oracle, for every part selection; the never-split invariant
(NPN-equivalent functions always share a bucket) carries over from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS, MixedSignature, normalize_parts
from repro.core.truth_table import TruthTable
from repro.engine.packed import PackedTables
from repro.engine.signatures import nested_keys, row_bytes, signature_keys

__all__ = ["BatchedClassifier"]


class BatchedClassifier:
    """NPN classifier with a vectorized hot path.

    Args:
        parts: which signature vectors make up the MSV (same selection as
            ``FacePointClassifier``).

    Example:
        >>> from repro import TruthTable
        >>> from repro.engine import BatchedClassifier
        >>> clf = BatchedClassifier()
        >>> maj = TruthTable.majority(3)
        >>> clf.classify([maj, ~maj, maj.flip_input(1)]).num_classes
        1
    """

    def __init__(self, parts: Iterable[str] = DEFAULT_PARTS) -> None:
        self.parts = normalize_parts(parts)

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------

    def signatures(self, tables: Sequence[TruthTable] | PackedTables) -> list[bytes]:
        """The MSV key of each function, in input order: its row's bytes.

        Accepts a sequence of :class:`TruthTable` (arities may be mixed —
        rows are grouped per ``n`` internally, and keys of two arities
        may coincide, so mixed callers pair each key with its ``n``) or
        an already-packed :class:`PackedTables` batch.  Each distinct
        table goes through the vectorized kernels once per call.
        """
        if isinstance(tables, PackedTables):
            return self._keys_one_arity(tables.n, tables.to_ints(), packed=tables)
        tables = list(tables)
        out: list[bytes | None] = [None] * len(tables)
        by_arity: dict[int, list[int]] = {}
        for index, tt in enumerate(tables):
            by_arity.setdefault(tt.n, []).append(index)
        for n, indices in by_arity.items():
            keys = self._keys_one_arity(n, [tables[i].bits for i in indices])
            for index, key in zip(indices, keys):
                out[index] = key
        return out  # type: ignore[return-value]

    def _keys_one_arity(
        self, n: int, bits: list[int], packed: PackedTables | None = None
    ) -> list[bytes]:
        if not bits:
            return []
        distinct = dict.fromkeys(bits)  # first-seen order
        if packed is None or len(distinct) < len(bits):
            packed = PackedTables.from_ints(n, distinct)
        keys = row_bytes(signature_keys(packed, self.parts))
        resolved = dict(zip(distinct, keys))
        return [resolved[value] for value in bits]

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> ClassificationResult:
        """Group functions into NPN classes by signature hashing.

        Members are bucketed by ``(n, key)``; each distinct key is then
        nested into its :class:`MixedSignature`, in first-seen order.
        """
        members, buckets_of = self._buckets_of(tables)
        buckets: dict[tuple[int, bytes], list[TruthTable]] = {}
        for tt, bucket in zip(members, buckets_of):
            buckets.setdefault(bucket, []).append(tt)
        by_arity: dict[int, list[bytes]] = {}
        for n, key in buckets:
            by_arity.setdefault(n, []).append(key)
        nested = {
            (n, key): MixedSignature(n, self.parts, value)
            for n, keys in by_arity.items()
            for key, value in zip(keys, nested_keys(n, self.parts, keys))
        }
        result = ClassificationResult(self.parts)
        result.groups = {nested[bucket]: tts for bucket, tts in buckets.items()}
        return result

    def count_classes(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> int:
        """Number of classes without retaining group membership."""
        return len(set(self._buckets_of(tables)[1]))

    def _buckets_of(self, tables) -> tuple[list[TruthTable], list[tuple[int, bytes]]]:
        """The members and each one's ``(n, key)`` bucket, in input order."""
        if isinstance(tables, PackedTables):
            members, keys = tables.to_tables(), self.signatures(tables)
        else:
            members = list(tables)
            keys = self.signatures(members)
        return members, [(tt.n, key) for tt, key in zip(members, keys)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedClassifier(parts={self.parts})"
