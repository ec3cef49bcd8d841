"""The batched NPN classifier: Algorithm 1 over packed batches.

:class:`BatchedClassifier` is a drop-in replacement for
:class:`repro.core.classifier.FacePointClassifier` that moves the
signature computation from one big-int at a time to whole
:class:`~repro.engine.packed.PackedTables` batches: each distinct table
of a call is one flat row of :func:`repro.engine.signatures.signature_keys`.

Contract: for any input sequence the classifier produces *identical*
buckets to ``FacePointClassifier`` — same :class:`MixedSignature` keys,
same first-seen group order, same member order.  The keys are checked
byte for byte against :func:`repro.core.msv.compute_msv`, the scalar
oracle, for every part selection; the never-split invariant
(NPN-equivalent functions always share a bucket) carries over from it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.classifier import ClassificationResult
from repro.core.msv import DEFAULT_PARTS, MixedSignature, normalize_parts
from repro.core.truth_table import TruthTable
from repro.engine.packed import PackedTables
from repro.engine.signatures import signature_keys

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

    def signature(self, tt: TruthTable) -> MixedSignature:
        """The MSV of one function."""
        return self.signatures([tt])[0]

    def signatures(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> list[MixedSignature]:
        """MSVs of many functions, in input order.

        Accepts a sequence of :class:`TruthTable` (arities may be mixed —
        rows are grouped per ``n`` internally) or an already-packed
        :class:`PackedTables` batch.  Each distinct table goes through
        the vectorized kernels once per call.
        """
        if isinstance(tables, PackedTables):
            return self._signatures_one_arity(
                tables.n, tables.to_ints(), packed=tables
            )
        tables = list(tables)
        out: list[MixedSignature | None] = [None] * len(tables)
        by_arity: dict[int, list[int]] = {}
        for index, tt in enumerate(tables):
            by_arity.setdefault(tt.n, []).append(index)
        for n, indices in by_arity.items():
            sigs = self._signatures_one_arity(n, [tables[i].bits for i in indices])
            for index, sig in zip(indices, sigs):
                out[index] = sig
        return out  # type: ignore[return-value]

    def _signatures_one_arity(
        self, n: int, bits: list[int], packed: PackedTables | None = None
    ) -> list[MixedSignature]:
        if not bits:
            return []
        parts = self.parts
        distinct = dict.fromkeys(bits)  # first-seen order
        if packed is None or len(distinct) < len(bits):
            packed = PackedTables.from_ints(n, distinct)
        keys = signature_keys(packed, parts)
        resolved = {
            value: MixedSignature(n, parts, key)
            for value, key in zip(distinct, keys)
        }
        return [resolved[value] for value in bits]

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> ClassificationResult:
        """Group functions into NPN classes by signature hashing."""
        if isinstance(tables, PackedTables):
            members = tables.to_tables()
            signatures = self._signatures_one_arity(
                tables.n, [tt.bits for tt in members], packed=tables
            )
        else:
            members = list(tables)
            signatures = self.signatures(members)
        result = ClassificationResult(self.parts)
        groups = result.groups
        for signature, tt in zip(signatures, members):
            groups.setdefault(signature, []).append(tt)
        return result

    def count_classes(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> int:
        """Number of classes without retaining group membership."""
        return len(set(self.signatures(tables)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchedClassifier(parts={self.parts})"
