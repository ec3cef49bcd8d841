"""Exact NPN classification at scale: MSV bucketing + grouped matching.

The paper's "#Exact Classes" column (computed there with Kitty for n <= 6
and ABC's exact mode beyond) is reproduced here without exhaustive
enumeration: functions are first bucketed by their full Mixed Signature
Vector — a sound invariant, so NPN-equivalent functions always share a
bucket — and the (rare) multi-member buckets are resolved by the complete
matcher of :mod:`repro.baselines.matcher`.

This is the one exact engine of the package.  Signatures come from one
vectorized :class:`~repro.engine.classifier.BatchedClassifier` pass, and
the buckets are resolved in rounds of
:func:`~repro.baselines.matcher.find_npn_transforms_grouped`: in round
``k`` every still-unassigned member of every bucket is checked against
that bucket's ``k``-th representative, its first unassigned member in
input order.  Those are exactly the (member, representative) pairs a
one-table-at-a-time loop would check, so keys, group order and
:class:`ExactStats` do not depend on the batching.

Because the MSV is a near-perfect discriminator (Table II), buckets almost
always contain a single exact class and the matcher is invoked only to
*confirm* equivalence, keeping the engine close to linear time in
practice while remaining exact by construction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.baselines.base import GroupingResult, register_classifier
from repro.baselines.matcher import find_npn_transforms_grouped
from repro.core.msv import DEFAULT_PARTS, normalize_parts
from repro.core.truth_table import TruthTable
from repro.engine.classifier import BatchedClassifier

__all__ = ["ExactClassifier", "ExactStats"]


@dataclass
class ExactStats:
    """Work counters for one classification run (ablation instrumentation)."""

    functions: int = 0
    buckets: int = 0
    match_attempts: int = 0
    match_successes: int = 0
    collision_buckets: set = field(default_factory=set)

    @property
    def bucket_collisions(self) -> int:
        """Buckets holding more than one exact class (MSV inexactness)."""
        return len(self.collision_buckets)


@register_classifier
class ExactClassifier:
    """Exact NPN classification via signature buckets and complete matching.

    Args:
        bucket_parts: MSV parts used for the (sound) pre-bucketing.
            Weaker selections stay exact — they only shift work onto the
            matcher.  The default is the paper's full MSV.

    Example:
        >>> from repro import TruthTable
        >>> from repro.baselines.exact import ExactClassifier
        >>> maj = TruthTable.majority(3)
        >>> ExactClassifier().classify([maj, ~maj, maj.flip_input(1)]).num_classes
        1
    """

    name = "exact"

    def __init__(self, bucket_parts: Iterable[str] = DEFAULT_PARTS) -> None:
        self.bucket_parts = normalize_parts(bucket_parts)
        self.stats = ExactStats()

    def classify(self, tables: Iterable[TruthTable]) -> GroupingResult:
        """Group into *exact* NPN classes.

        Class keys are ``(msv, ordinal)`` pairs: the bucket signature plus
        the index of the exact class inside the bucket.  Groups come in
        first-seen order with members in input order.
        """
        members = list(tables)
        stats = self.stats = ExactStats(functions=len(members))
        signatures = BatchedClassifier(self.bucket_parts).signatures(members)
        buckets: dict = {}
        for index, signature in enumerate(signatures):
            buckets.setdefault(signature, []).append(index)
        stats.buckets = len(buckets)

        ordinals = [0] * len(members)
        # (signature, unassigned member indices); the first is the
        # representative of the current round.
        pending = [item for item in buckets.items() if len(item[1]) > 1]
        ordinal = 0
        while pending:
            rows = find_npn_transforms_grouped(
                [
                    (members[rest[0]], [members[i] for i in rest[1:]])
                    for _, rest in pending
                ]
            )
            ordinal += 1
            survivors = []
            for (signature, rest), row in zip(pending, rows):
                unmatched = [i for i, w in zip(rest[1:], row) if w is None]
                stats.match_attempts += len(row)
                stats.match_successes += len(row) - len(unmatched)
                if unmatched:
                    stats.collision_buckets.add(signature)
                    for i in unmatched:
                        ordinals[i] = ordinal
                    if len(unmatched) > 1:
                        survivors.append((signature, unmatched))
            pending = survivors

        result = GroupingResult(self.name)
        for tt, signature, ordinal in zip(members, signatures, ordinals):
            result.add((signature, ordinal), tt)
        return result

    def count_classes(self, tables: Iterable[TruthTable]) -> int:
        """Number of exact classes (same work as :meth:`classify`)."""
        return self.classify(tables).num_classes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExactClassifier(bucket_parts={self.bucket_parts})"
