"""Deterministic merging of sharded classification output.

The sharded engine's contract is bit-for-bit determinism: whatever the
worker count, shard boundaries, or the order in which the pool happens to
finish shards, the final :class:`~repro.core.classifier.ClassificationResult`
must be byte-identical to a single-process
:class:`~repro.engine.classifier.BatchedClassifier` run (checked with
``buckets_digest``).  That determinism is concentrated here, in two
order-restoring steps:

1. **Key placement** — workers return ``(index, key)`` pairs where
   ``index`` is the row's position in the original (deduplicated) miss
   list.  :func:`merge_shard_keys` places keys by index, so shard results
   may arrive in *any* order without affecting the output.  Every index must be covered exactly once; holes or duplicates
   mean a sharding bug and raise instead of silently corrupting buckets.

2. **Bucketing** — :func:`extend_buckets` inserts ``(signature, member)``
   pairs strictly in input order, reproducing the first-seen group order
   and member order of the single-process classifiers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.classifier import ClassificationResult
from repro.core.msv import MixedSignature
from repro.core.truth_table import TruthTable

__all__ = [
    "merge_shard_keys",
    "bucket_in_order",
    "extend_buckets",
]

#: Distinguishes "no key yet" from any legitimate key value.
_MISSING = object()


def merge_shard_keys(
    shard_results: Iterable[Sequence[tuple[int, tuple]]], total: int
) -> list[tuple]:
    """Reassemble per-shard ``(index, key)`` pairs into index order.

    ``shard_results`` may yield shards in any completion order; the
    result is ``keys[index]`` for every ``index`` in ``range(total)``.

    Raises:
        ValueError: if any index is out of range, reported twice, or
            never reported — the sharding layer must cover the input
            exactly.
    """
    keys: list = [_MISSING] * total
    filled = 0
    for pairs in shard_results:
        for index, key in pairs:
            if not 0 <= index < total:
                raise ValueError(
                    f"shard returned index {index}, outside 0..{total - 1}"
                )
            if keys[index] is not _MISSING:
                raise ValueError(f"shards returned index {index} twice")
            keys[index] = key
            filled += 1
    if filled != total:
        raise ValueError(
            f"shards covered {filled} of {total} rows; merge would be partial"
        )
    return keys


def extend_buckets(
    result: ClassificationResult,
    signatures: Sequence[MixedSignature],
    members: Sequence[TruthTable],
) -> ClassificationResult:
    """Append classified functions to ``result`` in input order.

    The same ``setdefault``-in-input-order loop the single-process
    classifiers run — group insertion order is first-seen, member order
    is arrival order — so streaming chunk-at-a-time accumulation yields
    the identical grouping a one-shot run would.
    """
    groups = result.groups
    for signature, tt in zip(signatures, members):
        groups.setdefault(signature, []).append(tt)
    return result


def bucket_in_order(
    parts: tuple[str, ...],
    signatures: Sequence[MixedSignature],
    members: Sequence[TruthTable],
) -> ClassificationResult:
    """A fresh :class:`ClassificationResult` bucketed in input order."""
    return extend_buckets(ClassificationResult(parts), signatures, members)
