"""Batched classification engine: packed batches, vectorized signatures.

The per-function classifier in :mod:`repro.core.classifier` computes each
Mixed Signature Vector on one big-int table at a time.  This package is
the bulk counterpart the Section V-C linearity claim deserves:

* :class:`~repro.engine.packed.PackedTables` — many truth tables as one
  ``[batch, 2**n / 64]`` ``uint64`` matrix;
* :mod:`repro.engine.signatures` — every MSV part computed vectorized
  across the whole batch;
* :class:`~repro.engine.cache.SignatureCache` — LRU memoisation keyed on
  ``(table, n, parts)`` for repeated workloads;
* :class:`~repro.engine.classifier.BatchedClassifier` — Algorithm 1 with
  buckets byte-identical to ``FacePointClassifier``'s;
* :class:`~repro.engine.sharded.ShardedClassifier` — the batched engine
  fanned out over a ``multiprocessing`` pool, with the deterministic
  shard merge of :mod:`repro.engine.merge`; buckets stay byte-identical
  for every worker count.
"""

from repro.core.classifier import FacePointClassifier
from repro.core.msv import DEFAULT_PARTS
from repro.engine.cache import CacheStats, SignatureCache
from repro.engine.classifier import BatchedClassifier
from repro.engine.merge import bucket_in_order, extend_buckets, merge_shard_keys
from repro.engine.packed import PackedTables
from repro.engine.sharded import DEFAULT_STREAM_CHUNK, ShardedClassifier
from repro.engine.signatures import batched_pieces

#: Engine names accepted by :func:`make_classifier` (and the CLI flags).
ENGINE_NAMES = ("perfn", "batched", "sharded", "canonical")


def make_classifier(
    engine: str = "batched",
    parts=DEFAULT_PARTS,
    workers: int | None = None,
):
    """One constructor for every engine, keyed by name.

    The three signature engines produce byte-identical buckets on the
    same input — the choice is purely a throughput knob.  ``canonical``
    is the exact engine: signatures as the pre-filter, the
    influence-aided canonical form as the decider, result groups keyed
    by true orbit minima (:mod:`repro.canonical`).  ``workers`` is only
    meaningful for the sharded engine — passing it with any other engine
    raises, so a mis-wired CLI flag cannot be silently ignored.
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; known: {', '.join(ENGINE_NAMES)}"
        )
    if workers is not None and engine != "sharded":
        raise ValueError(
            f"workers only applies to the sharded engine, not {engine!r}"
        )
    if engine == "perfn":
        return FacePointClassifier(parts)
    if engine == "batched":
        return BatchedClassifier(parts)
    if engine == "canonical":
        # Lazy import: repro.canonical.engine builds on this package.
        from repro.canonical.engine import CanonicalClassifier

        return CanonicalClassifier(parts)
    return ShardedClassifier(parts, workers=workers)


__all__ = [
    "BatchedClassifier",
    "ShardedClassifier",
    "ENGINE_NAMES",
    "make_classifier",
    "PackedTables",
    "SignatureCache",
    "CacheStats",
    "batched_pieces",
    "bucket_in_order",
    "extend_buckets",
    "merge_shard_keys",
    "DEFAULT_STREAM_CHUNK",
]
