"""Batched classification engine: packed batches, vectorized signatures.

The per-function classifier in :mod:`repro.core.classifier` computes each
Mixed Signature Vector on one big-int table at a time.  This package is
the bulk counterpart the Section V-C linearity claim deserves:

* :class:`~repro.engine.packed.PackedTables` — many truth tables as one
  ``[batch, 2**n / 64]`` ``uint64`` matrix;
* :mod:`repro.engine.signatures` — every MSV key computed as flat
  integer rows across the whole batch;
* :class:`~repro.engine.classifier.BatchedClassifier` — Algorithm 1 with
  buckets byte-identical to ``FacePointClassifier``'s.

Exact classes are :class:`repro.baselines.exact.ExactClassifier`'s job:
it buckets by these signatures and decides inside each bucket with the
complete matcher.
"""

from repro.engine.classifier import BatchedClassifier
from repro.engine.packed import PackedTables

__all__ = [
    "BatchedClassifier",
    "PackedTables",
]
