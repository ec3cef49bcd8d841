"""Sharded multi-process NPN classification: scale past one core.

:class:`ShardedClassifier` partitions a workload into packed shards, fans
them out to a ``multiprocessing`` pool, and deterministically merges the
per-shard results.  The paper's Section V-C linearity claim makes this
embarrassingly parallel: each function's Mixed Signature Vector depends on
that function alone, so shards never need to communicate.

Design decisions, all in service of the never-split contract:

* **Workers compute keys, the parent buckets.**  Workers run
  :func:`~repro.engine.signatures.batched_pieces`, so signatures go
  through the exact code path :class:`BatchedClassifier` uses.
* **One plain wire format.**  Each shard crosses the process boundary as
  a packed little-endian ``uint64`` byte buffer plus its base index, and
  comes back as a list of ``(index, canonical key)`` pairs.  Buffers, not
  objects, so every ``multiprocessing`` start method carries it.
* **Completion order cannot matter.**  Results are merged by
  :func:`repro.engine.merge.merge_shard_keys`, which places keys by index
  and rejects holes and duplicates, so buckets are byte-identical to
  ``BatchedClassifier`` for every worker count and shard size
  (``buckets_digest`` equality, enforced by tests and the
  ``bench_sharded_engine`` acceptance run).
* **The cache lives in the parent.**  Cache lookup and dedup run before
  sharding, exactly as in ``BatchedClassifier``, so only distinct misses
  cross the process boundary and :class:`SignatureCache` statistics are
  identical to the single-process driver's.
* **Streaming is bounded-memory.**  :meth:`ShardedClassifier.classify_iter`
  consumes any iterator chunk by chunk, holding one chunk of tables (plus
  the in-flight shard buffers) at a time, with one pool reused across
  chunks.
* **Failure is loud.**  The pool is a
  ``concurrent.futures.ProcessPoolExecutor`` precisely because a killed
  worker raises ``BrokenProcessPool`` instead of hanging the dispatch
  loop the way ``multiprocessing.Pool`` does.

``workers=1`` never forks: shards run inline in the parent (no
processes), which keeps single-core machines, debuggers and coverage
tools happy while exercising the identical shard/merge code path.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from itertools import islice
from multiprocessing import get_context

import numpy as np

from repro import obs
from repro.core import bitops
from repro.core.classifier import ClassificationResult
from repro.core.msv import (
    DEFAULT_PARTS,
    MixedSignature,
    canonical_key,
    normalize_parts,
)
from repro.core.truth_table import TruthTable
from repro.engine.cache import CacheStats, SignatureCache
from repro.engine.merge import bucket_in_order, extend_buckets, merge_shard_keys
from repro.engine.packed import PackedTables
from repro.engine.signatures import batched_pieces

__all__ = ["ShardedClassifier", "DEFAULT_STREAM_CHUNK"]

#: Tables consumed per :meth:`ShardedClassifier.classify_iter` chunk.
DEFAULT_STREAM_CHUNK = 8192

#: Shards handed out per worker, so a slow shard cannot stall the pool.
_OVERSUBSCRIBE = 4

#: Upper bound on rows per shard task (bounds per-task buffer size).
_MAX_SHARD_SIZE = 8192

_REG = obs.registry()
_DISPATCH_SECONDS = _REG.histogram(
    "repro_sharded_dispatch_seconds",
    "Per batch: building shard tasks and handing them to the pool.",
)
_GATHER_SECONDS = _REG.histogram(
    "repro_sharded_gather_seconds",
    "Per batch: collecting shard results and merging them into keys.",
)
_SHARD_ROWS = _REG.counter(
    "repro_sharded_rows_total",
    "Rows dispatched through the sharded engine.",
)
_SHARD_TASKS = _REG.counter(
    "repro_sharded_shards_total",
    "Shard tasks dispatched to the pool.",
)


def _classify_shard(task: tuple) -> list[tuple[int, tuple]]:
    """Worker body: packed buffer in, ``(index, canonical key)`` pairs out.

    Module-level (not a closure) so every ``multiprocessing`` start
    method can pickle it; also runs inline in the parent when
    ``workers=1`` or a batch produces a single shard.
    """
    base, n, parts, chunk_size, buffer = task
    words = np.frombuffer(buffer, dtype="<u8").reshape(
        -1, bitops.words_per_table(n)
    )
    pieces = batched_pieces(PackedTables(n, words), parts, chunk_size)
    return [
        (base + row, canonical_key(piece, parts))
        for row, piece in enumerate(pieces)
    ]


class _LazyPool:
    """A worker pool created on first use, torn down on scope exit.

    Cache-hot or tiny workloads never pay the startup cost; streaming
    runs start workers once and reuse the pool for every chunk.  The
    pool is a ``ProcessPoolExecutor`` so a worker killed mid-shard
    surfaces as ``BrokenProcessPool`` instead of deadlocking the merge.
    """

    def __init__(self, workers: int, start_method: str | None) -> None:
        self.workers = workers
        self.start_method = start_method
        self._pool = None

    def get(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(self.start_method),
            )
        return self._pool

    def shutdown(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ShardedClassifier:
    """NPN classifier fanning packed shards out to a process pool.

    Args:
        parts: which signature vectors make up the MSV (same selection as
            the other classifiers).
        workers: worker processes; ``None`` means all CPUs.  ``1`` runs
            every shard inline (no processes are forked).
        shard_size: rows per shard task; ``None`` splits each batch into
            about ``4 * workers`` shards (capped at 8192 rows).
        cache_size: LRU capacity of the parent-side signature cache;
            ``0`` disables caching.
        chunk_size: rows per vectorized chunk *inside* each worker (the
            ``BatchedClassifier`` knob, forwarded to ``batched_pieces``).
        start_method: ``multiprocessing`` start method (``"fork"``,
            ``"spawn"``, ``"forkserver"``); ``None`` uses the platform
            default.

    Example:
        >>> from repro import TruthTable
        >>> from repro.engine import ShardedClassifier
        >>> clf = ShardedClassifier(workers=2)
        >>> maj = TruthTable.majority(3)
        >>> clf.classify([maj, ~maj, maj.flip_input(1)]).num_classes
        1
    """

    def __init__(
        self,
        parts: Iterable[str] = DEFAULT_PARTS,
        workers: int | None = None,
        shard_size: int | None = None,
        cache_size: int = 1 << 16,
        chunk_size: int | None = None,
        start_method: str | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(
                f"sharded classification needs at least 1 worker, got {workers}"
            )
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard size must be positive, got {shard_size}")
        self.parts = normalize_parts(parts)
        self.workers = workers
        self.shard_size = shard_size
        self.chunk_size = chunk_size
        self.start_method = start_method
        self.cache = SignatureCache(maxsize=cache_size)
        self._held_pool: _LazyPool | None = None

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------

    def signature(self, tt: TruthTable) -> MixedSignature:
        """The MSV of one function (cached)."""
        return self.signatures([tt])[0]

    def signatures(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> list[MixedSignature]:
        """MSVs of many functions, in input order (mixed arities allowed)."""
        with self._pool_scope() as pool:
            return self._signatures(tables, pool)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------

    def classify(
        self, tables: Sequence[TruthTable] | PackedTables
    ) -> ClassificationResult:
        """Group functions into NPN classes by signature hashing.

        Buckets are byte-identical to ``BatchedClassifier.classify`` (and
        hence to ``FacePointClassifier``) on the same input.
        """
        if isinstance(tables, PackedTables):
            members = tables.to_tables()
        else:
            members = list(tables)
        with self._pool_scope() as pool:
            signatures = self._signatures(members, pool)
        return bucket_in_order(self.parts, signatures, members)

    def classify_iter(
        self,
        tables: Iterable[TruthTable],
        stream_chunk: int = DEFAULT_STREAM_CHUNK,
    ) -> ClassificationResult:
        """Classify a stream in bounded-memory chunks.

        Consumes ``tables`` lazily, ``stream_chunk`` functions at a time,
        so the working set is one chunk plus the in-flight shard buffers
        regardless of stream length; the worker pool is forked once and
        reused across chunks.  Produces the identical result ``classify``
        would on the materialised stream.  (The returned
        :class:`ClassificationResult` still holds every classified
        function; for class *counting* over streams larger than RAM, drop
        the result per chunk and track signatures only.)
        """
        if stream_chunk < 1:
            raise ValueError(f"stream chunk must be positive, got {stream_chunk}")
        result = ClassificationResult(self.parts)
        stream = iter(tables)
        with self.open_pool():
            while True:
                chunk = list(islice(stream, stream_chunk))
                if not chunk:
                    break
                extend_buckets(result, self.signatures(chunk), chunk)
        return result

    def count_classes(
        self, tables: Iterable[TruthTable] | PackedTables
    ) -> int:
        """Number of classes without retaining group membership.

        Accepts any iterable (streamed in bounded chunks) or a packed
        batch; only the distinct signatures are held in memory.
        """
        if isinstance(tables, PackedTables):
            return len(set(self.signatures(tables)))
        distinct: set[MixedSignature] = set()
        stream = iter(tables)
        with self.open_pool():
            while True:
                chunk = list(islice(stream, DEFAULT_STREAM_CHUNK))
                if not chunk:
                    break
                distinct.update(self.signatures(chunk))
        return len(distinct)

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the parent-side signature cache."""
        return self.cache.stats

    @contextmanager
    def open_pool(self):
        """Keep one worker pool alive across multiple calls.

        Every ``classify``/``signatures`` call inside the scope reuses a
        single (lazily forked) pool instead of opening its own — the knob
        for callers that issue many small calls, such as the Fig. 5
        incremental-timing series.  Reentrant: nested scopes reuse the
        outermost pool.  With ``workers=1`` this is a no-op.
        """
        if self.workers == 1 or self._held_pool is not None:
            yield self
            return
        holder = _LazyPool(self.workers, self.start_method)
        self._held_pool = holder
        try:
            yield self
        finally:
            self._held_pool = None
            holder.shutdown()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @contextmanager
    def _pool_scope(self):
        """Scope owning at most one lazily created pool (inline if workers=1).

        Defers to an enclosing :meth:`open_pool` scope when one is
        active, so held pools are reused rather than shadowed.
        """
        if self.workers == 1:
            yield None
            return
        if self._held_pool is not None:
            yield self._held_pool
            return
        holder = _LazyPool(self.workers, self.start_method)
        try:
            yield holder
        finally:
            holder.shutdown()

    def _signatures(
        self, tables: Sequence[TruthTable] | PackedTables, pool
    ) -> list[MixedSignature]:
        if isinstance(tables, PackedTables):
            return self._resolve_one_arity(tables.n, tables.to_ints(), pool)
        tables = list(tables)
        out: list[MixedSignature | None] = [None] * len(tables)
        by_arity: dict[int, list[int]] = {}
        for index, tt in enumerate(tables):
            by_arity.setdefault(tt.n, []).append(index)
        for n, indices in by_arity.items():
            sigs = self._resolve_one_arity(
                n, [tables[i].bits for i in indices], pool
            )
            for index, sig in zip(indices, sigs):
                out[index] = sig
        return out  # type: ignore[return-value]

    def _resolve_one_arity(
        self, n: int, bits: list[int], pool
    ) -> list[MixedSignature]:
        """Cache lookup and dedup in the parent; only misses are sharded.

        Mirrors ``BatchedClassifier._signatures_one_arity`` lookup-for-
        lookup so cache statistics are identical to the single-process
        driver's on the same input.
        """
        parts = self.parts
        out: list[MixedSignature | None] = [None] * len(bits)
        misses: list[int] = []  # first position of each distinct missing table
        missing: set[int] = set()
        for index, value in enumerate(bits):
            cached = self.cache.get((value, n, parts))
            if cached is not None:
                out[index] = cached
            elif value not in missing:
                missing.add(value)
                misses.append(index)
        if misses:
            keys = self._sharded_keys(n, [bits[i] for i in misses], pool)
            resolved: dict[int, MixedSignature] = {}
            for index, key in zip(misses, keys):
                sig = MixedSignature(n, parts, key)
                resolved[bits[index]] = sig
                self.cache.put((bits[index], n, parts), sig)
            for index, value in enumerate(bits):
                if out[index] is None:
                    out[index] = resolved[value]
        return out  # type: ignore[return-value]

    def _sharded_keys(self, n: int, bits: list[int], pool) -> list[tuple]:
        """Canonical keys of ``bits``, computed shard-parallel."""
        with obs.timed(_DISPATCH_SECONDS):
            tasks = self._shard_tasks(n, bits)
            if pool is None or len(tasks) == 1:
                shard_results: Iterable = map(_classify_shard, tasks)
            else:
                shard_results = pool.get().map(_classify_shard, tasks)
        _SHARD_ROWS.inc(len(bits))
        _SHARD_TASKS.inc(len(tasks))
        with obs.timed(_GATHER_SECONDS):
            return merge_shard_keys(shard_results, len(bits))

    def _shard_tasks(self, n: int, bits: list[int]) -> list[tuple]:
        """Split one arity's miss list into packed-buffer shard tasks."""
        size = self.shard_size
        if size is None:
            per_worker = -(-len(bits) // (self.workers * _OVERSUBSCRIBE))
            size = max(1, min(_MAX_SHARD_SIZE, per_worker))
        nbytes = bitops.words_per_table(n) * 8
        return [
            (
                base,
                n,
                self.parts,
                self.chunk_size,
                b"".join(
                    value.to_bytes(nbytes, "little")
                    for value in bits[base : base + size]
                ),
            )
            for base in range(0, len(bits), size)
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedClassifier(parts={self.parts}, workers={self.workers}, "
            f"cache={len(self.cache)}/{self.cache.maxsize})"
        )
