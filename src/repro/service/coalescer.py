"""Micro-batching request coalescer: many requests, one packed batch.

The throughput story of the offline engines is amortisation — one
``PackedTables`` batch turns Algorithm 1's per-function loop into a
handful of NumPy passes.  An online daemon naturally receives requests
one at a time, which would forfeit exactly that amortisation; the
coalescer wins it back:

1. every request lands in a bounded FIFO queue (a full queue raises the
   typed ``overloaded`` error immediately — backpressure, not buffering
   until death);
2. a single worker task gathers whatever is queued, up to ``max_batch``
   requests, waiting at most ``max_wait_ms`` for stragglers once the
   first request of a batch arrived — one timer per batch, woken early
   only when the queue holds enough to fill it;
3. the batch's ``match`` requests are resolved by one
   :meth:`ClassLibrary.match_many` call, which signs the queries it
   needs signed itself, off the event loop on a dedicated executor
   thread so I/O keeps flowing — and keeps *filling the next batch* —
   while NumPy crunches;
4. results fan back out through per-request futures, with ``match``
   outcomes recorded in the LRU :class:`~repro.service.cache.MatchCache`
   (hits short-circuit before ever reaching a batch).

``max_batch=1`` degenerates to request-at-a-time serving.

With a :class:`~repro.library.online.LearningLibrary` attached
(``serve --learn``), its :meth:`~repro.library.online.LearningLibrary.learn`
is the ``learn`` of that same ``match_many`` call: the batch's misses
are minted, WAL-logged and answered as verified hits against the new
classes, reusing the forms and signatures the match computed — so the
*first* miss already answers with a class id, and every subsequent
equivalent query hits it through the cache or the normal match path.
The drain hook compacts the WAL into the library image after the
backlog is answered, so a SIGTERM'd learning daemon leaves a clean
artifact behind.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.canonical.form import canonical_class_id, canonical_forms
from repro.obs import Trace
from repro.core.truth_table import TruthTable
from repro.library.online import LearningLibrary
from repro.library.store import ClassLibrary
from repro.service.cache import MatchCache
from repro.service.protocol import ProtocolError

__all__ = [
    "Coalescer",
    "validate_service_knobs",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_WAIT_MS",
    "DEFAULT_MAX_PENDING",
]

DEFAULT_MAX_BATCH = 256
DEFAULT_MAX_WAIT_MS = 2.0
DEFAULT_MAX_PENDING = 8192

_CLOSE = object()  # queue sentinel: drain what is queued, then stop

_REG = obs.registry()
_BATCH_SIZE = _REG.histogram(
    "repro_service_batch_size",
    "Requests per dispatched engine batch.",
    buckets=obs.BATCH_SIZE_BUCKETS,
)


def validate_service_knobs(
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    max_pending: int = DEFAULT_MAX_PENDING,
    cache_size: int = 0,
) -> None:
    """Reject unusable service configuration with a clear ValueError.

    The single source of truth for knob ranges: the :class:`Coalescer`
    constructor enforces them through this function, and the CLI calls
    it *before* loading a (potentially large) library so flag typos fail
    fast.
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    if max_wait_ms < 0:
        raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
    if max_pending < 1:
        raise ValueError(f"max_pending must be >= 1, got {max_pending}")
    if cache_size < 0:
        raise ValueError(f"cache_size must be >= 0, got {cache_size}")


@dataclass
class _Pending:
    """One enqueued request waiting for its batch."""

    op: str
    table: TruthTable
    future: asyncio.Future = field(repr=False)
    # Optional observability context: the server's per-request trace
    # (spans appended as the request moves through the pipeline) and
    # the perf-counter instant it entered the queue.
    trace: Trace | None = field(default=None, repr=False)
    enqueued: float = 0.0


class Coalescer:
    """Gathers concurrent classify/match requests into engine batches.

    Args:
        library: the loaded :class:`ClassLibrary` queries resolve against.
        max_batch: most requests folded into one engine batch.
        max_wait_ms: how long a non-full batch waits for stragglers after
            its first request arrived.  ``0`` never waits — it still
            coalesces whatever is already queued.
        max_pending: bound of the request queue; submissions beyond it
            fail fast with ``overloaded``.
        cache_size: LRU capacity of the match cache (``0`` disables).
        learner: attach a :class:`LearningLibrary` wrapping ``library``
            to mint classes on misses (``None`` serves read-only).
    """

    def __init__(
        self,
        library: ClassLibrary,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: int = DEFAULT_MAX_PENDING,
        cache_size: int = 1 << 16,
        learner: LearningLibrary | None = None,
    ) -> None:
        validate_service_knobs(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            cache_size=cache_size,
        )
        if learner is not None and learner.library is not library:
            raise ValueError(
                "learner must wrap the same ClassLibrary the coalescer "
                "serves (matches and mints would diverge otherwise)"
            )
        self.library = library
        self.learner = learner
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.cache = MatchCache(cache_size)
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_pending)
        # One worker thread: batches are sequential by design (the whole
        # point is one big batch, not many small concurrent ones).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self._worker: asyncio.Task | None = None
        self._closed = False
        #: The wait of a batch short of ``max_batch``, and how many more
        #: requests would fill it.
        self._waiter: asyncio.Future | None = None
        self._wanted = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the batching worker on the running event loop."""
        if self._worker is None:
            self._worker = asyncio.ensure_future(self._run())

    @property
    def closing(self) -> bool:
        return self._closed

    async def stop(self) -> None:
        """Drain: process everything queued, then stop the worker.

        Requests submitted after ``stop`` begins fail with
        ``shutting_down``; requests already queued are answered.
        """
        if self._closed:
            if self._worker is not None:
                await self._worker
            return
        self._closed = True
        # The sentinel goes behind every already-queued request, so the
        # worker consumes the backlog first.  put() may need to wait for
        # queue space on an overloaded daemon — that is fine, drain is
        # allowed to take as long as the backlog does.
        await self._queue.put(_CLOSE)
        self._wake()
        if self._worker is not None:
            await self._worker
        self._executor.shutdown(wait=True)
        if self.learner is not None:
            # Drain hook: every queued request is answered by now, so
            # the WAL is quiescent — fold it into the library image,
            # then release the learner lock for the next daemon.
            # Compaction is best-effort: a failure (full disk, corrupt
            # segment) must not propagate, or it would abort the server's
            # teardown mid-drain and the already-answered backlog replies
            # would be dropped with the connections.  The WAL segments
            # stay on disk either way — the learned classes replay on the
            # next open or fold in via ``repro-npn library compact``.
            try:
                self.learner.compact()
            except Exception:
                logging.getLogger("repro.service.coalescer").exception(
                    "drain-time WAL compaction failed; segments kept "
                    "for replay"
                )
            finally:
                self.learner.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, op: str, table: TruthTable, trace: Trace | None = None
    ) -> asyncio.Future:
        """Enqueue one request; the returned future resolves to its result.

        ``match`` futures resolve to ``(LibraryMatch | None, cached)``;
        ``classify`` futures to ``(class_id, known)``.  Raises
        :class:`ProtocolError` with type ``overloaded`` on a full queue
        and ``shutting_down`` during drain.  An optional ``trace``
        accumulates per-stage spans as the request moves through the
        queue, the batch, and the engine passes.
        """
        if self._closed:
            raise ProtocolError(
                "shutting_down", "service is draining; retry elsewhere"
            )
        future = asyncio.get_running_loop().create_future()
        if op == "match":
            found, outcome = self.cache.get(table)
            if found:
                if trace is not None:
                    trace.annotate(cache="hit")
                future.set_result((outcome, True))
                return future
            if trace is not None:
                trace.annotate(cache="miss")
        pending = _Pending(
            op=op,
            table=table,
            future=future,
            trace=trace,
            enqueued=time.perf_counter(),
        )
        try:
            self._queue.put_nowait(pending)
        except asyncio.QueueFull:
            raise ProtocolError(
                "overloaded",
                f"pending queue is full ({self._queue.maxsize} requests); "
                f"retry later",
            ) from None
        if self._waiter is not None and self._queue.qsize() >= self._wanted:
            self._wake()
        return future

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _CLOSE:
                return
            batch = [first]
            stop_after = await self._fill(batch)
            live = [p for p in batch if not p.future.cancelled()]
            if live:
                _BATCH_SIZE.observe(len(live))
                dispatched = time.perf_counter()
                queue_meta = {"batch": len(live)}  # shared; spans don't mutate
                for pending in live:
                    if pending.trace is not None:
                        pending.trace.add_span(
                            "queue", pending.enqueued, dispatched, queue_meta
                        )
                try:
                    results = await loop.run_in_executor(
                        self._executor, self._process, live
                    )
                except Exception as exc:  # engine bug — fail the batch, not the daemon
                    error = ProtocolError(
                        "internal", f"batch processing failed: {exc!r}"
                    )
                    for pending in live:
                        if not pending.future.done():
                            pending.future.set_exception(error)
                else:
                    self._publish(live, results)
            if stop_after:
                return

    async def _fill(self, batch: list) -> bool:
        """Top up ``batch`` to ``max_batch``; True when drain should follow.

        Whatever is queued joins for free.  A batch still short then
        sleeps once, on one timer: until the queue holds enough to fill
        it or ``max_wait_ms`` has passed, whichever comes first.
        """
        if self._take(batch):
            return True
        if len(batch) >= self.max_batch or self.max_wait_ms == 0:
            return False
        loop = asyncio.get_running_loop()
        self._wanted = self.max_batch - len(batch)
        self._waiter = loop.create_future()
        timer = loop.call_later(self.max_wait_ms / 1000.0, self._wake)
        try:
            await self._waiter
        finally:
            timer.cancel()
            self._waiter = None
        return self._take(batch)

    def _take(self, batch: list) -> bool:
        """Move queued requests into ``batch``; True at the drain sentinel."""
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _CLOSE:
                return True
            batch.append(item)
        return False

    def _wake(self) -> None:
        """End the filling batch's wait."""
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    def _process(self, batch: list) -> list:
        """Resolve one batch (runs on the executor thread).

        The batch's ``match`` tables — mixed arities allowed — go to one
        :meth:`ClassLibrary.match_many` call, which learns its misses
        when a learner is attached; ``classify`` resolves ids through
        :meth:`_classify_ids` (batched exact canonicalization).
        """
        match_tables = [p.table for p in batch if p.op == "match"]
        classify_tables = [p.table for p in batch if p.op != "match"]
        learn = self.learner.learn if self.learner is not None else None
        t_start = time.perf_counter()
        # Both answer lists are in batch order: the loop below walks them.
        matches = iter(self.library.match_many(match_tables, learn=learn))
        t_matched = time.perf_counter()
        class_ids = iter(self._classify_ids(classify_tables))
        t_classified = time.perf_counter()
        # One span per request for the batch phase it shared.  Meta
        # dicts are shared across the batch (spans never mutate them).
        match_meta = {"rows": len(match_tables)}
        classify_meta = {"rows": len(classify_tables)}
        results = []
        for pending in batch:
            if pending.op == "match":
                span = ("match", t_start, t_matched, match_meta)
                results.append((next(matches), False))
            else:  # classify
                span = ("classify", t_matched, t_classified, classify_meta)
                class_id = next(class_ids)
                results.append((class_id, class_id in self.library.classes))
            if pending.trace is not None:
                pending.trace.add_span(*span)
        return results

    def _classify_ids(self, tables: list) -> list[str]:
        """Class ids of the batch's ``classify`` requests.

        Ids are a function of the orbit, not the signature, so the
        tables are exact-canonicalized in one batch.
        """
        if not tables:
            return []
        return [canonical_class_id(rep) for rep in canonical_forms(tables)]

    def _publish(self, batch: list, results: list) -> None:
        """Fan results back out to futures; feed the match cache."""
        for pending, result in zip(batch, results):
            if pending.op == "match":
                outcome, _ = result
                self.cache.put(pending.table, outcome)
            if not pending.future.done():
                pending.future.set_result(result)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests currently queued (excludes the batch in flight)."""
        return self._queue.qsize()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Coalescer(max_batch={self.max_batch}, "
            f"max_wait_ms={self.max_wait_ms}, pending={self.pending})"
        )
