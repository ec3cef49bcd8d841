"""LRU match cache: repeated queries skip signature *and* witness search.

The engine-level :class:`~repro.engine.cache.SignatureCache` already
memoises MSV computation, but a served ``match`` still pays the witness
search per query.  Online traffic is heavily repetitive (cut functions
recur across circuits), so the service caches the *complete* match
outcome keyed on the raw table identity ``(n, bits)`` — including
negative outcomes, because a miss costs a full signature computation to
rediscover and misses repeat exactly like hits do.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.core.truth_table import TruthTable
from repro.engine.cache import CacheStats
from repro.library.store import LibraryMatch

__all__ = ["MatchCache"]

#: Distinguishes "not cached" from a cached negative match outcome.
_ABSENT = object()

_REG = obs.registry()
_LOOKUPS = _REG.counter(
    "repro_cache_match_lookups_total",
    "Match-cache lookups by result (hit or miss).",
    labels=("result",),
)
_EVICTIONS = _REG.counter(
    "repro_cache_match_evictions_total", "Match-cache LRU evictions."
)


class MatchCache:
    """Bounded LRU map from ``(n, bits)`` to a match outcome.

    Stored values are :class:`~repro.library.store.LibraryMatch` or
    ``None`` (a cached "no class matches" answer).  ``maxsize=0``
    disables caching.  :attr:`stats` counts this instance's lookups in
    the engine's :class:`CacheStats`; the daemon's ``stats`` block reads
    the process-wide ``repro_cache_match_lookups_total`` instead.
    """

    def __init__(self, maxsize: int = 1 << 16) -> None:
        if maxsize < 0:
            raise ValueError(f"cache size must be non-negative, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[int, int], LibraryMatch | None] = (
            OrderedDict()
        )

    @staticmethod
    def key_of(tt: TruthTable) -> tuple[int, int]:
        return (tt.n, tt.bits)

    def get(self, tt: TruthTable):
        """``(found, outcome)`` — ``found`` is False on a cache miss."""
        entry = self._entries.get(self.key_of(tt), _ABSENT)
        if entry is _ABSENT:
            self.stats.misses += 1
            _LOOKUPS.inc(result="miss")
            return False, None
        self._entries.move_to_end(self.key_of(tt))
        self.stats.hits += 1
        _LOOKUPS.inc(result="hit")
        return True, entry

    def put(self, tt: TruthTable, outcome: LibraryMatch | None) -> None:
        """Record one match outcome (positive or negative)."""
        if self.maxsize == 0:
            return
        key = self.key_of(tt)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = outcome
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.stats.evictions += 1
            _EVICTIONS.inc()

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MatchCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
