"""LRU match cache: repeated queries skip signature *and* witness search.

A served ``match`` pays a signature computation and a witness search per
query.  Online traffic is heavily repetitive (cut functions recur across
circuits), so the service caches the *complete* match outcome keyed on
the raw table identity ``(n, bits)`` — including negative outcomes,
because a miss costs a full signature computation to rediscover and
misses repeat exactly like hits do.  A cached answer never reaches a
batch, so the engine itself keeps no cache.
"""

from __future__ import annotations

from collections import OrderedDict

from repro import obs
from repro.core.truth_table import TruthTable
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
    disables caching.  Lookups and evictions are counted only in the
    process-wide ``repro_cache_match_lookups_total`` and
    ``repro_cache_match_evictions_total`` series.
    """

    def __init__(self, maxsize: int = 1 << 16) -> None:
        if maxsize < 0:
            raise ValueError(f"cache size must be non-negative, got {maxsize}")
        self.maxsize = maxsize
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
            _LOOKUPS.inc(result="miss")
            return False, None
        self._entries.move_to_end(self.key_of(tt))
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
            _EVICTIONS.inc()

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MatchCache(size={len(self)}/{self.maxsize})"
