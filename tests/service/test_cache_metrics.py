"""MatchCache accounting: the registry series are the one source of counts."""

import pytest

from repro import obs
from repro.core.truth_table import TruthTable
from repro.service.cache import MatchCache


def _lookups(result: str) -> float:
    return obs.registry().get("repro_cache_match_lookups_total").value(
        result=result
    )


def _evictions() -> float:
    return obs.registry().get("repro_cache_match_evictions_total").value()


class TestMatchCache:
    def test_miss_then_hit(self, tiny_library):
        hits, misses = _lookups("hit"), _lookups("miss")
        cache = MatchCache(maxsize=8)
        query = TruthTable(3, 0xE8)
        found, _ = cache.get(query)
        assert not found
        outcome = tiny_library.match(query)
        cache.put(query, outcome)
        found, cached = cache.get(query)
        assert found and cached is outcome
        assert _lookups("hit") == hits + 1
        assert _lookups("miss") == misses + 1

    def test_negative_outcome_is_cached(self):
        cache = MatchCache(maxsize=8)
        query = TruthTable(3, 0xE8)
        cache.put(query, None)
        found, outcome = cache.get(query)
        assert found and outcome is None

    def test_key_distinguishes_arity(self):
        cache = MatchCache(maxsize=8)
        cache.put(TruthTable(2, 0b0110), None)
        found, _ = cache.get(TruthTable.from_binary("0110").extend(3))
        assert not found

    def test_lru_eviction(self):
        evictions = _evictions()
        cache = MatchCache(maxsize=2)
        a, b, c = (TruthTable(3, bits) for bits in (1, 2, 3))
        cache.put(a, None)
        cache.put(b, None)
        cache.get(a)  # refresh a; b is now LRU
        cache.put(c, None)
        assert _evictions() == evictions + 1
        assert cache.get(b) == (False, None)
        assert cache.get(a)[0] and cache.get(c)[0]

    def test_zero_size_disables(self):
        cache = MatchCache(maxsize=0)
        query = TruthTable(3, 0xE8)
        cache.put(query, None)
        assert cache.get(query) == (False, None)
        assert len(cache) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MatchCache(maxsize=-1)

