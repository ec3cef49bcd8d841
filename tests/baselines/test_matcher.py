"""Tests for the signature-pruned pairwise NPN matcher."""

import functools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import matcher
from repro.baselines.exact_enum import exact_npn_canonical
from repro.baselines.matcher import (
    are_npn_equivalent,
    find_npn_transform,
    find_npn_transform_scalar,
    find_npn_transforms_grouped,
    variable_keys,
)
from repro.core.transforms import NPNTransform, random_transform
from repro.core.truth_table import TruthTable
from repro.kernels import MAX_KERNEL_VARS
from tests.strategies import arities, columns_of, npn_transforms, truth_tables


class TestPositiveMatches:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_finds_transform_for_equivalent_pairs(self, n):
        rng = random.Random(n * 3)
        for _ in range(15):
            tt = TruthTable.random(n, rng)
            expected = random_transform(n, rng)
            image = tt.apply(expected)
            found = find_npn_transform(tt, image)
            assert found is not None
            assert tt.apply(found) == image

    def test_identity_match(self):
        tt = TruthTable.majority(3)
        found = find_npn_transform(tt, tt)
        assert found is not None
        assert tt.apply(found) == tt

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identical_tables_short_circuit_to_identity(self, n):
        """f == g must return the identity without any search."""
        rng = random.Random(n * 5 + 1)
        for _ in range(10):
            tt = TruthTable.random(n, rng)
            found = find_npn_transform(tt, tt)
            assert found is not None
            assert found.is_identity

    def test_output_negation_match(self):
        tt = TruthTable.from_function(4, lambda a, b, c, d: a & b & (c | d))
        found = find_npn_transform(tt, ~tt)
        assert found is not None
        assert found.output_phase == 1

    def test_symmetric_function_matches_fast(self):
        # Fully symmetric: the very first consistent branch succeeds.
        maj5 = TruthTable.majority(5)
        image = maj5.apply(random_transform(5, random.Random(1)))
        assert are_npn_equivalent(maj5, image)

    def test_nullary(self):
        zero, one = TruthTable(0, 0), TruthTable(0, 1)
        assert are_npn_equivalent(zero, one)
        transform = find_npn_transform(zero, one)
        assert zero.apply(transform) == one

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_are_npn_equivalent_is_symmetric(self, n):
        """Equivalence is an equivalence relation: verdicts commute."""
        rng = random.Random(n * 31)
        for _ in range(12):
            a = TruthTable.random(n, rng)
            pairs = [
                (a, a.apply(random_transform(n, rng))),  # equivalent pair
                (a, TruthTable.random(n, rng)),  # usually inequivalent
            ]
            for x, y in pairs:
                assert are_npn_equivalent(x, y) == are_npn_equivalent(y, x)


class TestNegativeMatches:
    def test_arity_mismatch(self):
        assert find_npn_transform(TruthTable(2, 6), TruthTable(3, 6)) is None

    def test_count_mismatch(self):
        and3 = TruthTable.from_function(3, lambda a, b, c: a & b & c)
        maj3 = TruthTable.majority(3)
        assert not are_npn_equivalent(and3, maj3)

    def test_same_count_nonequivalent(self):
        # x0 ^ x1 ^ x2 vs majority: both balanced, not equivalent.
        xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
        assert not are_npn_equivalent(xor3, TruthTable.majority(3))

    @pytest.mark.parametrize("n", [3, 4])
    def test_agrees_with_enumeration(self, n):
        """Matcher verdict == canonical-form verdict on random pairs."""
        rng = random.Random(n * 17)
        for _ in range(30):
            a = TruthTable.random(n, rng)
            b = TruthTable.random(n, rng)
            expected = (
                exact_npn_canonical(a).representative
                == exact_npn_canonical(b).representative
            )
            assert are_npn_equivalent(a, b) == expected

    def test_hard_near_symmetric_pair(self):
        # Same satisfy count and similar structure; must still be split.
        f = TruthTable.from_function(4, lambda a, b, c, d: (a & b) | (c & d))
        g = TruthTable.from_function(4, lambda a, b, c, d: (a & b) | (b & c) | (a & d))
        expected = (
            exact_npn_canonical(f).representative
            == exact_npn_canonical(g).representative
        )
        assert are_npn_equivalent(f, g) == expected


class TestVariableKeys:
    def test_symmetric_variables_share_keys(self):
        maj = TruthTable.majority(3)
        keys = variable_keys(maj)
        assert len(set(keys)) == 1

    def test_distinguishes_projection(self):
        tt = TruthTable.from_function(3, lambda a, b, c: (a & b) | c)
        keys = variable_keys(tt)
        assert keys[0] == keys[1]
        assert keys[2] != keys[0]

    def test_keys_invariant_under_np(self):
        from repro.core.transforms import NPNTransform

        rng = random.Random(7)
        for _ in range(10):
            tt = TruthTable.random(4, rng)
            t = random_transform(4, rng)
            pn_only = NPNTransform(t.perm, t.input_phase, 0)
            image = tt.apply(pn_only)
            assert sorted(variable_keys(tt)) == sorted(variable_keys(image))

    def test_keys_not_output_invariant(self):
        """Documented limitation: cofactor pairs complement under ~f."""
        and3 = TruthTable.from_function(3, lambda a, b, c: a & b & c)
        assert sorted(variable_keys(and3)) != sorted(variable_keys(~and3))


class TestScalarParity:
    """The gather path and the seed backtracker are interchangeable."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identical_witnesses_on_equivalent_pairs(self, n):
        """Same verdict AND byte-identical witness: the vectorized
        search enumerates candidates in the backtracker's order."""
        rng = random.Random(n * 71)
        for _ in range(25):
            tt = TruthTable.random(n, rng)
            image = tt.apply(random_transform(n, rng))
            assert find_npn_transform(tt, image) == find_npn_transform_scalar(
                tt, image
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_same_verdict_on_random_pairs(self, n):
        rng = random.Random(n * 73)
        for _ in range(25):
            a, b = TruthTable.random(n, rng), TruthTable.random(n, rng)
            assert (find_npn_transform(a, b) is None) == (
                find_npn_transform_scalar(a, b) is None
            )

    @staticmethod
    def spy_overflow(monkeypatch) -> list:
        """Record every call of the over-cap canonical-form resolver."""
        calls = []
        real = matcher._resolve_by_canonical_form

        def spy(n, sources, target_ints, overflow):
            calls.append(len(overflow))
            return real(n, sources, target_ints, overflow)

        monkeypatch.setattr(matcher, "_resolve_by_canonical_form", spy)
        return calls

    def test_symmetric_overflow_path(self, monkeypatch):
        """Fully symmetric functions are decided by canonical forms: the
        scalar search's verdict, a verified witness, and exactly the
        witness the two argmin transforms compose to."""
        from repro.kernels import canonical_min_transforms

        calls = self.spy_overflow(monkeypatch)
        xor6 = TruthTable.from_function(6, lambda *xs: sum(xs) % 2)
        image = xor6.apply(random_transform(6, random.Random(11)))
        witness = find_npn_transform(xor6, image)
        assert calls == [1]
        assert find_npn_transform_scalar(xor6, image) is not None
        assert witness is not None and xor6.apply(witness) == image
        _, (to_form, image_to_form) = canonical_min_transforms(
            [xor6.bits, image.bits], 6
        )
        assert witness == image_to_form.inverse().compose(to_form)

    def test_symmetric_inequivalent_overflow_pair_is_none(self, monkeypatch):
        """Two quadratic forms whose graphs (two triangles; a 4-clique
        with two ears) are not isomorphic share every variable key and
        the satisfy count, and every cofactor is balanced: all 46,080
        NP transforms are candidates, so the pair overflows the cap —
        and is rejected."""
        calls = self.spy_overflow(monkeypatch)

        def quadratic(edges):
            return TruthTable.from_function(
                6, lambda *xs: sum(xs[a] & xs[b] for a, b in edges) % 2
            )

        triangles = quadratic([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        clique = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        ears = quadratic(clique + [(0, 4), (1, 4), (2, 5), (3, 5)])
        assert triangles.count_ones() == ears.count_ones()
        assert sorted(variable_keys(triangles)) == sorted(variable_keys(ears))
        assert find_npn_transform(triangles, ears) is None
        assert calls == [1]
        assert find_npn_transform_scalar(triangles, ears) is None

    @pytest.mark.parametrize("cap, overflows", [(720, False), (719, True)])
    def test_candidate_cap_boundary(self, monkeypatch, cap, overflows):
        """A target with exactly the cap's candidates takes the gather,
        one with a candidate more overflows.  The 6-input threshold-4
        function has 6! = 720: every permutation, one polarity a slot."""
        monkeypatch.setattr(matcher, "_BULK_CANDIDATE_CAP", cap)
        calls = self.spy_overflow(monkeypatch)
        source = _weight_function(6, range(4, 7))
        image = source.apply(random_transform(6, random.Random(3)))
        witness = find_npn_transform(source, image)
        assert calls == ([1] if overflows else [])
        assert witness is not None and source.apply(witness) == image
        if not overflows:
            assert witness == find_npn_transform_scalar(source, image)

    def test_small_windows_give_the_same_witnesses(self, monkeypatch):
        """Chunked enumeration and windowed gathers — one pair or one
        row at a time — pick the same witnesses as one big window."""
        rng = random.Random(31)
        groups = []
        for source in _cut_function_pool(6)[:12]:
            targets = [source.apply(random_transform(6, rng)) for _ in range(3)]
            groups.append((source, targets + [TruthTable.random(6, rng)]))
        expected = find_npn_transforms_grouped(groups)
        monkeypatch.setattr(matcher, "_GATHER_WINDOW", 64)
        assert find_npn_transforms_grouped(groups) == expected

    def test_large_arity_falls_back_to_scalar(self):
        rng = random.Random(77)
        tt = TruthTable.random(7, rng)
        image = tt.apply(random_transform(7, rng))
        witness = find_npn_transform(tt, image)
        assert witness is not None
        assert tt.apply(witness) == image


class TestBulkAPIs:
    def test_bulk_matches_singles(self):
        rng = random.Random(5)
        source = TruthTable.random(5, rng)
        targets = (
            [source.apply(random_transform(5, rng)) for _ in range(10)]
            + [TruthTable.random(5, rng) for _ in range(10)]
            + [source, ~source]
        )
        bulk = find_npn_transforms_grouped([(source, targets)])[0]
        singles = [find_npn_transform(source, t) for t in targets]
        assert bulk == singles

    def test_grouped_matches_singles_across_arities(self):
        rng = random.Random(6)
        pairs = []
        for n in (3, 4, 6):
            source = TruthTable.random(n, rng)
            targets = [
                source.apply(random_transform(n, rng)),
                TruthTable.random(n, rng),
                source,
            ]
            pairs.append((source, targets))
        grouped = find_npn_transforms_grouped(pairs)
        for (source, targets), row in zip(pairs, grouped):
            assert row == [find_npn_transform(source, t) for t in targets]

    def test_arity_mismatch_target_is_none(self):
        source = TruthTable.random(4, random.Random(8))
        bulk = find_npn_transforms_grouped(
            [(source, [TruthTable(3, 6), source])]
        )[0]
        assert bulk[0] is None
        assert bulk[1] is not None and bulk[1].is_identity

    def test_empty_targets(self):
        assert find_npn_transforms_grouped([(TruthTable.majority(3), [])]) == [[]]
        assert find_npn_transforms_grouped([]) == []


class TestVerificationFinalStep:
    """Verification is one consistently-applied final step: whatever the
    search produces — identity short-circuit included — is checked once
    against ``source.apply(witness) == target`` before being returned."""

    def test_bogus_search_result_is_rejected(self, monkeypatch):
        """A corrupted (unverifiable) witness never escapes the matcher."""
        and3 = TruthTable.from_function(3, lambda a, b, c: a & b & c)
        or3 = TruthTable.from_function(3, lambda a, b, c: a | b | c)
        bogus = NPNTransform((0, 1, 2), 0, 0)  # and3.apply(bogus) != or3
        monkeypatch.setattr(
            matcher,
            "_search_arity",
            lambda n, sources, targets: (
                np.arange(len(targets)),
                columns_of([bogus] * len(targets)),
            ),
        )
        assert find_npn_transform(and3, or3) is None
        assert find_npn_transforms_grouped([(and3, [or3, or3])]) == [
            [None, None]
        ]

    def test_bogus_scalar_search_result_is_rejected(self, monkeypatch):
        and3 = TruthTable.from_function(3, lambda a, b, c: a & b & c)
        or3 = TruthTable.from_function(3, lambda a, b, c: a | b | c)
        monkeypatch.setattr(
            matcher,
            "_scalar_search",
            lambda source, target, keys: NPNTransform((0, 1, 2), 0, 0),
        )
        assert find_npn_transform_scalar(and3, or3) is None

    @pytest.mark.parametrize("n", range(0, 9))
    def test_batched_check_equals_the_scalar_check(self, n, monkeypatch):
        """Right, wrong and missing witnesses over several sources: the
        step keeps exactly those with ``source.apply(w) == target``."""
        rng = random.Random(400 + n)
        pairs, planted = [], []
        for _ in range(3):
            source = TruthTable.random(n, rng)
            targets, witnesses = [], []
            for _ in range(8):
                truth = random_transform(n, rng)
                targets.append(
                    source.apply(truth)
                    if rng.random() < 0.7
                    else TruthTable.random(n, rng)
                )
                witnesses.append(
                    rng.choice([truth, truth, random_transform(n, rng), None])
                )
            pairs.append((source, targets))
            planted.append(witnesses)
        answers = [w for row in planted for w in row]
        if n > MAX_KERNEL_VARS:
            answers = iter(answers)
            monkeypatch.setattr(
                matcher, "_scalar_search", lambda *args: next(answers)
            )
        else:
            found = [k for k, w in enumerate(answers) if w is not None]
            monkeypatch.setattr(
                matcher,
                "_search_arity",
                lambda n, sources, targets: (
                    np.array(found, dtype=np.intp),
                    columns_of([answers[k] for k in found]),
                ),
            )
        expected = [
            [
                w if w is not None and source.apply(w) == target else None
                for w, target in zip(witnesses, targets)
            ]
            for (source, targets), witnesses in zip(pairs, planted)
        ]
        assert find_npn_transforms_grouped(pairs) == expected
        flat = [w for row in expected for w in row]
        assert any(w is not None for w in flat)
        assert sum(w is None for w in flat) > sum(
            w is None for row in planted for w in row
        )

    def test_genuine_witnesses_survive_verification(self, monkeypatch):
        """The verification step passes every honest search result."""
        tt = TruthTable.majority(3)
        image = tt.apply(NPNTransform((1, 2, 0), 0b010, 1))
        assert find_npn_transform(tt, image) is not None

    def test_identity_short_circuit_still_verified_path(self):
        """f == g returns the identity through the same public flow."""
        tt = TruthTable.random(6, random.Random(13))
        witness = find_npn_transform(tt, tt)
        assert witness is not None and witness.is_identity


class TestVariableKeyMemoization:
    def test_repeated_calls_hit_the_keyed_lru(self):
        variable_keys.cache_clear()
        tt = TruthTable.random(6, random.Random(21))
        first = variable_keys(tt)
        hits_before = variable_keys.cache_info().hits
        assert variable_keys(tt) is first
        assert variable_keys.cache_info().hits == hits_before + 1

    def test_repeated_matches_reuse_source_keys(self):
        """Matching many targets against one representative computes the
        representative's key rows once."""
        matcher._source_key_matrix.cache_clear()
        rng = random.Random(22)
        source = TruthTable.random(6, rng)
        targets = [source.apply(random_transform(6, rng)) for _ in range(4)]
        for target in targets:
            assert find_npn_transform(source, target) is not None
        info = matcher._source_key_matrix.cache_info()
        assert info.misses == 1
        assert info.hits >= len(targets) - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_property_matcher_completeness(n, rng):
    """For a constructed equivalent pair the matcher always succeeds."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    image = tt.apply(random_transform(n, rng))
    transform = find_npn_transform(tt, image)
    assert transform is not None
    assert tt.apply(transform) == image


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_property_matcher_soundness_n3(rng):
    """Matcher never claims equivalence the enumeration denies (n = 3)."""
    a = TruthTable(3, rng.getrandbits(8))
    b = TruthTable(3, rng.getrandbits(8))
    expected = (
        exact_npn_canonical(a).representative
        == exact_npn_canonical(b).representative
    )
    assert are_npn_equivalent(a, b) == expected


# ----------------------------------------------------------------------
# Differential check on symmetric functions (the over-cap path)
# ----------------------------------------------------------------------


@functools.cache
def _cut_function_pool(n: int) -> tuple[TruthTable, ...]:
    """Distinct ``n``-input cut functions of small arithmetic circuits."""
    from repro.aig import builders
    from repro.aig.cuts import iter_cut_functions

    circuits = (
        builders.ripple_adder(4),
        builders.carry_lookahead_adder(4),
        builders.comparator(4),
        builders.majority_voter(7),
        builders.parity(8),
    )
    pool = {}
    for aig in circuits:
        for _, _, tt in iter_cut_functions(aig, (n,), max_cuts=16):
            pool.setdefault(tt.bits, tt)
    return tuple(pool.values())


def _weight_function(n: int, weights) -> TruthTable:
    """The totally symmetric function true on the given input weights."""
    weights = frozenset(weights)
    return TruthTable.from_function(n, lambda *xs: int(sum(xs) in weights))


@st.composite
def symmetric_functions(draw, n: int) -> TruthTable:
    """XOR, majority, threshold, any weight set, or a circuit cut function."""
    kind = draw(st.sampled_from(("xor", "majority", "threshold", "weights", "cut")))
    if kind == "xor":
        return _weight_function(n, range(1, n + 1, 2))
    if kind == "majority":
        return _weight_function(n, range(n // 2 + 1, n + 1))
    if kind == "threshold":
        k = draw(st.integers(0, n + 1))
        return _weight_function(n, range(k, n + 1))
    if kind == "weights":
        return _weight_function(n, draw(st.sets(st.integers(0, n))))
    return draw(st.sampled_from(_cut_function_pool(n)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_symmetric_verdicts_match_the_scalar_search(data):
    """Grouped-matcher verdicts equal the scalar backtracker's on
    symmetric sources against their NPN images, other symmetric
    functions and random tables; every witness verifies."""
    n = data.draw(arities(3, 6), label="n")
    groups = []
    for _ in range(data.draw(st.integers(1, 3), label="groups")):
        source = data.draw(symmetric_functions(n), label="source")
        targets = [
            source.apply(data.draw(npn_transforms(n=n), label="transform")),
            data.draw(symmetric_functions(n), label="other"),
            data.draw(truth_tables(n=n), label="random"),
        ]
        groups.append((source, targets))
    rows = find_npn_transforms_grouped(groups)
    for (source, targets), row in zip(groups, rows):
        assert row[0] is not None
        for target, witness in zip(targets, row):
            scalar = find_npn_transform_scalar(source, target)
            assert (witness is None) == (scalar is None)
            if witness is not None:
                assert source.apply(witness) == target


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witnesses_below_the_cap_match_the_scalar_search(data):
    """On tie-heavy sources, every target the over-cap resolver does not
    receive gets the scalar backtracker's witness byte for byte."""
    n = data.draw(arities(3, 6), label="n")
    groups = []
    for _ in range(data.draw(st.integers(1, 3), label="groups")):
        source = data.draw(symmetric_functions(n), label="source")
        targets = [
            source.apply(data.draw(npn_transforms(n=n), label="transform")),
            source.apply(data.draw(npn_transforms(n=n), label="transform")),
            data.draw(symmetric_functions(n), label="other"),
        ]
        groups.append((source, targets))
    overflowed = set()
    resolve = matcher._resolve_by_canonical_form

    def spy(n, sources, target_ints, overflow):
        overflowed.update((sources[k].bits, target_ints[k]) for k in overflow)
        return resolve(n, sources, target_ints, overflow)

    with mock.patch.object(matcher, "_resolve_by_canonical_form", spy):
        rows = find_npn_transforms_grouped(groups)
    for (source, targets), row in zip(groups, rows):
        for target, witness in zip(targets, row):
            if (source.bits, target.bits) not in overflowed:
                assert witness == find_npn_transform_scalar(source, target)
