"""Heavier cross-module property tests (hypothesis).

Where the per-module suites check local contracts, these tie whole
subsystems together on randomly generated structures: random AIGs through
cut enumeration against brute-force simulation, and the agreement of all
four NPN-equivalence engines.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig.builders import random_control
from repro.aig.cuts import enumerate_cuts
from repro.aig.simulate import cut_function, simulate_words
from repro.baselines.exact_enum import exact_npn_canonical
from repro.baselines.guided import guided_exact_canonical
from repro.baselines.matcher import are_npn_equivalent
from repro.core.msv import compute_msv
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_aig_cut_functions_match_simulation(seed):
    """Every enumerated cut's truth table agrees with whole-AIG simulation."""
    rng = random.Random(seed)
    aig = random_control(inputs=5, gates=30, seed=seed)
    cuts = enumerate_cuts(aig, k=4, max_cuts=6)
    and_vars = list(aig.and_variables())
    if not and_vars:
        return
    variable = rng.choice(and_vars)
    for cut in cuts[variable][:4]:
        tt = cut_function(aig, variable, cut.leaves)
        for _ in range(6):
            stimulus = [rng.getrandbits(1) for _ in range(aig.num_inputs)]
            words = simulate_words(aig, stimulus, width=1)
            index = sum(
                (words[2 * leaf] & 1) << pos
                for pos, leaf in enumerate(sorted(cut.leaves))
            )
            assert tt.evaluate(index) == (words[2 * variable] & 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_equivalence_engines_agree(n, rng):
    """Enumeration, guided canonicalisation, and the matcher: one verdict."""
    a = TruthTable(n, rng.getrandbits(1 << n))
    b = TruthTable(n, rng.getrandbits(1 << n))
    by_enumeration = (
        exact_npn_canonical(a).representative
        == exact_npn_canonical(b).representative
    )
    by_guided = guided_exact_canonical(a) == guided_exact_canonical(b)
    by_matcher = are_npn_equivalent(a, b)
    assert by_enumeration == by_guided == by_matcher


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.randoms(use_true_random=False))
def test_msv_refines_never_contradicts_exact(n, rng):
    """Equal exact canonicals force equal MSVs (never-split, via canon)."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    image = tt.apply(random_transform(n, rng))
    assert guided_exact_canonical(tt) == guided_exact_canonical(image)
    assert compute_msv(tt) == compute_msv(image)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cut_functions_msv_stable_under_leaf_relabelling(seed):
    """Reversing a cut's leaf order permutes the function: same MSV."""
    aig = random_control(inputs=5, gates=25, seed=seed)
    cuts = enumerate_cuts(aig, k=4, max_cuts=4)
    for variable in list(aig.and_variables())[:5]:
        for cut in cuts[variable][:2]:
            if cut.size < 2:
                continue
            forward = cut_function(aig, variable, sorted(cut.leaves))
            backward = cut_function(aig, variable, sorted(cut.leaves, reverse=True))
            assert compute_msv(forward) == compute_msv(backward)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.randoms(use_true_random=False))
def test_support_invariant_under_npn(n, rng):
    """Essential-variable count is an NPN invariant."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    image = tt.apply(random_transform(n, rng))
    assert len(tt.support()) == len(image.support())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_msv_of_shrunken_degenerate_function(n, rng):
    """A don't-care variable keeps the support and NPN equivalence."""
    tt = TruthTable(n, rng.getrandbits(1 << n))
    widened = tt.extend(n + 1)
    assert widened.support() == tt.support()
    # And the widened copies of equivalent functions stay equivalent.
    image = tt.apply(random_transform(n, rng)).extend(n + 1)
    assert compute_msv(widened) == compute_msv(image)
