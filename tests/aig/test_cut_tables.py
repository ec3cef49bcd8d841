"""Cut enumeration carries each cut's table: parity with the cone walk.

:func:`repro.aig.cuts.enumerate_cuts` builds a merged cut's table from
its fanin cuts' tables and falls back to
:func:`repro.aig.simulate.cone_function` only where a union leaf lies
inside a fanin cut's cone.  These tests hold the carried tables to the
cone walk, the reference oracle, and pin the leaf lists themselves.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import cuts as cuts_module
from repro.aig.builders import random_control
from repro.aig.cuts import enumerate_cuts, iter_cut_functions
from repro.aig.simulate import cone_function, cut_function
from repro.workloads.epfl import epfl_like_suite

#: sha256 prefix of every AND node's k=6 leaf lists (``max_cuts=16``),
#: recorded from the enumeration that computed tables by a cone walk per
#: cut.  Carrying tables must not change which cuts are kept.
SUITE_K6_LEAF_DIGESTS = {
    "adder": "86f5f8cfbdeeff58",
    "arbiter": "b5d3488f83599156",
    "barrel_shifter": "c9fa4f22a6b6e10f",
    "cla": "906e863815608218",
    "comparator": "5640b92d5a689200",
    "ctrl": "1ea1db5b44f6e9d5",
    "dec": "c623b9cd8547cdae",
    "div": "2ce4b53909ceb7dd",
    "i2c_like": "ac4760e7e4121d3e",
    "max": "f2136e73570639bc",
    "multiplier": "393156bbfe73a0cb",
    "parity": "1887840e9e27851c",
    "priority": "679822a4e5dc9f24",
    "router_like": "5984e16f63db13ba",
    "sqrt": "a549cd43f10749a3",
    "square": "e43897dd76dcf24c",
    "subtractor": "a7f063e302da8dc5",
    "voter": "cbe73953eb2b4e2e",
}


@pytest.fixture(scope="module")
def suite():
    return epfl_like_suite()


def _leaf_digest(aig, cuts) -> str:
    text = ";".join(
        f"{variable}:" + ",".join(map(str, cut.leaves))
        for variable in aig.and_variables()
        for cut in cuts[variable]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_suite_k6_leaf_lists_and_tables_match_the_cone_walk(suite):
    assert sorted(suite) == sorted(SUITE_K6_LEAF_DIGESTS)
    for name, aig in suite.items():
        cuts = enumerate_cuts(aig, k=6)
        assert _leaf_digest(aig, cuts) == SUITE_K6_LEAF_DIGESTS[name], name
        for variable in aig.and_variables():
            for cut in cuts[variable]:
                expected = cone_function(aig, 2 * variable, cut.leaves)
                assert cut.function == expected.bits, (name, variable, cut)
        streamed = [
            (variable, cut.leaves, tt.n, tt.bits)
            for variable, cut, tt in iter_cut_functions(aig, range(1, 7))
        ]
        assert streamed == [
            (variable, cut.leaves, cut.size, cut.function)
            for variable in aig.and_variables()
            for cut in cuts[variable]
        ]


def test_union_leaf_inside_a_fanin_cone_takes_the_cone_walk(suite, monkeypatch):
    """``square``, node 68, cut (1, 2, 9, 11, 42, 45): a union leaf lies
    inside a fanin cut's cone, so the fanin merge and the cone walk give
    different tables and the carried one must be the cone walk's."""
    aig = suite["square"]
    leaves = (1, 2, 9, 11, 42, 45)
    walked = []
    cone_cut = cuts_module._cone_cut
    monkeypatch.setattr(
        cuts_module,
        "_cone_cut",
        lambda aig, root, leaves, mask: walked.append((root, leaves))
        or cone_cut(aig, root, leaves, mask),
    )
    cuts = enumerate_cuts(aig, k=6)
    (cut,) = [c for c in cuts[68] if c.leaves == leaves]
    assert (68, leaves) in walked
    assert cut.function == 0xFFFF0FFFFFFF0F0F
    assert cut_function(aig, 68, leaves).bits == cut.function

    f0, f1 = aig.fanins(68)
    mask = cut.mask
    pair = next(
        (a, b)
        for a in cuts[f0 >> 1]
        for b in cuts[f1 >> 1]
        if a.mask | b.mask == mask
    )
    assert (pair[0].interior | pair[1].interior) & mask
    merged = cuts_module._stretch(pair[0], leaves, f0 & 1) & cuts_module._stretch(
        pair[1], leaves, f1 & 1
    )
    assert merged == 0xFFFF0FFFFFFF0777


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    inputs=st.integers(min_value=2, max_value=9),
    gates=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=3, max_value=6),
    max_cuts=st.integers(min_value=1, max_value=16),
)
def test_random_control_tables_match_the_cone_walk(seed, inputs, gates, k, max_cuts):
    aig = random_control(inputs=inputs, gates=gates, seed=seed)
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    for variable in aig.and_variables():
        for cut in cuts[variable]:
            assert cut.size <= k
            assert cut.function == cut_function(aig, variable, cut.leaves).bits
