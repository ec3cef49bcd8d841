"""Cut tables from one simulation per circuit: parity with the cone walk.

:func:`repro.aig.cuts.enumerate_cuts` picks leaf sets on int masks, then
computes every kept cut's table in one level-synchronous numpy
simulation.  These tests hold the tables to
:func:`repro.aig.simulate.cone_function`, the reference oracle, on
single- and multi-word cuts and across simulation block boundaries, and
pin the leaf lists and tables of the suite circuits.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import cuts as cuts_module
from repro.aig.builders import multiplier, random_control
from repro.aig.cuts import enumerate_cuts, iter_cut_functions
from repro.aig.simulate import cone_function, cut_function
from repro.workloads.epfl import epfl_like_suite

#: sha256 prefix of every AND node's k=6 leaf lists (``max_cuts=16``),
#: recorded from the enumeration that computed tables by a cone walk per
#: cut.  How tables are computed must not change which cuts are kept.
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


#: The same leaf-list digest at ``(k=8, max_cuts=16)`` and at
#: ``(k=4, max_cuts=4)``, and a digest of every ``(root, leaves,
#: function)`` triple at k=6 and k=8 (``max_cuts=16``), all recorded from
#: the enumeration that built each table by merging its fanin cuts'
#: tables.
SUITE_K8_LEAF_DIGESTS = {
    "adder": "3509945c1b009402",
    "arbiter": "93647253c2a10979",
    "barrel_shifter": "733f067d848f513a",
    "cla": "0ffa0b8b149e5b54",
    "comparator": "421fdea6f692a396",
    "ctrl": "600cfea35d7a3b60",
    "dec": "c623b9cd8547cdae",
    "div": "2aee9080787bbc58",
    "i2c_like": "388710ef281b8c68",
    "max": "fc96d8760b4bcdc2",
    "multiplier": "5456448ebf87e754",
    "parity": "ca7a8e180f4cd5d5",
    "priority": "b60a0f79278b6700",
    "router_like": "bd8a4685e9a306c4",
    "sqrt": "a2700628ba52fd7e",
    "square": "b8601b38536c8513",
    "subtractor": "f94b1c0954ef0716",
    "voter": "7390b3052b7ae9bd",
}

SUITE_K4_M4_LEAF_DIGESTS = {
    "adder": "d797b8f26c303806",
    "arbiter": "9116769790a228e5",
    "barrel_shifter": "3879779207d5b5d9",
    "cla": "3bc43fa2628f7648",
    "comparator": "89647b040def5425",
    "ctrl": "e1800e44297d06bb",
    "dec": "c623b9cd8547cdae",
    "div": "4c81537231ba40b8",
    "i2c_like": "f160165dac94442a",
    "max": "43821935711e3a1f",
    "multiplier": "3e1cf8ec3510db69",
    "parity": "e0150218461933d8",
    "priority": "9ddbaf9632fe8105",
    "router_like": "177b800f1113fbbc",
    "sqrt": "3d818ada6da3d9e3",
    "square": "8c57938560c8f29d",
    "subtractor": "bfdc15b4267356b0",
    "voter": "dc277a69ef5ac71e",
}

SUITE_K6_TABLE_DIGESTS = {
    "adder": "8c94949003890203",
    "arbiter": "1901ace93a035d92",
    "barrel_shifter": "9f989cb5ae7f204a",
    "cla": "4ffca88334109c5e",
    "comparator": "a527ea327732f8f6",
    "ctrl": "9f08fbd8af23230b",
    "dec": "f3ead63eaa6f9212",
    "div": "4d647489b0d08af9",
    "i2c_like": "339442ff607d4e29",
    "max": "efb673b602e93d60",
    "multiplier": "d286371935f5e989",
    "parity": "8a8906e0d734ebed",
    "priority": "ea87abad89997e97",
    "router_like": "3c7ea4e1e1ae199b",
    "sqrt": "d5f0619485a66ba4",
    "square": "4687358b918f3c85",
    "subtractor": "93c7f3107950da53",
    "voter": "8166fd6658d45b25",
}

SUITE_K8_TABLE_DIGESTS = {
    "adder": "98d5a1c0f201ce03",
    "arbiter": "bbf2bbd35dfc30e6",
    "barrel_shifter": "5606e0e3c805c7c7",
    "cla": "19882789b42cdad7",
    "comparator": "cf0443679ed33224",
    "ctrl": "76512dd10c6df7eb",
    "dec": "f3ead63eaa6f9212",
    "div": "80738915a1b24493",
    "i2c_like": "dee002827441ecb1",
    "max": "e4e539dbce9c6239",
    "multiplier": "6874ccc5b67059da",
    "parity": "c4148cf0751a14d6",
    "priority": "1d4e2bdeebbf4da3",
    "router_like": "43651518576faf07",
    "sqrt": "9b004f098379932c",
    "square": "ce47c18a76417dec",
    "subtractor": "6a3296242fa14419",
    "voter": "79f838e1cf3c1c3d",
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


def _table_digest(aig, cuts) -> str:
    text = ";".join(
        f"{variable}:" + ",".join(map(str, cut.leaves)) + f":{cut.function:x}"
        for variable in aig.and_variables()
        for cut in cuts[variable]
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "k, max_cuts, digest, pins",
    [
        (6, 16, _leaf_digest, SUITE_K6_LEAF_DIGESTS),
        (8, 16, _leaf_digest, SUITE_K8_LEAF_DIGESTS),
        (4, 4, _leaf_digest, SUITE_K4_M4_LEAF_DIGESTS),
        (6, 16, _table_digest, SUITE_K6_TABLE_DIGESTS),
        (8, 16, _table_digest, SUITE_K8_TABLE_DIGESTS),
    ],
    ids=["k6-leaves", "k8-leaves", "k4-m4-leaves", "k6-tables", "k8-tables"],
)
def test_suite_selection_and_tables_match_the_pins(suite, k, max_cuts, digest, pins):
    assert sorted(suite) == sorted(pins)
    for name, aig in suite.items():
        cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
        assert digest(aig, cuts) == pins[name], name


@pytest.mark.parametrize("k", [6, 7, 8])
def test_suite_tables_match_the_cone_walk(suite, k):
    """k=7 and k=8 include two- and four-word cuts."""
    for name, aig in suite.items():
        cuts = enumerate_cuts(aig, k=k)
        for variable in aig.and_variables():
            for cut in cuts[variable]:
                expected = cone_function(aig, 2 * variable, cut.leaves)
                assert cut.function == expected.bits, (name, variable, cut)
        streamed = [
            (variable, cut.leaves, tt.n, tt.bits)
            for variable, cut, tt in iter_cut_functions(aig, range(1, k + 1))
        ]
        assert streamed == [
            (variable, cut.leaves, cut.size, cut.function)
            for variable in aig.and_variables()
            for cut in cuts[variable]
        ]


def test_union_leaf_inside_a_fanin_cone_is_a_free_variable(suite):
    """``square``, node 68, cut (1, 2, 9, 11, 42, 45): leaf 9 is the AND of
    leaves 1 and 2, so it lies inside the cone of another leaf set.  The
    table must treat it as a free variable, as the cone walk does, not as
    ``x0 & x1``."""
    aig = suite["square"]
    leaves = (1, 2, 9, 11, 42, 45)
    assert aig.fanins(9) == (2, 4)
    (cut,) = [c for c in enumerate_cuts(aig, k=6)[68] if c.leaves == leaves]
    assert cut.function == 0xFFFF0FFFFFFF0F0F
    assert cut_function(aig, 68, leaves).bits == cut.function
    # Tying table variable 2 (leaf 9) to ``x0 & x1`` changes the table.
    tied = sum(
        (cut.function >> (m & ~4 | (m & m >> 1 & 1) << 2) & 1) << m
        for m in range(64)
    )
    assert tied != cut.function


def test_ten_leaf_tables_span_sixteen_words():
    aig = multiplier(3)
    cuts = enumerate_cuts(aig, k=10)
    sizes = set()
    for variable in aig.and_variables():
        for cut in cuts[variable]:
            sizes.add(cut.size)
            assert cut.function == cut_function(aig, variable, cut.leaves).bits
    assert max(sizes) == 10


def test_one_column_blocks_give_the_same_tables(suite, monkeypatch):
    """Block boundaries are invisible: a word budget that fits a single
    cut column per block gives byte-identical cuts and tables."""
    widths = []
    simulate_block = cuts_module._simulate_block
    monkeypatch.setattr(
        cuts_module,
        "_simulate_block",
        lambda net, roots, *args: widths.append(len(roots))
        or simulate_block(net, roots, *args),
    )

    def run():
        widths.clear()
        return [
            [(c.leaves, c.function) for v in aig.and_variables() for c in cuts[v]]
            for aig in (suite["priority"], suite["cla"], multiplier(3))
            for cuts in [enumerate_cuts(aig, k=8)]
        ]

    default = run()
    assert max(widths) > 1
    monkeypatch.setattr(cuts_module, "_BLOCK_WORDS", 1)
    assert run() == default
    assert set(widths) == {1}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    inputs=st.integers(min_value=2, max_value=9),
    gates=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=3, max_value=8),
    max_cuts=st.integers(min_value=1, max_value=16),
)
def test_random_control_tables_match_the_cone_walk(seed, inputs, gates, k, max_cuts):
    aig = random_control(inputs=inputs, gates=gates, seed=seed)
    cuts = enumerate_cuts(aig, k=k, max_cuts=max_cuts)
    for variable in aig.and_variables():
        for cut in cuts[variable]:
            assert cut.size <= k
            assert cut.function == cut_function(aig, variable, cut.leaves).bits
