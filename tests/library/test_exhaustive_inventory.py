"""The complete NPN class inventories of arities 0-4.

An exhaustive library is built from every function of its arity, so each
entry's ``size`` is its class's orbit size and ``group_order(n) // size``
its stabilizer order.  These tests check that inventory against the
known class counts, the exact canonical form and direct orbit
enumeration.
"""

from collections import Counter

import numpy as np
import pytest

from repro import kernels
from repro.canonical import canonical_class_id, canonical_forms
from repro.core.transforms import all_transforms, group_order
from repro.core.truth_table import TruthTable
from repro.library import build_exhaustive_library
from repro.workloads.library_corpus import exhaustive_tables

#: NPN class counts of all n-input functions (222 at n = 4 is classical).
KNOWN_NPN_CLASSES = {0: 1, 1: 2, 2: 4, 3: 14, 4: 222}

ARITIES = sorted(KNOWN_NPN_CLASSES)


@pytest.fixture(scope="module")
def libraries():
    """Exhaustive libraries by arity, built once for the module."""
    return {n: build_exhaustive_library(n) for n in ARITIES}


@pytest.mark.parametrize("n", ARITIES)
def test_class_count_is_known(libraries, n):
    assert libraries[n].num_classes == KNOWN_NPN_CLASSES[n]
    assert libraries[n].arities() == (n,)


@pytest.mark.parametrize("n", ARITIES)
def test_orbit_sizes_sum_to_the_function_space(libraries, n):
    assert sum(e.size for e in libraries[n].entries()) == 1 << (1 << n)


@pytest.mark.parametrize("n", ARITIES)
def test_orbit_size_divides_group_order(libraries, n):
    """Orbit-stabilizer: every orbit size divides ``2^(n+1) * n!``."""
    for entry in libraries[n].entries():
        assert group_order(n) % entry.size == 0, entry.class_id


@pytest.mark.parametrize("n", ARITIES)
def test_representatives_are_canonical_fixpoints(libraries, n):
    entries = libraries[n].entries()
    reps = [e.representative for e in entries]
    assert canonical_forms(reps, n) == reps
    assert [e.class_id for e in entries] == [canonical_class_id(r) for r in reps]


@pytest.mark.parametrize("n", ARITIES)
def test_sizes_count_the_functions_of_each_form(libraries, n):
    """Canonicalizing every function reproduces the entries and sizes."""
    counts = Counter(canonical_forms(list(exhaustive_tables(n)), n))
    assert counts == {e.representative: e.size for e in libraries[n].entries()}


@pytest.mark.parametrize("n", ARITIES)
def test_complement_shares_the_class(libraries, n):
    reps = [e.representative for e in libraries[n].entries()]
    assert canonical_forms([~rep for rep in reps], n) == reps


@pytest.mark.parametrize("n", ARITIES)
def test_sizes_match_orbit_enumeration(libraries, n):
    """Each size equals the number of distinct images under the group."""
    for entry in libraries[n].entries():
        images = kernels.orbit(entry.representative)
        assert len(images) == group_order(n)
        assert len(np.unique(images)) == entry.size, entry.class_id


@pytest.mark.parametrize(
    "binary, orbit",
    [
        ("00", 2),  # constants: {0, 1}
        ("0110", 2),  # XOR2: {xor, xnor}
        ("1000", 8),  # AND2: the eight and-like gates
        ("10000000", 16),  # AND3
        ("01101001", 2),  # XOR3
        ("11101000", 8),  # MAJ3
    ],
)
def test_known_orbit_sizes(libraries, binary, orbit):
    tt = TruthTable.from_binary(binary)
    entry = libraries[tt.n].lookup(tt)
    assert entry.size == orbit
    # The stabilizer is the group's share that fixes the function.
    fixing = sum(tt.apply(t) == tt for t in all_transforms(tt.n))
    assert fixing == group_order(tt.n) // orbit
