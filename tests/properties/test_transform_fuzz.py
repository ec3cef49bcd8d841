"""Property fuzz for the NPN transform group and the witness matcher.

Ported from seeded loops to hypothesis ``@given`` (see
:mod:`tests.strategies`): the strategies draw the arity (3..6) together
with tables and transforms, so one property covers every supported
single-word arity and a failure shrinks to the smallest arity and
simplest table/transform that still breaks it.

The three contracts everything above :mod:`repro.core.transforms`
quietly relies on:

* group structure — ``compose``/``inverse`` round-trip to the identity
  and ``compose`` agrees with function composition on tables;
* action coherence — ``apply_table`` agrees with the index-by-index
  semantics of ``apply_index`` on every minterm;
* witness completeness — ``find_npn_transform(f, t(f))`` always returns
  a transform that verifiably reproduces the image.

Runs are derandomized under the default ``ci`` profile (see
``tests/conftest.py``), so a failure reproduces byte-for-byte.
"""

import pytest
from hypothesis import given

from repro.baselines.matcher import find_npn_transform
from repro.core.transforms import NPNTransform
from tests.strategies import npn_transforms, tables_with_transforms


class TestGroupLaws:
    @given(npn_transforms())
    def test_compose_inverse_round_trips_to_identity(self, t):
        assert t.compose(t.inverse()).is_identity
        assert t.inverse().compose(t).is_identity
        assert t.inverse().inverse() == t

    @given(tables_with_transforms(transforms=1))
    def test_inverse_undoes_the_action_on_tables(self, case):
        f, (t,) = case
        assert f.apply(t).apply(t.inverse()) == f

    @given(tables_with_transforms(transforms=2))
    def test_compose_agrees_with_sequential_application(self, case):
        f, (t, u) = case
        assert f.apply(u).apply(t) == f.apply(t.compose(u))

    @given(tables_with_transforms(transforms=3))
    def test_associativity_on_tables(self, case):
        f, (a, b, c) = case
        assert f.apply(a.compose(b).compose(c)) == f.apply(
            a.compose(b.compose(c))
        )


class TestActionCoherence:
    @given(tables_with_transforms(transforms=1))
    def test_apply_table_agrees_with_apply_index(self, case):
        """Bit ``m`` of ``t(f)`` is ``output_phase ^ f(apply_index(m))``."""
        f, (t,) = case
        g = f.apply(t)
        for index in range(1 << f.n):
            expected = t.output_phase ^ f.evaluate(t.apply_index(index))
            assert g.evaluate(index) == expected

    @given(npn_transforms())
    def test_apply_index_is_a_bijection(self, t):
        images = {t.apply_index(index) for index in range(1 << t.n)}
        assert images == set(range(1 << t.n))


class TestWitnessRecovery:
    @given(tables_with_transforms(transforms=1))
    def test_matcher_always_returns_a_verified_witness(self, case):
        f, (t,) = case
        image = f.apply(t)
        witness = find_npn_transform(f, image)
        assert witness is not None
        assert f.apply(witness) == image

    @given(tables_with_transforms(transforms=1))
    def test_witness_inverse_maps_back(self, case):
        f, (t,) = case
        image = f.apply(t)
        witness = find_npn_transform(f, image)
        assert image.apply(witness.inverse()) == f


@given(npn_transforms())
def test_as_dict_round_trip(t):
    assert NPNTransform.from_dict(t.as_dict()) == t


def test_from_dict_rejects_invalid_payloads():
    with pytest.raises(ValueError):
        NPNTransform.from_dict({"perm": [0, 0, 1]})
    with pytest.raises(ValueError):
        NPNTransform.from_dict({"perm": [0, 1], "input_phase": 4})
    with pytest.raises(ValueError):
        NPNTransform.from_dict({"perm": [0, 1], "output_phase": 2})


@pytest.mark.parametrize(
    "payload",
    [
        {"perm": [1, 0], "input_phase": 1.9},
        {"perm": [1, 0], "input_phase": True},
        {"perm": [1, 0], "output_phase": "1"},
        {"perm": [True, False]},
    ],
)
def test_from_dict_rejects_fields_that_are_not_ints(payload):
    """A served witness is outside input: a float, bool or string field
    is refused, not rounded or coerced."""
    with pytest.raises(ValueError, match="must be integers"):
        NPNTransform.from_dict(payload)
