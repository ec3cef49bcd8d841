"""Exactness of the canonical form: parity with the enumeration oracle.

One rule at every arity — the canonical representative is the orbit
minimum.  The kernel path (n <= 6) and the influence-guided scalar
search must both be byte-identical to
:func:`repro.baselines.exact_enum.exact_npn_canonical`:

* exhaustively at n <= 3 (every one of the 2^(2^n) functions, both
  paths);
* over the full n = 4 space via the batched kernel (unique canonical
  forms must count exactly the 222 classical NPN classes), with a
  strided oracle slice;
* on random samples at n = 4..5 for the scalar path;
* at n = 7 (beyond the kernels) via orbit invariance + witness checks,
  where no enumeration oracle is feasible;
* on hypothesis-drawn mixed-arity batches through the one front door,
  transforms included.
"""

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.aig.builders import ripple_adder
from repro.baselines.exact_enum import exact_npn_canonical
from repro.baselines.matcher import find_npn_transform
from repro.canonical import form as form_module
from repro.canonical.form import (
    canonical_class_id,
    canonical_form,
    canonical_forms,
    canonical_forms_with_transforms,
    checked_witnesses,
    influence_canonical_scalar,
)
from repro.core.transforms import TransformColumns, random_transform
from repro.core.truth_table import TruthTable
from repro.workloads.extraction import extract_cut_functions
from tests.strategies import truth_tables

#: NPN class counts over all n-variable functions (OEIS A000370).
KNOWN_NPN_CLASSES = {0: 1, 1: 2, 2: 4, 3: 14, 4: 222}

SEARCH_KINDS = ("permutations", "phase_candidates", "phases_materialized")


def search_steps(run) -> dict:
    """``repro_canonical_search_steps_total`` deltas around ``run()``."""
    steps = obs.registry().get("repro_canonical_search_steps_total")
    before = {kind: steps.value(kind=kind) for kind in SEARCH_KINDS}
    run()
    return {kind: steps.value(kind=kind) - before[kind] for kind in SEARCH_KINDS}


class TestSmallArityParity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_scalar_and_kernel_match_oracle(self, n):
        tables = [TruthTable(n, bits) for bits in range(1 << (1 << n))]
        kernel = canonical_forms(tables, n)
        for tt, via_kernel in zip(tables, kernel):
            oracle = exact_npn_canonical(tt).representative
            assert via_kernel == oracle
            assert influence_canonical_scalar(tt) == oracle

    def test_exhaustive_n3_class_count(self):
        tables = [TruthTable(3, bits) for bits in range(256)]
        forms = canonical_forms(tables, 3)
        assert len(set(forms)) == KNOWN_NPN_CLASSES[3]

    def test_full_n4_space_has_222_classes(self):
        forms = canonical_forms(range(1 << 16), 4)
        assert len(set(forms)) == KNOWN_NPN_CLASSES[4]
        # Idempotence over the whole space: a canonical form is its own
        # canonical form.
        unique = sorted({form.bits for form in forms})
        again = canonical_forms(unique, 4)
        assert [form.bits for form in again] == unique

    def test_strided_n4_oracle_slice(self):
        for bits in range(0, 1 << 16, 257):
            tt = TruthTable(4, bits)
            assert (
                canonical_form(tt)
                == exact_npn_canonical(tt).representative
            )


class TestScalarSearch:
    @pytest.mark.parametrize("n", [4, 5])
    def test_sampled_scalar_matches_kernel(self, n):
        rng = random.Random(50 + n)
        for _ in range(12):
            tt = TruthTable.random(n, rng)
            assert influence_canonical_scalar(tt) == canonical_form(tt)

    def test_stats_counters_accumulate(self):
        tt = TruthTable.random(5, random.Random(51))
        stats = search_steps(lambda: influence_canonical_scalar(tt))
        assert stats["permutations"] == 2 * 120  # both output phases
        assert stats["phase_candidates"] == 2 * 120 * 32
        assert 0 < stats["phases_materialized"] <= stats["phase_candidates"]

    def test_n7_top_word_bound_prunes(self):
        # Beyond the kernels: the incumbent's most-significant word must
        # reject almost every phase candidate without materializing it.
        tt = TruthTable.random(7, random.Random(52))
        found = []
        stats = search_steps(lambda: found.append(influence_canonical_scalar(tt)))
        rep = found[0]
        assert stats["phases_materialized"] < stats["phase_candidates"] // 100
        # Membership + minimality evidence: the rep is in the orbit and
        # no smaller than any sampled orbit member.
        assert find_npn_transform(tt, rep) is not None
        assert rep.bits <= tt.bits

    def test_n7_orbit_invariance(self):
        rng = random.Random(53)
        tt = TruthTable.random(7, rng)
        rep = canonical_form(tt)
        image = tt.apply(random_transform(7, rng))
        assert canonical_form(image) == rep

    def test_n0_constant_orbit(self):
        assert influence_canonical_scalar(TruthTable(0, 1)) == TruthTable(0, 0)
        assert canonical_form(TruthTable(0, 0)) == TruthTable(0, 0)


class TestBatchApi:
    def test_empty_batch(self):
        assert canonical_forms([], 5) == []

    def test_mixed_arities_keep_input_order(self):
        tables = [TruthTable(3, 0xE8), TruthTable(4, 0x6AC5), TruthTable(3, 0x17)]
        forms = canonical_forms(tables)
        assert forms == [canonical_form(tt) for tt in tables]
        assert [form.n for form in forms] == [3, 4, 3]
        assert forms[0] == forms[2]  # majority and its complement

    def test_raw_ints_need_n(self):
        with pytest.raises(ValueError, match="pass n"):
            canonical_forms([1, 2, 3])

    def test_scalar_batch_dedups_by_bits(self):
        tt = TruthTable.random(7, random.Random(54))
        forms = []
        stats = search_steps(lambda: forms.extend(canonical_forms([tt, tt, tt])))
        assert forms[0] == forms[1] == forms[2]
        assert stats["permutations"] == 2 * 5040  # one search, not three


#: A mixed batch beyond the kernels: two n = 7 tables (one repeated, so
#: the scalar path's dedup hands both copies the same transform) between
#: kernel-path tables.
_N7 = TruthTable(7, int("96e1c3a5" * 4, 16))
_N7_OTHER = TruthTable(7, int("0f1e2d3c4b5a6978" * 2, 16))


class TestFrontDoor:
    """One call for any arity mix: forms, input order and transforms."""

    @settings(max_examples=40)
    @given(st.lists(truth_tables(min_n=0, max_n=6), min_size=1, max_size=8))
    @example([TruthTable(3, 0xE8), _N7, TruthTable(0, 1), _N7, TruthTable(6, 1)])
    @example([_N7_OTHER, TruthTable(5, 0x3DE88452)])
    def test_mixed_arity_batches(self, tables):
        forms, transforms = canonical_forms_with_transforms(tables)
        assert forms == canonical_forms(tables)
        assert isinstance(transforms, TransformColumns)
        assert transforms.ns.tolist() == [tt.n for tt in tables]
        witnesses = checked_witnesses(forms, transforms, tables)
        for tt, form, transform, witness in zip(
            tables, forms, transforms, witnesses
        ):
            assert form.n == tt.n  # output order follows input order
            if tt.n <= 5:
                assert form == exact_npn_canonical(tt).representative
            if tt.n <= 6:  # above, the form *is* the scalar search's
                assert form == influence_canonical_scalar(tt)
            assert tt.apply(transform) == form
            assert witness == transform.inverse()
            assert form.apply(witness) == tt

    def test_wrong_kernel_transform_makes_checked_witnesses_raise(
        self, monkeypatch
    ):
        real = form_module.canonical_min_transforms

        def wrong(ints, n):
            minima, transforms = real(ints, n)
            return minima, TransformColumns(
                transforms.ns,
                transforms.perms,
                transforms.input_phases,
                1 - transforms.output_phases,
            )

        monkeypatch.setattr(form_module, "canonical_min_transforms", wrong)
        tt = TruthTable(4, 0x6AC5)
        forms, transforms = canonical_forms_with_transforms([tt])
        with pytest.raises(RuntimeError, match="canonicalizer bug"):
            checked_witnesses(forms, transforms, [tt])

    def test_checked_witnesses_check_a_mixed_arity_batch(self):
        rng = random.Random(71)
        tables = [TruthTable.random(n, rng) for n in (0, 3, 5, 6, 7, 5, 3)]
        forms, transforms = canonical_forms_with_transforms(tables)
        witnesses = checked_witnesses(forms, transforms, tables)
        assert list(witnesses) == [t.inverse() for t in transforms]
        for tt, form, witness in zip(tables, forms, witnesses):
            assert form.apply(witness) == tt

    @pytest.mark.parametrize("bad_row", [2, 4])
    def test_one_wrong_row_makes_checked_witnesses_raise(self, bad_row):
        """One corrupted transform among good ones — at a kernel arity
        (row 2, n = 5) or above it (row 4, n = 7) — fails the batch."""
        rng = random.Random(72)
        tables = [TruthTable.random(n, rng) for n in (4, 5, 5, 6, 7)]
        forms, transforms = canonical_forms_with_transforms(tables)
        outputs = transforms.output_phases.copy()
        outputs[bad_row] ^= 1
        corrupted = TransformColumns(
            transforms.ns, transforms.perms, transforms.input_phases, outputs
        )
        with pytest.raises(RuntimeError, match="canonicalizer bug"):
            checked_witnesses(forms, corrupted, tables)


class TestClassIds:
    def test_id_is_pure_function_of_rep(self):
        rep = canonical_form(TruthTable.majority(3))
        assert canonical_class_id(rep) == "n3-c17"

    def test_distinct_reps_get_distinct_ids(self):
        rng = random.Random(55)
        tables = [TruthTable.random(n, rng) for n in (3, 5, 6) for _ in range(20)]
        # The same low bits at three arities: the arity keeps them apart.
        tables += [TruthTable(n, 0x17) for n in (3, 4, 5)]
        reps = set(canonical_forms(tables))
        ids = {canonical_class_id(rep) for rep in reps}
        assert len(ids) == len(reps)


class TestClassDistribution:
    """Counting canonical forms is a function set's class distribution."""

    def test_orbit_members_count_together(self):
        maj = TruthTable.majority(3)
        counts = Counter(canonical_forms([maj, ~maj, maj.flip_input(0)]))
        assert counts == {canonical_form(maj): 3}

    def test_circuit_cuts_concentrate_on_few_classes(self):
        cuts = extract_cut_functions(ripple_adder(6), sizes=[3])[3]
        counts = Counter(canonical_forms(cuts))
        assert sum(counts.values()) == len(cuts)
        # The adder's cone logic concentrates on few classes.
        assert len(counts) < len(cuts)
        for tt in cuts:
            assert canonical_form(tt) in counts
