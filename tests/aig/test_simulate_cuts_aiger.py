"""Tests for simulation, cut enumeration, cut functions, and AIGER I/O."""

import random

import pytest

from repro.aig import aiger, builders
from repro.aig.cuts import Cut, cut_statistics, enumerate_cuts
from repro.aig.network import AIG
from repro.aig.simulate import cone_function, cut_function, simulate, simulate_words
from repro.core.truth_table import TruthTable


def sample_aig():
    aig = AIG()
    a, b, c = aig.add_inputs(3)
    ab = aig.add_and(a, b)
    f = aig.add_or(ab, c)
    aig.add_output(f, "f")
    return aig, (a, b, c, ab, f)


class TestSimulation:
    def test_simulate_single_patterns(self):
        aig, _ = sample_aig()
        for m in range(8):
            bits = [(m >> k) & 1 for k in range(3)]
            expected = int((bits[0] and bits[1]) or bits[2])
            assert simulate(aig, bits) == [expected]

    def test_simulate_words_parallel(self):
        aig, (a, b, c, ab, f) = sample_aig()
        from repro.core import bitops

        words = simulate_words(
            aig, [bitops.var_mask(3, k) for k in range(3)], width=8
        )
        assert words[f] == TruthTable.from_function(
            3, lambda x, y, z: (x & y) | z
        ).bits
        assert words[f ^ 1] == words[f] ^ 0xFF

    def test_simulate_validates_arity(self):
        aig, _ = sample_aig()
        with pytest.raises(ValueError):
            simulate(aig, [0, 1])


class TestConeFunction:
    def test_cone_over_inputs(self):
        aig, (a, b, c, ab, f) = sample_aig()
        tt = cone_function(aig, f, [1, 2, 3])
        assert tt == TruthTable.from_function(3, lambda x, y, z: (x & y) | z)

    def test_cone_over_internal_leaf(self):
        aig, (a, b, c, ab, f) = sample_aig()
        # Treat the AND node (var 4) and input c (var 3) as leaves.
        tt = cone_function(aig, f, [ab // 2, c // 2])
        assert tt == TruthTable.from_function(2, lambda u, v: u | v)

    def test_cone_respects_leaf_order(self):
        aig, (a, b, c, ab, f) = sample_aig()
        forward = cone_function(aig, f, [1, 2, 3])
        swapped = cone_function(aig, f, [3, 2, 1])
        assert swapped == forward.permute((2, 1, 0))

    def test_cone_escape_raises(self):
        aig, (a, b, c, ab, f) = sample_aig()
        with pytest.raises(ValueError):
            cone_function(aig, f, [ab // 2])  # path through c escapes

    def test_complemented_root(self):
        aig, (a, b, c, ab, f) = sample_aig()
        tt = cone_function(aig, f ^ 1, [1, 2, 3])
        assert tt == ~TruthTable.from_function(3, lambda x, y, z: (x & y) | z)


class TestCutEnumeration:
    def test_cut_dataclass(self):
        cut = Cut.of((3, 1, 2))
        assert cut.leaves == (3, 1, 2)  # `of` does not sort; callers do
        assert Cut.of((1,)).dominates(Cut.of((1, 2)))
        assert not Cut.of((1, 3)).dominates(Cut.of((1, 2)))

    def test_masks_are_exact_for_leaves_64_apart(self):
        """1 and 65 shared a bit of the old 64-bit Bloom signature."""
        one, far = Cut.of((1,)), Cut.of((65,))
        assert one.mask == 1 << 1 and far.mask == 1 << 65
        assert not one.dominates(far)
        assert not far.dominates(one)
        assert one.dominates(Cut.of((1, 65)))
        assert not Cut.of((1, 65)).dominates(Cut.of((1, 129)))

    def test_inputs_have_trivial_cut(self):
        aig, _ = sample_aig()
        cuts = enumerate_cuts(aig, k=3)
        assert cuts[1] == [Cut.of((1,))]

    def test_every_cut_is_a_cut(self):
        """Every enumerated cut yields a well-defined cone function."""
        aig = builders.ripple_adder(4)
        cuts = enumerate_cuts(aig, k=5)
        for variable in aig.and_variables():
            for cut in cuts[variable]:
                tt = cut_function(aig, variable, cut.leaves)
                assert tt.n == cut.size

    def test_cut_functions_match_brute_force(self):
        """Cut truth tables agree with direct whole-network simulation."""
        rng = random.Random(0)
        aig = builders.multiplier(3)
        cuts = enumerate_cuts(aig, k=4)
        inputs = list(aig.input_variables())
        for variable in list(aig.and_variables())[::5]:
            for cut in cuts[variable][:3]:
                if not all(leaf in inputs for leaf in cut.leaves):
                    continue
                tt = cut_function(aig, variable, cut.leaves)
                for _ in range(8):
                    stimulus = [rng.getrandbits(1) for _ in inputs]
                    words = simulate_words(aig, stimulus, width=1)
                    index = sum(
                        (stimulus[leaf - 1] & 1) << pos
                        for pos, leaf in enumerate(sorted(cut.leaves))
                    )
                    assert tt.evaluate(index) == (words[2 * variable] & 1)

    def test_max_cuts_cap(self):
        aig = builders.multiplier(4)
        capped = enumerate_cuts(aig, k=6, max_cuts=4)
        assert all(len(c) <= 5 for c in capped.values())  # 4 + trivial

    def test_no_dominated_cuts(self):
        aig = builders.ripple_adder(4)
        cuts = enumerate_cuts(aig, k=4)
        for cut_list in cuts.values():
            for i, a in enumerate(cut_list):
                for j, b in enumerate(cut_list):
                    if i != j and a.size < b.size:
                        assert not a.dominates(b)

    def test_statistics(self):
        aig = builders.ripple_adder(3)
        stats = cut_statistics(enumerate_cuts(aig, k=4))
        assert sum(stats.values()) > 0
        assert all(1 <= size <= 4 for size in stats)

    def test_k_validation(self):
        aig, _ = sample_aig()
        with pytest.raises(ValueError):
            enumerate_cuts(aig, k=0)


class TestAiger:
    def test_roundtrip_preserves_behaviour(self):
        rng = random.Random(1)
        for build in (
            lambda: builders.ripple_adder(4),
            lambda: builders.priority_encoder(5),
            lambda: builders.random_control(5, 30, seed=9),
        ):
            original = build()
            rebuilt = aiger.loads(aiger.dumps(original))
            assert rebuilt.num_inputs == original.num_inputs
            assert rebuilt.num_outputs == original.num_outputs
            for _ in range(10):
                stimulus = [rng.getrandbits(1) for _ in range(original.num_inputs)]
                assert simulate(rebuilt, stimulus) == simulate(original, stimulus)

    def test_roundtrip_preserves_names(self):
        original = builders.ripple_adder(2)
        rebuilt = aiger.loads(aiger.dumps(original))
        assert rebuilt.input_names() == original.input_names()
        assert [n for _, n in rebuilt.outputs()] == [
            n for _, n in original.outputs()
        ]

    def test_file_roundtrip(self, tmp_path):
        original = builders.decoder(3)
        path = tmp_path / "dec3.aag"
        aiger.write_aiger(original, path)
        rebuilt = aiger.read_aiger(path)
        assert rebuilt.name == "dec3"
        assert rebuilt.num_outputs == 8

    def test_parse_minimal(self):
        text = "aag 3 2 0 1 1\n2\n4\n6\n6 4 2\n"
        aig = aiger.loads(text)
        assert aig.num_inputs == 2
        assert simulate(aig, [1, 1]) == [1]
        assert simulate(aig, [1, 0]) == [0]

    def test_parse_rejects_latches(self):
        with pytest.raises(ValueError):
            aiger.loads("aag 1 0 1 0 0\n2 3\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            aiger.loads("not aiger")
        with pytest.raises(ValueError):
            aiger.loads("")

    def test_parse_rejects_forward_reference(self):
        text = "aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n"
        with pytest.raises(ValueError):
            aiger.loads(text)
