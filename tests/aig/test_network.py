"""Tests for the AIG data structure."""

import pytest

from repro.aig.network import AIG
from repro.aig.simulate import simulate


class TestConstruction:
    def test_inputs_and_literals(self):
        aig = AIG()
        a = aig.add_input("a")
        b = aig.add_input("b")
        assert (a, b) == (2, 4)
        assert aig.num_inputs == 2
        assert aig.input_names() == ("a", "b")

    def test_add_and_creates_node(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        lit = aig.add_and(a, b)
        assert lit == 6
        assert aig.num_ands == 1
        assert aig.fanins(3) == (2, 4)

    def test_constant_rules(self):
        aig = AIG()
        a = aig.add_input()
        assert aig.add_and(a, 0) == 0  # x & false
        assert aig.add_and(a, 1) == a  # x & true
        assert aig.add_and(a, a) == a  # idempotence
        assert aig.add_and(a, a ^ 1) == 0  # x & ~x
        assert aig.num_ands == 0

    def test_structural_hashing(self):
        aig = AIG()
        a, b = aig.add_inputs(2)
        first = aig.add_and(a, b)
        second = aig.add_and(b, a)  # commuted
        assert first == second
        assert aig.num_ands == 1

    def test_rejects_unknown_literal(self):
        aig = AIG()
        aig.add_input()
        with pytest.raises(ValueError):
            aig.add_and(2, 99)
        with pytest.raises(ValueError):
            aig.add_output(42)

    def test_fanins_rejects_non_and(self):
        aig = AIG()
        aig.add_input()
        with pytest.raises(ValueError):
            aig.fanins(1)


class TestDerivedGates:
    def evaluate_gate(self, build, table):
        """Build a 2-input gate and compare against its truth table."""
        aig = AIG()
        a, b = aig.add_inputs(2)
        aig.add_output(build(aig, a, b))
        for x in (0, 1):
            for y in (0, 1):
                assert simulate(aig, [x, y]) == [table[(y << 1) | x]]

    def test_or(self):
        self.evaluate_gate(lambda g, a, b: g.add_or(a, b), [0, 1, 1, 1])

    def test_xor(self):
        self.evaluate_gate(lambda g, a, b: g.add_xor(a, b), [0, 1, 1, 0])

    def test_xnor(self):
        self.evaluate_gate(lambda g, a, b: g.add_xnor(a, b), [1, 0, 0, 1])

    def test_mux(self):
        aig = AIG()
        s, t, f = aig.add_inputs(3)
        aig.add_output(aig.add_mux(s, t, f))
        for sel in (0, 1):
            for tv in (0, 1):
                for fv in (0, 1):
                    expected = tv if sel else fv
                    assert simulate(aig, [sel, tv, fv]) == [expected]

    def test_maj(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        aig.add_output(aig.add_maj(a, b, c))
        for m in range(8):
            bits = [(m >> k) & 1 for k in range(3)]
            assert simulate(aig, bits) == [int(sum(bits) >= 2)]

    def test_trees(self):
        aig = AIG()
        xs = aig.add_inputs(5)
        aig.add_output(aig.add_and_tree(xs), "and")
        aig.add_output(aig.add_or_tree(xs), "or")
        aig.add_output(aig.add_xor_tree(xs), "xor")
        for m in range(32):
            bits = [(m >> k) & 1 for k in range(5)]
            expected = [int(all(bits)), int(any(bits)), sum(bits) % 2]
            assert simulate(aig, bits) == expected

    def test_empty_trees(self):
        aig = AIG()
        assert aig.add_and_tree([]) == 1
        assert aig.add_or_tree([]) == 0
        assert aig.add_xor_tree([]) == 0


class TestInspection:
    def build_sample(self):
        aig = AIG()
        a, b, c = aig.add_inputs(3)
        ab = aig.add_and(a, b)
        abc = aig.add_and(ab, c)
        aig.add_output(abc, "f")
        return aig

    def test_counts(self):
        aig = self.build_sample()
        assert aig.num_vars == 6
        assert list(aig.input_variables()) == [1, 2, 3]
        assert list(aig.and_variables()) == [4, 5]
        assert aig.is_input(2) and not aig.is_input(4)

    def test_levels_and_depth(self):
        aig = self.build_sample()
        levels = aig.levels()
        assert levels[1] == 0
        assert levels[4] == 1
        assert levels[5] == 2
        assert aig.depth() == 2
        assert AIG().depth() == 0
