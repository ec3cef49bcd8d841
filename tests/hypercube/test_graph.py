"""Tests for the hypercube graph view and automorphism NPN oracle."""

import random

import pytest

from repro.baselines.matcher import are_npn_equivalent
from repro.core.transforms import random_transform
from repro.core.truth_table import TruthTable
from repro.hypercube.graph import (
    hypercube_graph,
    induced_subgraph,
    npn_equivalent_by_automorphism,
)


class TestHypercube:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_graph_shape(self, n):
        graph = hypercube_graph(n)
        assert graph.number_of_nodes() == 1 << n
        assert graph.number_of_edges() == n * (1 << (n - 1))
        degrees = {d for __, d in graph.degree()}
        assert degrees == {n}

    def test_induced_subgraph_majority(self):
        """Fig. 1a: MAJ3's induced subgraph is a star around 111."""
        graph = induced_subgraph(TruthTable.majority(3))
        assert sorted(graph.nodes) == [3, 5, 6, 7]
        assert graph.number_of_edges() == 3
        assert dict(graph.degree())[7] == 3

    def test_figure1_isomorphism_claims(self):
        """Fig. 1: f1 ~ f2 have isomorphic induced subgraphs; f3 does not."""
        import networkx as nx

        f1 = TruthTable.majority(3)
        f2 = f1.apply(random_transform(3, random.Random(0)))
        f3 = TruthTable.projection(3, 2)
        assert nx.is_isomorphic(induced_subgraph(f1), induced_subgraph(f2))
        assert not nx.is_isomorphic(induced_subgraph(f1), induced_subgraph(f3))


class TestAutomorphismOracle:
    def test_equivalent_pairs(self):
        rng = random.Random(1)
        for _ in range(5):
            tt = TruthTable.random(3, rng)
            image = tt.apply(random_transform(3, rng))
            assert npn_equivalent_by_automorphism(tt, image)

    def test_output_negation_detected(self):
        tt = TruthTable.from_function(3, lambda a, b, c: a & (b | c))
        assert npn_equivalent_by_automorphism(tt, ~tt)

    def test_nonequivalent(self):
        maj = TruthTable.majority(3)
        xor3 = TruthTable.from_function(3, lambda a, b, c: a ^ b ^ c)
        assert not npn_equivalent_by_automorphism(maj, xor3)

    def test_arity_mismatch(self):
        assert not npn_equivalent_by_automorphism(
            TruthTable(2, 6), TruthTable(3, 6)
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_matcher(self, n):
        """Graph oracle and truth-table matcher give identical verdicts."""
        rng = random.Random(n * 7)
        for _ in range(15):
            a = TruthTable.random(n, rng)
            b = TruthTable.random(n, rng)
            assert npn_equivalent_by_automorphism(a, b) == are_npn_equivalent(a, b)


class TestDegreeHistogram:
    def test_degree_is_complement_of_sensitivity(self):
        """Induced-subgraph degree of a 1-word = n - sen(f, X) restricted to
        neighbours that are also 1-words... which is exactly n - sen for
        1-words (a non-sensitive neighbour of a 1-word is a 1-word)."""
        from repro.core.signatures import osv1

        rng = random.Random(2)
        for n in range(1, 6):
            tt = TruthTable.random(n, rng)
            degrees = sorted(d for __, d in induced_subgraph(tt).degree())
            assert degrees == sorted(n - s for s in osv1(tt))
