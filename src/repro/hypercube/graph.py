"""Hypercube graphs, induced subgraphs, and automorphism-based NPN checks.

The automorphism group of ``Q_n`` is exactly the group of NP transforms on
minterm indices (bit permutations composed with bit flips), of order
``2^n * n!``.  Hence:

* ``f`` and ``g`` are **PN equivalent** iff some hypercube automorphism
  maps the 1-set of ``f`` onto the 1-set of ``g``;
* ``f`` and ``g`` are **NPN equivalent** iff additionally the 1-set of
  ``f`` may map onto the *0-set* of ``g`` (output negation).

This gives an NPN-equivalence decision procedure completely independent of
the truth-table machinery — O(2^n * n! * 2^n), usable for n <= 4 — which
the test suite uses to cross-validate the matcher and the enumeration
canonicaliser.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.core.truth_table import TruthTable

__all__ = [
    "hypercube_graph",
    "induced_subgraph",
    "npn_equivalent_by_automorphism",
]


def hypercube_graph(n: int) -> nx.Graph:
    """``Q_n``: nodes are minterm indices, edges join indices at distance 1."""
    graph = nx.Graph()
    graph.add_nodes_from(range(1 << n))
    for node in range(1 << n):
        for i in range(n):
            neighbour = node ^ (1 << i)
            if neighbour > node:
                graph.add_edge(node, neighbour)
    return graph


def induced_subgraph(tt: TruthTable) -> nx.Graph:
    """The induced subgraph of ``Q_n`` on the function's 1-minterms.

    This is the bold part of the paper's Fig. 1 drawings.
    """
    return hypercube_graph(tt.n).subgraph(list(tt.minterms())).copy()


def _automorphism_images(minterms: frozenset[int], n: int):
    """All images of a minterm set under the ``2^n * n!`` automorphisms."""
    for perm in itertools.permutations(range(n)):
        for phase in range(1 << n):
            image = frozenset(
                _apply_index(m, perm, phase, n) for m in minterms
            )
            yield image


def _apply_index(m: int, perm: tuple[int, ...], phase: int, n: int) -> int:
    out = 0
    for i in range(n):
        bit = ((m >> i) & 1) ^ ((phase >> i) & 1)
        out |= bit << perm[i]
    return out


def npn_equivalent_by_automorphism(a: TruthTable, b: TruthTable) -> bool:
    """Decide NPN equivalence purely through hypercube automorphisms.

    Exponential-time oracle for cross-validation (n <= 4 in practice).
    """
    if a.n != b.n:
        return False
    n = a.n
    ones_b = frozenset(b.minterms())
    zeros_b = frozenset(range(1 << n)) - ones_b
    ones_a = frozenset(a.minterms())
    if len(ones_a) not in (len(ones_b), len(zeros_b)):
        return False
    for image in _automorphism_images(ones_a, n):
        if image == ones_b or image == zeros_b:
            return True
    return False

