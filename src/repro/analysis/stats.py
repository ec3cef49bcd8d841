"""Refinement checks on classification class counts.

The paper's Tables II/III compare methods by *class count* against the
exact count.  For a sound signature classifier ``#classes <= #exact``
(collisions merge); for a heuristic canonical form ``#classes >= #exact``
(unresolved ties split).
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["refinement_holds"]


def refinement_holds(counts: Sequence[int]) -> bool:
    """True if the class-count sequence is non-decreasing.

    Feeding counts ordered from weaker to stronger part selections checks
    the refinement property adding signature parts can only split classes.
    """
    return all(a <= b for a, b in zip(counts, counts[1:]))
