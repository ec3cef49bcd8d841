"""Classification accuracy metrics and refinement checks.

The paper's Tables II/III compare methods by *class count* against the
exact count.  For a sound signature classifier ``#classes <= #exact``
(collisions merge); for a heuristic canonical form ``#classes >= #exact``
(unresolved ties split).  Accuracy is reported as the ratio to exact.
"""

from __future__ import annotations

from collections.abc import Sequence

__all__ = ["accuracy", "refinement_holds"]


def accuracy(claimed_classes: int, exact_classes: int) -> float:
    """``claimed / exact`` — 1.0 means exact classification.

    Sound signature methods give values <= 1 (they can only merge); the
    heuristic canonical forms give values >= 1 (they can only split).
    """
    if exact_classes <= 0:
        raise ValueError("exact class count must be positive")
    return claimed_classes / exact_classes


def refinement_holds(counts: Sequence[int]) -> bool:
    """True if the class-count sequence is non-decreasing.

    Feeding counts ordered from weaker to stronger part selections checks
    the refinement property adding signature parts can only split classes.
    """
    return all(a <= b for a, b in zip(counts, counts[1:]))

