"""Table III — runtime and accuracy comparison of NPN classifiers.

Methods, mirroring the paper's columns:

* ``kitty``        — exhaustive exact canonicalisation (only for small
  ``n`` / truncated sets, exactly as the paper stops Kitty at n = 6);
* ``huang13``      — ``testnpn -6`` analogue (ultra fast, inexact);
* ``petkovska16``  — ``testnpn -7`` analogue (hierarchical);
* ``zhou20``       — ``testnpn -11`` analogue (near exact, slower);
* ``ours``         — the face/point classifier (Algorithm 1);
* plus the exact class count from the bucket+match engine as ground truth.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.timing import time_classifier
from repro.baselines import get_classifier
from repro.baselines.exact import ExactClassifier
from repro.core.truth_table import TruthTable
from repro.experiments.workload_cache import benchmark_functions, scale_settings

__all__ = ["METHODS", "run_table3", "table3_row"]

METHODS = ("huang13", "petkovska16", "zhou20", "ours")


def table3_row(
    n: int,
    tables: Sequence[TruthTable],
    kitty_max_n: int = 5,
    kitty_limit: int = 300,
    exact: bool = True,
) -> dict:
    """One Table III row: class count and seconds per method."""
    row: dict = {"n": n, "functions": len(tables)}
    row["exact"] = ExactClassifier().count_classes(tables) if exact else None
    if n <= kitty_max_n:
        subset = list(tables)[:kitty_limit]
        run = time_classifier(get_classifier("kitty"), subset)
        row["kitty_classes"] = run.classes
        row["kitty_seconds"] = round(run.seconds, 4)
        row["kitty_functions"] = len(subset)
    else:
        row["kitty_classes"] = None
        row["kitty_seconds"] = None
        row["kitty_functions"] = 0
    for method in METHODS:
        run = time_classifier(get_classifier(method), tables)
        row[f"{method}_classes"] = run.classes
        row[f"{method}_seconds"] = round(run.seconds, 4)
    return row


def run_table3(scale: str | None = None, exact: bool = True) -> list[dict]:
    """Regenerate Table III on the EPFL-like workload at the given scale."""
    settings = scale_settings(scale)
    functions = benchmark_functions(settings.name)
    return [
        table3_row(
            n,
            functions[n],
            kitty_max_n=settings.kitty_max_n,
            kitty_limit=settings.kitty_limit,
            exact=exact,
        )
        for n in sorted(functions)
    ]
