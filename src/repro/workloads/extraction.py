"""Circuit -> cut functions pipeline (the paper's Section V-A front end).

"The truth tables are extracted from these benchmarks using cut
enumeration.  We deleted the Boolean functions of the same truth table."
This module is that sentence as code: enumerate k-feasible cuts on every
circuit, compute each cut's truth table over its leaves, group by cut
size, and deduplicate identical tables.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.aig.cuts import iter_cut_functions
from repro.aig.network import AIG
from repro.core.truth_table import TruthTable

__all__ = ["extract_cut_functions", "extraction_report"]


def extract_cut_functions(
    circuits: Iterable[AIG] | AIG,
    sizes: Iterable[int],
    max_cuts: int = 16,
    limit_per_size: int | None = None,
) -> dict[int, list[TruthTable]]:
    """Deduplicated cut truth tables of the given circuits, per cut size.

    Args:
        circuits: one AIG or an iterable of them.
        sizes: cut sizes ``n`` of interest (the paper uses 4..10).
        max_cuts: per-node priority-cut cap during enumeration.
        limit_per_size: optional cap on functions kept per size (keeps
            bench runtimes bounded; first-seen order, deterministic).

    Returns:
        ``{n: [TruthTable, ...]}`` with exact-duplicate tables removed,
        in first-seen order.  A cut counts towards size ``n`` when it has
        exactly ``n`` leaves, matching the paper's per-``n`` rows.
    """
    if isinstance(circuits, AIG):
        circuits = [circuits]
    wanted = sorted(set(sizes))
    if not wanted or wanted[0] < 1:
        raise ValueError("cut sizes must be positive")
    seen: dict[int, set[int]] = {n: set() for n in wanted}
    collected: dict[int, list[TruthTable]] = {n: [] for n in wanted}
    for aig in circuits:
        for _, _, tt in iter_cut_functions(aig, wanted, max_cuts=max_cuts):
            bucket = collected[tt.n]
            if limit_per_size is not None and len(bucket) >= limit_per_size:
                continue
            if tt.bits not in seen[tt.n]:
                seen[tt.n].add(tt.bits)
                bucket.append(tt)
    return collected


def extraction_report(functions: dict[int, list[TruthTable]]) -> list[dict]:
    """Summary rows: per size, how many unique functions were extracted."""
    rows = []
    for n in sorted(functions):
        tables = functions[n]
        degenerate = sum(1 for tt in tables if tt.is_degenerate)
        balanced = sum(1 for tt in tables if tt.is_balanced)
        rows.append(
            {
                "n": n,
                "functions": len(tables),
                "balanced": balanced,
                "degenerate": degenerate,
            }
        )
    return rows
