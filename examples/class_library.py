#!/usr/bin/env python
"""Building an exact NPN class library — the paper's future work, applied.

The paper closes by noting that influence/sensitivity could be combined
with traditional canonical-form methods to reach *exact* classification.
This example uses the exact canonical form (the orbit minimum, found by
the batched kernel) to build the kind of artifact synthesis tools need:

1. the complete library of 3-input NPN classes (all 14 of them), with
   orbit sizes — a pattern library for rewriting;
2. the class distribution of a real circuit's cut functions — which
   classes dominate an arithmetic netlist.

Run:  python examples/class_library.py
"""

from collections import Counter

from repro.aig.builders import multiplier, ripple_adder
from repro.analysis.tables import format_table
from repro.baselines.guided import search_space_size
from repro.canonical import canonical_forms
from repro.core.transforms import group_order
from repro.library import build_exhaustive_library
from repro.workloads.extraction import extract_cut_functions


def main() -> None:
    # --- 1. The complete 3-input class library --------------------------
    # Built from all 256 functions, so each class's size is its orbit
    # size, and orbit-stabilizer gives its symmetry count.
    rows = [
        {
            "representative": entry.representative.to_binary(),
            "orbit": entry.size,
            "symmetries": group_order(3) // entry.size,
            "search": search_space_size(entry.representative),
        }
        for entry in build_exhaustive_library(3).entries()
    ]
    print(format_table(rows, title="All 14 NPN classes of 3-input functions"))
    total = sum(row["orbit"] for row in rows)
    print(f"orbit sizes sum to {total} = 2^8 (the whole function space)")
    print(f"guided search is tiny vs the group order {group_order(3)}\n")

    # --- 2. Class distribution of circuit logic -------------------------
    cuts = extract_cut_functions(
        [ripple_adder(8), multiplier(4)], sizes=[3]
    )[3]
    distribution = Counter(canonical_forms(cuts))
    print(f"{len(cuts)} unique 3-input cut functions from adder8 + mult4, "
          f"{len(distribution)} exact NPN classes\n")
    top = distribution.most_common(5)
    rows = [
        {
            "class": rep.to_binary(),
            "cut_functions": count,
            "share": f"{100 * count / len(cuts):.0f}%",
        }
        for rep, count in top
    ]
    print(format_table(rows, title="Most common classes in the netlists"))
    print(
        "\nReading: a handful of classes (AND-like, XOR/MAJ carry logic)\n"
        "covers most cones — why NPN pattern libraries stay small."
    )


if __name__ == "__main__":
    main()
