"""Workload generation: benchmark circuits, extraction, random function sets."""

from repro.workloads.batched import (
    pack_by_arity,
    packed_consecutive_tables,
    packed_equivalent_tables,
    packed_random_tables,
)
from repro.workloads.epfl import epfl_like_suite, suite_summary
from repro.workloads.extraction import extract_cut_functions, extraction_report
from repro.workloads.learning import miss_heavy_queries, with_repeats
from repro.workloads.library_corpus import (
    corpus_for_arity,
    exhaustive_tables,
    sampled_tables,
)
from repro.workloads.random_functions import (
    consecutive_tables,
    hit_miss_queries,
    iter_random_tables,
    random_tables,
    seeded_equivalent_tables,
)

__all__ = [
    "epfl_like_suite",
    "suite_summary",
    "extract_cut_functions",
    "extraction_report",
    "random_tables",
    "iter_random_tables",
    "consecutive_tables",
    "seeded_equivalent_tables",
    "hit_miss_queries",
    "miss_heavy_queries",
    "with_repeats",
    "packed_random_tables",
    "packed_consecutive_tables",
    "packed_equivalent_tables",
    "pack_by_arity",
    "exhaustive_tables",
    "sampled_tables",
    "corpus_for_arity",
]
