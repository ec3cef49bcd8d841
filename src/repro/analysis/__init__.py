"""Analysis helpers: refinement checks, paper-style tables, timing harness."""

from repro.analysis.stats import refinement_holds
from repro.analysis.tables import format_table, write_markdown_table
from repro.analysis.timing import TimedRun, time_classifier

__all__ = [
    "refinement_holds",
    "format_table",
    "write_markdown_table",
    "TimedRun",
    "time_classifier",
]
