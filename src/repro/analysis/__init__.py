"""Analysis helpers: accuracy stats, paper-style tables, timing harness."""

from repro.analysis.stats import accuracy, refinement_holds
from repro.analysis.tables import format_table, write_markdown_table
from repro.analysis.timing import TimedRun, time_classifier

__all__ = [
    "accuracy",
    "refinement_holds",
    "format_table",
    "write_markdown_table",
    "TimedRun",
    "time_classifier",
]
