"""In-memory span recording around the program's public functions.

:func:`install` replaces each function in :data:`TARGETS` — at the name
its caller looks it up under — with a wrapper that records one span
``(name, start, end, parent, thread, rows)``.  Spans live in a list in
memory and :func:`write` dumps them as JSON (the traced launcher does
that at exit).  ``parent`` is the index of the innermost span open on
the same thread when this one started, so a span's *self* time is its
duration minus the durations of its direct children.

Both the harness (in-process ``cuts-library``, and every library build)
and the traced launcher (spawned daemons) use the same targets, so a
layer's numbers mean the same thing wherever the layer runs.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from pathlib import Path


def _len_first(args, kwargs) -> int:
    return len(args[0])


def _len_second(args, kwargs) -> int:
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


def _grouped_rows(args, kwargs) -> int:
    return sum(len(queries) for _, queries in args[0])


#: (module, attribute path, span name, row counter, kind).  ``kind`` is
#: ``"function"`` (module-level name), ``"method"`` (plain method on a
#: class), ``"classmethod"`` or ``"generator"`` (each ``next()`` is one
#: span with one row).
TARGETS = (
    ("repro.experiments.cutmatch", "iter_cut_functions", "aig.enumerate",
     _one, "generator"),
    ("repro.engine.classifier", "BatchedClassifier.signatures",
     "engine.signatures", _len_second, "method"),
    ("repro.canonical.form", "canonical_min", "kernels.canonical_min",
     _len_first, "function"),
    ("repro.library.store", "canonical_min", "kernels.canonical_min",
     _len_first, "function"),
    ("repro.library.build", "canonical_min", "kernels.canonical_min",
     _len_first, "function"),
    ("repro.library.online", "canonical_form", "canonical.forms",
     _one, "function"),
    ("repro.service.coalescer", "canonical_forms", "canonical.forms",
     _len_first, "function"),
    ("repro.library.build", "canonical_forms", "canonical.forms",
     _len_first, "function"),
    ("repro.library.store", "find_npn_transforms_grouped", "matcher.grouped",
     _grouped_rows, "function"),
    ("repro.library.store", "ClassLibrary.match_many", "library.match_many",
     None, "method"),
    ("repro.library.store", "ClassLibrary.load", "library.load",
     _one, "classmethod"),
    ("repro.library.online", "LearningLibrary.learn", "library.learn",
     _one, "method"),
    ("repro.library.wal", "SegmentWriter.append", "library.wal_append",
     _one, "method"),
    ("repro.fabric.router", "shard_key_of", "fabric.shard_key",
     _one, "function"),
)


class Recorder:
    """Spans of one process, appended under a lock."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []

    # ----------------------------- recording -----------------------------

    def _open(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, time.perf_counter(), None, parent,
                 threading.get_ident(), 0]
            )
        stack.append(index)
        return index

    def _close(self, index: int, rows: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = rows
        self._local.stack.pop()

    def wrap(self, func, name: str, rows):
        recorder = self

        def wrapper(*args, **kwargs):
            if rows is None:  # match_many: materialize so rows are countable
                args = (args[0], list(args[1]), *args[2:])
                count = len(args[1])
            else:
                count = rows(args, kwargs)
            index = recorder._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                recorder._close(index, count)

        wrapper.__wrapped__ = func
        return wrapper

    def wrap_generator(self, func, name: str):
        recorder = self

        def wrapper(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                index = recorder._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    recorder._close(index, 0)
                    return
                except BaseException:
                    recorder._close(index, 0)
                    raise
                recorder._close(index, 1)
                yield item

        wrapper.__wrapped__ = func
        return wrapper

    # ----------------------------- patching ------------------------------

    def install(self) -> None:
        for module_name, path, name, rows, kind in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
            if kind == "generator":
                replacement = self.wrap_generator(original, name)
            elif kind == "classmethod":
                replacement = classmethod(self.wrap(original.__func__, name, rows))
            else:
                replacement = self.wrap(original, name, rows)
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str | Path) -> None:
        """Dump every span; one still open at exit has ``end`` null."""
        with self._lock:
            Path(path).write_text(json.dumps(self.spans))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load(path: str | Path) -> list[list]:
    """Spans written by :meth:`Recorder.write`; open ones end at +inf
    (so they count as covering the rest of any window)."""
    spans = json.loads(Path(path).read_text())
    for span in spans:
        if span[2] is None:
            span[2] = float("inf")
    return spans


def _clip(span, start: float, end: float) -> float:
    return max(0.0, min(span[2], end) - max(span[1], start))


def summarize(spans: list[list], start: float, end: float) -> dict:
    """Per span name: calls, rows, inclusive and self seconds within
    ``[start, end]``, plus the share of the window covered by top-level
    spans (the union over threads)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += _clip(span, start, end)
    out: dict[str, dict] = {}
    for index, span in enumerate(spans):
        inside = _clip(span, start, end)
        if inside <= 0.0 and not (start <= span[1] <= end):
            continue
        entry = out.setdefault(
            span[0], {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["rows"] += span[5]
        entry["s"] += inside
        entry["self_s"] += inside - child_time[index]
    tops = sorted(
        (max(s[1], start), min(s[2], end)) for s in spans
        if s[3] < 0 and _clip(s, start, end) > 0
    )
    covered, cursor = 0.0, start
    for lo, hi in tops:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    window = max(end - start, 1e-9)
    return {"names": out, "covered_share": covered / window}


def get(summary: dict, name: str, field: str) -> float:
    return summary["names"].get(name, {}).get(field, 0)
