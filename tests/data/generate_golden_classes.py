"""Regenerate ``golden_classes.json`` — run only to bless an intended change.

    PYTHONPATH=src python -m tests.data.generate_golden_classes

The golden file pins class counts and order-sensitive bucket digests for
fixed seeds at n = 4..6.  ``tests/properties/test_golden_classes.py``
checks them against both signature engines, the exact classifier and
the library match path; a
digest drift means buckets split, merged, or reordered — bless it here
only after confirming the change is intentional.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.classifier import FacePointClassifier
from repro.library import library_from_result
from repro.workloads.random_functions import random_tables
from tests.corpora import seeded_equivalent_tables

GOLDEN_PATH = Path(__file__).parent / "golden_classes.json"

#: The pinned workloads.  n=4 is a plain random set (rich bucket
#: structure at this arity); n=5/6 plant known NPN orbits so the library
#: match path has to recover non-trivial witnesses.
WORKLOADS = [
    {"n": 4, "kind": "random", "count": 1200, "seed": 44},
    {"n": 5, "kind": "orbits", "orbits": 300, "members": 3, "seed": 55},
    {"n": 6, "kind": "orbits", "orbits": 200, "members": 3, "seed": 66},
]


def workload_tables(spec: dict):
    if spec["kind"] == "random":
        return random_tables(spec["n"], spec["count"], spec["seed"])
    tables, _ = seeded_equivalent_tables(
        spec["n"], spec["orbits"], spec["members"], spec["seed"]
    )
    return tables


def main() -> None:
    entries = []
    for spec in WORKLOADS:
        tables = workload_tables(spec)
        result = FacePointClassifier().classify(tables)
        library = library_from_result(result)
        entries.append(
            spec
            | {
                "num_functions": result.num_functions,
                "num_classes": result.num_classes,
                "buckets_digest": result.buckets_digest(),
                # Library identity pins: class ids are a pure function of
                # the buckets, representatives additionally pin the
                # canonical-minimum (n<=4) / election (n>=5) rules.
                "classes": {
                    e.class_id: e.representative.to_hex()
                    for e in library.entries()
                },
            }
        )
        print(
            f"n={spec['n']}: {result.num_functions} functions, "
            f"{result.num_classes} classes, digest {result.buckets_digest()}"
        )
    GOLDEN_PATH.write_text(json.dumps(entries, indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
