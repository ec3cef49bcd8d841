"""Compare two sets of runs: ``python3 perfbench/compare.py --before A.json ... --after B.json ...``.

Each file is a ``run.py --report`` output.  Runs pair up by workload and
seed.  When any pair's fingerprints differ in anything but ``git_sha``
— another host, core count, python or numpy, input size — the
comparison is refused (exit 2): such numbers do not measure the change.
Otherwise it prints, per workload and metric, both medians, the change
and the metric's bound from ``BENCHMARK.json``, and exits 1 if a metric
got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

#: Fingerprint fields a comparison may differ in.
PROVENANCE = ("git_sha",)


def _load(paths):
    runs = {}
    for path in paths:
        report = json.loads(Path(path).read_text())
        key = (report["fingerprint"]["workload"], report["fingerprint"]["seed"])
        runs[key] = report
    return runs


def _identity(fingerprint: dict) -> dict:
    return {k: v for k, v in fingerprint.items() if k not in PROVENANCE}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    parser.add_argument("--bounds", default=str(
        harness.checkout_root() / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    before, after = _load(args.before), _load(args.after)
    spec = json.loads(Path(args.bounds).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    pairs = sorted(set(before) & set(after))
    if not pairs:
        print("no (workload, seed) present on both sides", file=sys.stderr)
        return 2
    for key in pairs:
        a, b = _identity(before[key]["fingerprint"]), _identity(after[key]["fingerprint"])
        if a != b:
            diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys()
                    if a.get(k) != b.get(k)}
            print(f"refused: fingerprints of {key} differ: {diff}", file=sys.stderr)
            return 2

    regressed = False
    for workload in sorted({w for w, _ in pairs}):
        print(f"\n{workload}")
        for name, spec_metric in metrics.items():
            old = [before[k]["metrics"][name]["value"] for k in pairs if k[0] == workload]
            new = [after[k]["metrics"][name]["value"] for k in pairs if k[0] == workload]
            old_mid, new_mid = harness.median(old), harness.median(new)
            change = (new_mid - old_mid) / old_mid
            worse = change if spec_metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > spec_metric["bound"] else "ok"
            regressed |= verdict != "ok"
            print(f"  {name:<16} {old_mid:>12.5g} -> {new_mid:>12.5g} "
                  f"{change:>+8.2%}  bound {spec_metric['bound']:.0%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
