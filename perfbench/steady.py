"""Steadiness self-check: run one workload repeatedly, report the spread.

``python3 perfbench/steady.py --workload W [--runs 10] [--seconds S]
[--first-seed 1] [--trace 0] [--bounds BENCHMARK.json]``

Runs ``run.py`` once per seed (``first-seed``, ``first-seed + 1``, ...)
and prints, for every metric, the median, the quartiles and the
interquartile spread as a share of the median — the figure a metric's
bound in ``BENCHMARK.json`` is checked against.  With ``--bounds`` each
end-to-end metric is marked ``ok`` when its spread is below a third of
its bound.  Every run's wall time is printed too.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, str(HERE))

import harness  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(harness.checkout_root()), capture_output=True, text=True,
        timeout=900,
    )
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {completed.returncode}\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bounds", default=str(
        harness.checkout_root() / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = {}
    if Path(args.bounds).is_file():
        spec = json.loads(Path(args.bounds).read_text())
    seconds = args.seconds or spec.get("run_seconds", 10)
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, wall = run_once(args.workload, seed, seconds, args.trace)
        print(f"seed {seed:>4}  wall {wall:6.1f}s  correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}  "
              + "  ".join(f"{k}={v['value']:.5g}"
                          for k, v in result["metrics"].items()
                          if k in bounds or args.trace),
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]

    print(f"\n{args.workload}: {args.runs} runs of {seconds}s")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    steady = True
    for name, series in values.items():
        mid, q1, q3, spread = harness.quartile_spread(series)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and not args.trace:
            good = spread < bound / 3 or name == "setup_s"
            steady &= good
            verdict = "ok" if good else "NOISY"
        print(f"{name:<34} {mid:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.2%} {bound if bound is not None else '':>6} "
              f"{units[name]} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
