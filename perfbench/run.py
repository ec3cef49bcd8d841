"""The benchmark: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload (see ``perfbench/README.md``) from the root of a
checkout, checks every answer, prints a human-readable report and, as
the last line of stdout, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload twice — untraced, then traced through the span wrappers — and
reports the per-layer metrics, including ``obs.tracing_overhead``, the
traced pass's throughput loss against the untraced one.  ``--report F``
also writes the full run (fingerprint, input properties, every sample)
as JSON, which :mod:`steady` and :mod:`compare` read.

Exits 2, printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory clean
sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write the full run as JSON to this file")
    return parser.parse_args(argv)


def _format(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (harness.source_dir() / "repro" / "cli.py").is_file():
        print(f"no program sources under {harness.source_dir()}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be >= 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.source_dir()))
    import workloads  # imports the program lazily, after the check above

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    # A terminated run still stops the daemons it spawned (the workloads
    # stop them in ``finally`` blocks, which SystemExit unwinds through).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    harness.work_root().mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=harness.work_root()))
    try:
        plain_dir = work / "plain"
        plain_dir.mkdir()
        plain = run(args.seed, args.seconds, False, plain_dir)
        passes = [plain]
        traced = None
        if args.trace:
            import spans

            traced_dir = work / "traced"
            traced_dir.mkdir()
            recorder = spans.Recorder()
            recorder.install()
            try:
                traced = run(args.seed, args.seconds, True, traced_dir, recorder)
            finally:
                recorder.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.work_root().rmdir()  # only once no other run uses it
        except OSError:
            pass

    fingerprint = harness.fingerprint(
        args.workload, args.seed, args.seconds,
        library_classes=plain.inputs["library_classes"],
    )
    if args.trace:
        layers = {name: 0.0 for name in workloads.LAYER_UNITS}
        layers.update(traced.layers)
        base = plain.metrics["throughput_qps"]
        layers["obs.tracing_overhead"] = 1.0 - traced.metrics["throughput_qps"] / base
        metrics = {
            name: {"value": float(layers[name]), "unit": unit}
            for name, unit in workloads.LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": float(plain.metrics[name]), "unit": unit}
            for name, unit in workloads.END_TO_END_UNITS.items()
        }
    problems = [p for outcome in passes for p in outcome.problems]
    attempted = sum(o.attempted for o in passes)
    failed = sum(o.failed for o in passes)
    correct = not problems and failed == 0 and attempted > 0

    print(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    print(f"inputs      {json.dumps(plain.inputs, sort_keys=True)}")
    print(f"queries     attempted={attempted} succeeded={attempted - failed} "
          f"failed={failed}")
    print("measured    " + " ".join(
        f"{k}={_format(float(v))}" for k, v in sorted(plain.metrics.items())))
    for problem in problems:
        print(f"PROBLEM     {problem}")
    for name, entry in metrics.items():
        print(f"  {name:<34} {_format(entry['value']):>14} {entry['unit']}")
    if args.report:
        Path(args.report).write_text(json.dumps({
            "fingerprint": fingerprint,
            "inputs": plain.inputs,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": metrics,
            "measured": plain.metrics,
            "samples": {o: p.samples for o, p in zip(("plain", "traced"), passes)},
        }, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != harness.HASH_SEED:
        # Fixed string hashing in the harness too (cuts-library runs the
        # program in this process): restart under the benchmark's seed.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": harness.HASH_SEED})
    sys.exit(main())
