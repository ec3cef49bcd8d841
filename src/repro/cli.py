"""Command-line interface: ``python -m repro`` / ``repro-npn``.

Subcommands:

* ``classify``   — NPN-classify truth tables from a file or stdin;
* ``signatures`` — print every signature vector of one function;
* ``suite``      — show the EPFL-like benchmark suite;
* ``extract``    — run the cut-function extraction pipeline;
* ``library``    — build/inspect/query a persistent NPN class library
  (``library build | stats | match | compact``);
* ``serve``      — run the online classification daemon on a library
  (``--learn`` mints classes for unmatched queries into a WAL);
* ``router``     — run the fabric router fronting a worker fleet;
* ``worker``     — run one fabric worker serving its consistent-hash
  shard of a library, registered with a router;
* ``query``      — talk to a running daemon or router (``query match |
  classify | stats | ping``);
* ``cutmatch``   — enumerate AIG cuts and match them against a library;
* ``table1 | table2 | table3 | fig5 | fig34`` — regenerate the paper's
  tables and figures at a chosen scale.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.tables import format_table
from repro.baselines.base import registered_classifiers
from repro.core.truth_table import TruthTable

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-npn",
        description="Face/point-characteristic NPN classification (DATE 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser("classify", help="classify truth tables from a file")
    classify.add_argument("file", help="one table per line (hex or binary); '-' for stdin")
    classify.add_argument(
        "--method",
        default="ours",
        choices=sorted(registered_classifiers()),
        help="classifier to use (ours: the batched signature engine; "
        "exact: signature buckets resolved by the complete matcher, one "
        "group per NPN class)",
    )
    classify.add_argument(
        "--show-classes", action="store_true", help="print class members"
    )

    signatures = sub.add_parser("signatures", help="signature vectors of one function")
    signatures.add_argument("table", help="truth table (binary, or hex with 0x prefix)")
    signatures.add_argument("--n", type=int, help="variable count (needed for hex)")

    sub.add_parser("suite", help="summarise the EPFL-like benchmark suite")

    extract = sub.add_parser("extract", help="extract cut functions from the suite")
    extract.add_argument("--sizes", default="4,5,6", help="comma-separated cut sizes")
    extract.add_argument("--scale", type=int, default=1, help="suite scale factor")
    extract.add_argument("--limit", type=int, default=None, help="cap per size")

    canonical = sub.add_parser(
        "canonical", help="exact NPN canonical form of one function"
    )
    canonical.add_argument("table", help="truth table (binary, or hex with 0x prefix)")
    canonical.add_argument("--n", type=int, help="variable count (needed for hex)")
    canonical.add_argument(
        "--search-stats",
        action="store_true",
        help="run the influence-guided scalar search and report how many "
        "permutations/phase candidates it actually materialized",
    )

    match = sub.add_parser("match", help="find an NPN transform between two functions")
    match.add_argument("source", help="source truth table")
    match.add_argument("target", help="target truth table")
    match.add_argument("--n", type=int, help="variable count (needed for hex)")

    library = sub.add_parser(
        "library", help="persistent NPN class library (build | stats | match)"
    )
    lib_sub = library.add_subparsers(dest="library_command", required=True)
    lib_build = lib_sub.add_parser(
        "build", help="classify a corpus and save the class library"
    )
    lib_build.add_argument(
        "--inputs",
        default="4",
        help="arities to cover, comma-separated (items are N or A-B ranges); "
        "arities <= 4 are enumerated exhaustively, larger ones sampled",
    )
    lib_build.add_argument(
        "--samples",
        type=int,
        default=20000,
        help="random functions drawn per arity above 4 (default 20000)",
    )
    lib_build.add_argument("--seed", type=int, default=2023, help="sampling seed")
    lib_build.add_argument(
        "--out", default="npn_library", help="output directory (default npn_library)"
    )
    lib_build.add_argument(
        "--exact",
        action="store_true",
        help="one class per NPN orbit: split the rare signature buckets "
        "above n=4 that hold more than one NPN class (default: one "
        "class per signature bucket)",
    )
    lib_stats = lib_sub.add_parser("stats", help="summarise a saved library")
    lib_stats.add_argument(
        "--library", default="npn_library", help="library directory"
    )
    lib_compact = lib_sub.add_parser(
        "compact",
        help="merge write-ahead segments (from serve --learn) into the "
        "library image and delete them",
    )
    lib_compact.add_argument(
        "--library", default="npn_library", help="library directory"
    )
    lib_migrate = lib_sub.add_parser(
        "migrate",
        help="convert a version-1 or version-2 library and its WAL in place",
    )
    lib_migrate.add_argument(
        "--library", default="npn_library", help="library directory"
    )
    lib_match = lib_sub.add_parser(
        "match", help="resolve a function to its class id + witness transform"
    )
    lib_match.add_argument("table", help="truth table (binary, or hex with 0x prefix)")
    lib_match.add_argument("--n", type=int, help="variable count (needed for hex)")
    lib_match.add_argument(
        "--library", default="npn_library", help="library directory"
    )

    serve = sub.add_parser(
        "serve", help="run the online classification daemon on a library"
    )
    serve.add_argument(
        "--library", default="npn_library", help="library directory to serve"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8355, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="most requests coalesced into one engine batch (1 disables)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long a non-full batch waits for stragglers",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=8192,
        help="request queue bound; beyond it clients get 'overloaded'",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1 << 16,
        help="LRU match-cache capacity (0 disables)",
    )
    serve.add_argument(
        "--learn",
        action="store_true",
        help="learn on miss: mint a class for every unmatched query, "
        "write-ahead log it, and compact into the library on drain",
    )
    serve.add_argument(
        "--wal-segment-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="active WAL segment size that trips an automatic "
        "compaction (requires --learn; default 1 MiB)",
    )
    serve.add_argument(
        "--wal-fsync",
        default=None,
        choices=("always", "close", "never"),
        help="WAL durability: fsync every record, only on segment "
        "close (default), or never (requires --learn)",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="requests slower than this end-to-end land in the "
        "slow-request log (default 250; <= 0 disables the slow log)",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="trace span detail for every N-th request "
        "(default 8; 1 traces every request)",
    )

    router = sub.add_parser(
        "router",
        help="run the fabric router: clients in front, a registered "
        "worker fleet behind a consistent-hash ring",
    )
    router.add_argument("--host", default="127.0.0.1", help="bind address")
    router.add_argument(
        "--port", type=int, default=8455, help="bind port (0 picks a free one)"
    )
    router.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="dispatch tries per request (1 disables retrying)",
    )
    router.add_argument(
        "--base-ms",
        type=float,
        default=25.0,
        help="first retry's backoff ceiling (capped exponential, full jitter)",
    )
    router.add_argument(
        "--cap-ms", type=float, default=500.0, help="backoff delay cap"
    )
    router.add_argument(
        "--timeout-ms",
        type=float,
        default=5000.0,
        help="per-attempt deadline for one worker round trip",
    )
    router.add_argument(
        "--heartbeat-interval-s",
        type=float,
        default=1.0,
        help="cadence workers are told to heartbeat at",
    )
    router.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-request log threshold (default 250; <= 0 disables)",
    )
    router.add_argument(
        "--trace-sample",
        type=int,
        default=None,
        metavar="N",
        help="trace span detail for every N-th request (default 8)",
    )

    worker = sub.add_parser(
        "worker",
        help="run one fabric worker: a classification daemon serving its "
        "consistent-hash shard, registered with a router",
    )
    worker.add_argument(
        "--id",
        dest="worker_id",
        required=True,
        help="this worker's ring identity (must appear in --ring)",
    )
    worker.add_argument(
        "--ring",
        required=True,
        help="comma-separated worker ids forming the ring (identical for "
        "every worker and adopted by the router)",
    )
    worker.add_argument(
        "--library",
        default="npn_library",
        help="library directory; this worker serves only its shard of it",
    )
    worker.add_argument(
        "--router",
        default="127.0.0.1:8455",
        dest="router_addr",
        help="router address host:port (registration + heartbeats)",
    )
    worker.add_argument("--host", default="127.0.0.1", help="bind address")
    worker.add_argument(
        "--port", type=int, default=0, help="bind port (default 0: free port)"
    )
    worker.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per worker on the ring",
    )
    worker.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="distinct workers holding each shard (owner + successors)",
    )
    worker.add_argument(
        "--max-batch",
        type=int,
        default=256,
        help="most requests coalesced into one engine batch",
    )
    worker.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="how long a non-full batch waits for stragglers",
    )

    query = sub.add_parser(
        "query", help="query a running daemon (match | classify | stats | ping)"
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)
    for name, description in (
        ("match", "resolve a function to class id + witness transform"),
        ("classify", "signature class id of a function (no witness)"),
    ):
        q = query_sub.add_parser(name, help=description)
        q.add_argument("table", help="truth table (binary, or hex with 0x prefix)")
        q.add_argument("--n", type=int, help="variable count (needed for hex)")
        q.add_argument(
            "--addr", default="127.0.0.1:8355", help="daemon address host:port"
        )
    for name, description in (
        ("stats", "print the daemon's metrics snapshot"),
        ("ping", "liveness check"),
    ):
        q = query_sub.add_parser(name, help=description)
        q.add_argument(
            "--addr", default="127.0.0.1:8355", help="daemon address host:port"
        )
        if name == "stats":
            q.add_argument(
                "--prometheus",
                action="store_true",
                help="print the daemon's GET /metrics text exposition "
                "instead of the JSON snapshot",
            )
        if name == "ping":
            q.add_argument(
                "--retries",
                type=int,
                default=0,
                help="retry an unreachable daemon this many times "
                "(waiting out a slow start)",
            )
            q.add_argument(
                "--backoff-ms",
                type=float,
                default=100.0,
                help="first retry's backoff ceiling; delays grow "
                "capped-exponentially with full jitter",
            )
    query_trace = query_sub.add_parser(
        "trace", help="recent per-request traces from the daemon"
    )
    query_trace.add_argument(
        "--addr", default="127.0.0.1:8355", help="daemon address host:port"
    )
    query_trace.add_argument(
        "--limit", type=int, default=20, help="most recent traces to fetch"
    )
    query_trace.add_argument(
        "--slow",
        action="store_true",
        help="show the slow-request ring instead of all recent traces",
    )
    query_trace.add_argument(
        "--json",
        action="store_true",
        help="dump the raw /v1/trace/recent JSON instead of one line "
        "per trace",
    )

    cutmatch = sub.add_parser(
        "cutmatch",
        help="enumerate AIG cuts and match every cut function against a library",
    )
    cutmatch.add_argument(
        "--library", default="npn_library", help="library directory"
    )
    cutmatch.add_argument(
        "--sizes", default="4", help="comma-separated cut sizes (default 4)"
    )
    cutmatch.add_argument("--scale", type=int, default=1, help="suite scale factor")
    cutmatch.add_argument(
        "--circuits",
        default=None,
        help="comma-separated subset of suite circuits (default: all)",
    )
    cutmatch.add_argument(
        "--max-cuts", type=int, default=16, help="priority cuts kept per node"
    )
    cutmatch.add_argument(
        "--top", type=int, default=10, help="most-hit classes to report"
    )

    for name, description in (
        ("table1", "signature vectors of f1/f3 (paper Table I)"),
        ("table2", "signature-vector ablation (paper Table II)"),
        ("table3", "classifier comparison (paper Table III)"),
        ("fig5", "runtime stability (paper Fig. 5)"),
        ("fig34", "discrimination witnesses (paper Figs. 3-4)"),
    ):
        cmd = sub.add_parser(name, help=description)
        if name in ("table2", "table3", "fig5"):
            cmd.add_argument(
                "--scale",
                default=None,
                choices=("smoke", "small", "paper"),
                help="workload scale (default: REPRO_BENCH_SCALE or small)",
            )
        if name in ("table2", "table3"):
            cmd.add_argument(
                "--no-exact",
                action="store_true",
                help="skip the exact-class ground-truth column",
            )
    return parser


def parse_tables(lines, n_hint: int | None = None) -> list[TruthTable]:
    """Parse one truth table per line (binary, or hex needing ``n``)."""
    tables = []
    for raw in lines:
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        tables.append(_parse_one(text, n_hint))
    return tables


def _parse_one(text: str, n_hint: int | None) -> TruthTable:
    # One grammar for every entry path: the CLI parses tables exactly
    # like a service request payload does.
    from repro.service.protocol import parse_table_text

    return parse_table_text(text, n_hint)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout closed early (``... | head -1``).  Point
        # stdout at the null device so the interpreter's final flush
        # cannot raise again, and exit without a traceback.  SIGPIPE is
        # left ignored: serve, worker and router write to sockets and
        # must outlive a peer that hangs up.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def _run(args) -> int:
    command = args.command

    if command == "classify":
        return _cmd_classify(args)
    if command == "signatures":
        return _cmd_signatures(args)
    if command == "suite":
        return _cmd_suite()
    if command == "canonical":
        return _cmd_canonical(args)
    if command == "match":
        return _cmd_match(args)
    if command == "library":
        return _cmd_library(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "router":
        return _cmd_router(args)
    if command == "worker":
        return _cmd_worker(args)
    if command == "query":
        return _cmd_query(args)
    if command == "cutmatch":
        return _cmd_cutmatch(args)
    if command == "extract":
        return _cmd_extract(args)
    if command == "table1":
        from repro.experiments.table1 import run_table1

        print(format_table(run_table1(), title="Table I — signature vectors"))
        return 0
    if command == "table2":
        from repro.experiments.table2 import run_table2

        rows = run_table2(args.scale, exact=not args.no_exact)
        print(format_table(rows, title="Table II — signature-vector ablation"))
        return 0
    if command == "table3":
        from repro.experiments.table3 import run_table3

        rows = run_table3(args.scale, exact=not args.no_exact)
        print(format_table(rows, title="Table III — classifier comparison"))
        return 0
    if command == "fig5":
        from repro.analysis.ascii_plot import ascii_chart
        from repro.experiments.fig5 import run_fig5

        for row in run_fig5(args.scale):
            series = {
                key: row[key]
                for key in row
                if isinstance(row.get(key), list) and key != "points"
            }
            print(
                ascii_chart(
                    row["points"],
                    series,
                    title=f"Fig. 5 — {row['n']}-bit: cumulative seconds vs #functions",
                )
            )
            stability = {
                key: row[key] for key in row if key.endswith("_stability")
            }
            print(f"stability (relative spread): {stability}\n")
        return 0
    if command == "fig34":
        from repro.experiments.fig34 import run_fig34

        print(format_table(run_fig34(), title="Figs. 3-4 — reconstructed witnesses"))
        return 0
    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


def _cmd_classify(args) -> int:
    from repro.baselines import get_classifier
    from repro.engine import BatchedClassifier

    if args.file == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args.file) as handle:
            lines = handle.readlines()
    tables = parse_tables(lines)
    if not tables:
        print("no truth tables found", file=sys.stderr)
        return 1
    if args.method == "ours":
        classifier = BatchedClassifier()
    else:
        classifier = get_classifier(args.method)
    result = classifier.classify(tables)
    print(f"functions: {result.num_functions}")
    print(f"classes:   {result.num_classes} ({args.method})")
    if args.show_classes:
        for index, members in enumerate(result.groups.values()):
            rendered = " ".join(str(tt) for tt in members)
            print(f"  class {index}: {rendered}")
    return 0


def _cmd_signatures(args) -> int:
    from repro.core import signatures as sig
    from repro.core.msv import compute_msv

    tt = _parse_one(args.table, args.n)
    print(f"function:  {tt!r}")
    print(f"|f| = {tt.count_ones()}  balanced={tt.is_balanced}")
    print(f"OCV1  = {sig.ocv1(tt)}")
    print(f"OCV2  = {sig.ocv2(tt)}")
    print(f"OIV   = {sig.oiv(tt)}")
    print(f"OSV   = {sig.osv(tt)}")
    print(f"OSV0  = {sig.osv0(tt)}")
    print(f"OSV1  = {sig.osv1(tt)}")
    print(f"OSDV  = {sig.osdv(tt)}")
    print(f"OSDV0 = {sig.osdv0(tt)}")
    print(f"OSDV1 = {sig.osdv1(tt)}")
    print(f"MSV digest = {compute_msv(tt).digest()}")
    return 0


def _cmd_canonical(args) -> int:
    from repro import obs
    from repro.canonical import (
        canonical_class_id,
        canonical_forms_with_transforms,
        influence_canonical_scalar,
        influence_vector,
    )
    from repro.kernels.gather import MAX_KERNEL_VARS

    tt = _parse_one(args.table, args.n)
    steps = obs.registry().get("repro_canonical_search_steps_total")
    kinds = ("permutations", "phase_candidates", "phases_materialized")
    before = [steps.value(kind=kind) for kind in kinds]
    (canonical,), (witness,) = canonical_forms_with_transforms([tt])
    print(f"function:   {tt!r}")
    print(f"influence:  {influence_vector(tt)}")
    print(f"canonical:  {canonical!r}  binary={canonical.to_binary()}")
    print(f"class id:   {canonical_class_id(canonical)}")
    print(f"witness:    {witness}  (maps the function onto its canonical form)")
    print(
        f"            perm={witness.perm} input_phase={witness.input_phase:#x} "
        f"output_phase={witness.output_phase}"
    )
    if args.search_stats:
        # Above MAX_KERNEL_VARS the form came from the scalar search;
        # up to it the kernel searched nothing, so run the search once.
        if tt.n <= MAX_KERNEL_VARS:
            scalar = influence_canonical_scalar(tt)
            if scalar != canonical:  # pragma: no cover - canonicalizer bug
                sys.stderr.write("scalar search disagrees with the canonical form\n")
                return 1
        permutations, candidates, materialized = (
            int(steps.value(kind=kind) - start) for kind, start in zip(kinds, before)
        )
        print(
            f"search:     {permutations} permutations, "
            f"{candidates} phase candidates, {materialized} materialized"
        )
    return 0


def _cmd_match(args) -> int:
    from repro.baselines.matcher import find_npn_transform

    source = _parse_one(args.source, args.n)
    target = _parse_one(args.target, args.n)
    transform = find_npn_transform(source, target)
    if transform is None:
        print("NOT NPN equivalent")
        return 1
    print(f"NPN equivalent via {transform}")
    print(
        f"perm={transform.perm} input_phase={transform.input_phase:#x} "
        f"output_phase={transform.output_phase}"
    )
    return 0


def _parse_arity_spec(spec: str) -> list[int]:
    """Parse ``--inputs``: comma-separated items, each ``N`` or ``A-B``."""
    from repro.core.bitops import MAX_VARS

    arities: set[int] = set()
    try:
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "-" in item:
                low, high = item.split("-", 1)
                arities.update(range(int(low), int(high) + 1))
            else:
                arities.add(int(item))
    except ValueError:
        raise ValueError(
            f"--inputs {spec!r} is not a comma-separated list of arities "
            f"(items are N or A-B)"
        ) from None
    if not arities or min(arities) < 1:
        raise ValueError(f"--inputs {spec!r} selects no valid arity (need n >= 1)")
    if max(arities) > MAX_VARS:
        raise ValueError(
            f"--inputs {spec!r} exceeds the supported arity range "
            f"(n <= {MAX_VARS})"
        )
    return sorted(arities)


def _parse_sizes(spec: str) -> list[int]:
    """Parse a ``--sizes`` list; rejects non-integers and sizes < 1."""
    try:
        sizes = [int(piece) for piece in spec.split(",")]
    except ValueError:
        raise ValueError(
            f"--sizes {spec!r} is not a comma-separated list of integers"
        ) from None
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes {spec!r} needs sizes >= 1")
    return sizes


def _load_library_or_fail(path: str, keep=None):
    """Load a library (``keep``: see ``ClassLibrary.load``) or print the
    error plus the recovery command."""
    from repro.library import ClassLibrary, LibraryFormatError

    try:
        return ClassLibrary.load(path, keep)
    except LibraryFormatError as exc:
        print(
            f"cannot load library: {exc}\n"
            f"(build one with: repro-npn library build --inputs 4 "
            f"--out {path})",
            file=sys.stderr,
        )
        return None


def _cmd_library(args) -> int:
    if args.library_command == "build":
        return _cmd_library_build(args)
    if args.library_command == "compact":
        return _cmd_library_compact(args)
    if args.library_command == "migrate":
        return _cmd_library_migrate(args)
    library = _load_library_or_fail(args.library)
    if library is None:
        return 2
    if args.library_command == "stats":
        print(
            format_table(
                library.stats(),
                title=f"Class library {args.library} — parts {library.parts}",
            )
        )
        return 0
    # library match
    import json as json_module

    tt = _parse_one(args.table, args.n)
    hit = library.match(tt)
    if hit is None:
        print(f"NO MATCH: {tt!r} is outside the library's classes")
        return 1
    print(f"class:     {hit.class_id}")
    print(f"rep:       {hit.representative!r}")
    print(f"witness:   {hit.transform}")
    print(f"witness json: {json_module.dumps(hit.transform.as_dict())}")
    print(f"verified:  {hit.verify(tt)}")
    return 0


def _cmd_library_build(args) -> int:
    from itertools import chain

    from repro.library import build_library
    from repro.workloads.library_corpus import EXHAUSTIVE_MAX_VARS, corpus_for_arity

    try:
        arities = _parse_arity_spec(args.inputs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.samples < 1 and any(n > EXHAUSTIVE_MAX_VARS for n in arities):
        print(
            f"--samples must be >= 1 to cover arities above "
            f"{EXHAUSTIVE_MAX_VARS}, got {args.samples}",
            file=sys.stderr,
        )
        return 2
    corpus = chain.from_iterable(
        corpus_for_arity(n, args.samples, args.seed) for n in arities
    )
    library = build_library(corpus, exact=args.exact)
    path = library.save(args.out)
    print(
        format_table(
            library.stats(),
            title=f"Class library — arities {','.join(map(str, arities))}",
        )
    )
    print(f"saved {library.num_classes} classes to {path}")
    return 0


def _cmd_library_compact(args) -> int:
    from repro.library import LearningLibrary, LibraryFormatError

    try:
        learner = LearningLibrary.open(args.library, create=True)
    except LibraryFormatError as exc:
        print(f"cannot open library: {exc}", file=sys.stderr)
        return 2
    try:
        result = learner.compact()
    finally:
        learner.close()
    if result.path is None:
        print(f"{args.library}: no write-ahead segments to compact")
        return 0
    print(
        f"compacted {result.merged_records} WAL records "
        f"({result.removed_segments} segments) into {result.path} — "
        f"{result.num_classes} classes"
    )
    return 0


def _cmd_library_migrate(args) -> int:
    from repro.library import LibraryFormatError, migrate_library

    try:
        result = migrate_library(args.library)
    except LibraryFormatError as exc:
        print(f"cannot migrate library: {exc}", file=sys.stderr)
        return 2
    print(
        f"migrated {result.path} to version 3 with {result.merged_records} "
        f"WAL records ({result.removed_segments} segments) — "
        f"{result.num_classes} classes"
    )
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.library import DEFAULT_SEGMENT_BYTES, LearningLibrary
    from repro.library.store import LibraryFormatError
    from repro.service import ClassificationService
    from repro.service.coalescer import validate_service_knobs

    # Knob validation first (the Coalescer's own rules), so a flag typo
    # fails before the potentially expensive library load.
    try:
        validate_service_knobs(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
            max_pending=args.max_pending,
            cache_size=args.cache_size,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not args.learn:
        for flag, value in (
            ("--wal-segment-bytes", args.wal_segment_bytes),
            ("--wal-fsync", args.wal_fsync),
        ):
            if value is not None:
                print(f"{flag} requires --learn", file=sys.stderr)
                return 2
        library = _load_library_or_fail(args.library)
        learner = None
    else:
        segment_bytes = (
            DEFAULT_SEGMENT_BYTES
            if args.wal_segment_bytes is None
            else args.wal_segment_bytes
        )
        if segment_bytes < 1:
            print(
                f"--wal-segment-bytes must be >= 1, got {segment_bytes}",
                file=sys.stderr,
            )
            return 2
        try:
            # Open-with-replay: leftover segments from a crashed daemon
            # are folded back in before the first request is served.
            learner = LearningLibrary.open(
                args.library,
                segment_bytes=segment_bytes,
                fsync=args.wal_fsync or "close",
            )
        except LibraryFormatError as exc:
            print(
                f"cannot load library: {exc}\n"
                f"(build one with: repro-npn library build --inputs 4 "
                f"--out {args.library})",
                file=sys.stderr,
            )
            return 2
        library = learner.library
    if library is None:
        return 2
    from repro.service.server import DEFAULT_SLOW_MS, DEFAULT_TRACE_SAMPLE

    if args.trace_sample is not None and args.trace_sample < 1:
        print("--trace-sample must be >= 1", file=sys.stderr)
        return 2
    service = ClassificationService(
        library,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        learner=learner,
        slow_ms=DEFAULT_SLOW_MS if args.slow_ms is None else args.slow_ms,
        trace_sample=(
            DEFAULT_TRACE_SAMPLE
            if args.trace_sample is None
            else args.trace_sample
        ),
    )
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _cmd_router(args) -> int:
    import asyncio

    from repro.fabric.backoff import RetryPolicy
    from repro.fabric.router import RouterService
    from repro.service.server import DEFAULT_SLOW_MS, DEFAULT_TRACE_SAMPLE

    if args.trace_sample is not None and args.trace_sample < 1:
        print("--trace-sample must be >= 1", file=sys.stderr)
        return 2
    try:
        policy = RetryPolicy(
            attempts=args.attempts,
            base_ms=args.base_ms,
            cap_ms=args.cap_ms,
            timeout_ms=args.timeout_ms,
        )
        service = RouterService(
            host=args.host,
            port=args.port,
            policy=policy,
            heartbeat_interval_s=args.heartbeat_interval_s,
            slow_ms=DEFAULT_SLOW_MS if args.slow_ms is None else args.slow_ms,
            trace_sample=(
                DEFAULT_TRACE_SAMPLE
                if args.trace_sample is None
                else args.trace_sample
            ),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        asyncio.run(service.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _cmd_worker(args) -> int:
    import asyncio

    from repro.fabric.ring import HashRing, parse_ring_spec
    from repro.fabric.worker import FabricWorker
    from repro.service.coalescer import validate_service_knobs

    try:
        nodes = parse_ring_spec(args.ring)
        ring = HashRing(nodes, vnodes=args.vnodes, replicas=args.replicas)
        validate_service_knobs(
            max_batch=args.max_batch,
            max_wait_ms=args.max_wait_ms,
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.worker_id not in nodes:
        print(
            f"--id {args.worker_id!r} is not on the ring {args.ring!r}",
            file=sys.stderr,
        )
        return 2
    # Read-only shard serving: each worker reads the whole library and
    # keeps (and verifies) only the entries its ring arcs own (plus
    # replicas).
    shard = _load_library_or_fail(
        args.library, ring.shard_filter(args.worker_id)
    )
    if shard is None:
        return 2
    worker = FabricWorker(
        shard,
        worker_id=args.worker_id,
        router_address=args.router_addr,
        ring=ring,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
    )
    try:
        asyncio.run(worker.serve_forever())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler race
        pass
    return 0


def _cmd_query(args) -> int:
    import json as json_module

    from repro.service import ServiceClient, ServiceError
    from repro.service.client import http_get

    # HTTP-backed introspection commands: one-shot GETs, no NDJSON
    # connection needed.
    if args.query_command == "trace" or (
        args.query_command == "stats" and args.prometheus
    ):
        try:
            if args.query_command == "stats":
                status, body = http_get(args.addr, "/metrics")
                if status != 200:
                    print(f"GET /metrics returned {status}", file=sys.stderr)
                    return 2
                print(body, end="")
                return 0
            status, body = http_get(
                args.addr, f"/v1/trace/recent?limit={args.limit}"
            )
            if status != 200:
                print(f"GET /v1/trace/recent returned {status}", file=sys.stderr)
                return 2
            payload = json_module.loads(body)
            if args.json:
                print(json_module.dumps(payload, indent=2, sort_keys=True))
                return 0
            traces = payload["slow" if args.slow else "traces"]
            tracer = payload.get("tracer", {})
            print(
                f"{len(traces)} trace(s) "
                f"(finished={tracer.get('finished_total')}, "
                f"slow={tracer.get('slow_total')}, "
                f"slow_ms={tracer.get('slow_ms')})"
            )
            for trace in traces:
                spans = " ".join(
                    f"{span['name']}={span['duration_ms']:.2f}ms"
                    for span in trace["spans"]
                )
                meta = trace.get("meta", {})
                suffix = f"  {meta}" if meta else ""
                print(
                    f"{trace['trace_id']}  op={trace['op']:<9}"
                    f"{trace['duration_ms']:9.2f}ms  {spans}{suffix}"
                )
            return 0
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        except ServiceError as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(
                f"cannot reach {args.addr}: {exc}\n"
                f"(start a daemon with: repro-npn serve --library npn_library)",
                file=sys.stderr,
            )
            return 2

    if args.query_command == "ping":
        # Retries draw their sleep schedule from the fabric's one backoff
        # policy — the same capped exponential + full jitter the router
        # re-dispatches with.
        from repro.fabric.backoff import RetryPolicy, retry_call
        from repro.service import ServiceUnavailableError

        def do_ping() -> dict:
            with ServiceClient.from_address(args.addr) as client:
                return client.ping()

        try:
            policy = RetryPolicy(
                attempts=args.retries + 1,
                base_ms=args.backoff_ms,
                cap_ms=max(args.backoff_ms, args.backoff_ms * 16),
                timeout_ms=None,
            )
            result = retry_call(
                do_ping, policy, (ServiceUnavailableError, OSError)
            )
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        except (ServiceUnavailableError, OSError) as exc:
            tried = f" after {args.retries + 1} attempts" if args.retries else ""
            print(
                f"cannot reach {args.addr}{tried}: {exc}\n"
                f"(start a daemon with: repro-npn serve --library npn_library)",
                file=sys.stderr,
            )
            return 2
        except ServiceError as exc:
            print(f"query failed: {exc}", file=sys.stderr)
            return 2
        print(json_module.dumps(result, sort_keys=True))
        return 0

    try:
        client = ServiceClient.from_address(args.addr)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        with client:
            if args.query_command == "stats":
                print(json_module.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            try:
                tt = _parse_one(args.table, args.n)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            if args.query_command == "classify":
                result = client.classify(tt)
                print(f"class:     {result['class_id']}")
                print(f"known:     {result['known']}")
                return 0
            # query match
            result = client.match(tt)
            if not result["hit"]:
                print(f"NO MATCH: {tt!r} is outside the served classes")
                return 1
            print(f"class:     {result['class_id']}")
            print(f"rep:       0x{result['representative']}")
            print(f"witness json: {json_module.dumps(result['transform'])}")
            print(f"cached:    {result['cached']}")
            verified = ServiceClient.verify(result, tt)
            print(f"verified:  {verified}")
            return 0 if verified else 1
    except ServiceError as exc:
        print(f"query failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(
            f"cannot reach {args.addr}: {exc}\n"
            f"(start a daemon with: repro-npn serve --library npn_library)",
            file=sys.stderr,
        )
        return 2


def _cmd_cutmatch(args) -> int:
    from repro.experiments.cutmatch import (
        class_hit_rows,
        cut_match_rows,
        run_cut_matching,
    )
    from repro.workloads.epfl import epfl_like_suite

    library = _load_library_or_fail(args.library)
    if library is None:
        return 2
    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    suite = epfl_like_suite(scale=args.scale)
    if args.circuits is not None:
        wanted = [name.strip() for name in args.circuits.split(",") if name.strip()]
        unknown = sorted(set(wanted) - set(suite))
        if unknown:
            print(
                f"unknown circuits {unknown}; available: {sorted(suite)}",
                file=sys.stderr,
            )
            return 2
        suite = {name: suite[name] for name in wanted}
    rows, class_hits = run_cut_matching(
        library, suite, sizes=sizes, max_cuts=args.max_cuts
    )
    print(
        format_table(
            cut_match_rows(library, rows, class_hits),
            title=f"Cut matching — sizes {args.sizes}, library {args.library}",
        )
    )
    print()
    print(
        format_table(
            class_hit_rows(library, class_hits, top=args.top),
            title=f"Top {args.top} classes by cut hits",
        )
    )
    return 0


def _cmd_suite() -> int:
    from repro.workloads.epfl import epfl_like_suite, suite_summary

    rows = suite_summary(epfl_like_suite())
    print(format_table(rows, title="EPFL-like benchmark suite"))
    return 0


def _cmd_extract(args) -> int:
    from repro.workloads.epfl import epfl_like_suite
    from repro.workloads.extraction import extract_cut_functions, extraction_report

    try:
        sizes = _parse_sizes(args.sizes)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    suite = epfl_like_suite(scale=args.scale)
    functions = extract_cut_functions(
        suite.values(), sizes=sizes, limit_per_size=args.limit
    )
    print(format_table(extraction_report(functions), title="Extracted cut functions"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
