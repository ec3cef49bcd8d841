"""The four workloads: one library call, one daemon, learn-on-miss, the router.

Each workload is a function ``(seed, seconds, traced, work, recorder)
-> Outcome``.  It builds its inputs from ``seed``, builds its library,
sets the system up several times (``setup_s`` is the median), warms it
with inputs of the same distribution that are not reused, and runs a
timed phase of fixed work sized from ``seconds`` in rounds, with
sequential latency and library builds between them; every answer is
checked offline.  With ``traced`` the served processes start through
the traced launcher and the per-layer metrics are filled in from their
spans, the harness's spans (``recorder``) and the program's
``/metrics``.

Timings are reported scaled to reference host speed
(:class:`harness.HostSpeed`), each step — a build, a set-up, a load, a
``run_cut_matching`` pass, a segment of a daemon's timed round — by the
probes right around it; ``serve-learn``'s throughput is the exception,
reported as measured.  The raw figures are kept beside them
(``*_raw_*`` in ``Outcome.metrics``).
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.aig.cuts import iter_cut_functions
from repro.core.msv import compute_msv
from repro.core.transforms import NPNTransform, random_transform
from repro.core.truth_table import TruthTable
from repro.experiments.cutmatch import run_cut_matching
from repro.fabric.chaos import wait_until
from repro.library import ClassLibrary, build_library
from repro.workloads import (
    miss_heavy_queries,
    random_tables,
    with_repeats,
)
from repro.workloads.epfl import epfl_like_suite

import harness
import spans as spans_mod
from harness import Daemon, PipelinedClient, median, percentile, request_line

# ----------------------------------------------------------------------
# Workload constants
# ----------------------------------------------------------------------

ARITY = 6
#: Classes of the random library ``serve-hit`` and ``route-hit`` serve.
HIT_LIBRARY_CLASSES = 64
#: Classes of the seed library ``serve-learn`` starts from.
LEARN_LIBRARY_CLASSES = 64
#: Copies of each distinct function in ``serve-learn``'s traffic.
LEARN_REPEATS = 4
#: Share of ``serve-learn``'s distinct functions that miss the library.
LEARN_MISS_FRACTION = 0.8
#: Distinct functions per ``with_repeats`` shuffle in ``serve-learn``.
LEARN_BLOCK = 64
#: Circuits of the EPFL-like suite matched in ``cuts-library``: the
#: arithmetic family plus small control circuits, whose cut functions are
#: heavily shared (5,117 cut occurrences, 590 distinct functions).
CUT_CIRCUITS = ("adder", "arbiter", "cla", "comparator", "max", "parity",
                "priority", "subtractor")
CUT_SIZES = (4, 5, 6)
CUT_MAX = 16

#: Daemon set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The timed phase runs in this many rounds; between two rounds come a
#: share of the latency phase, one more library build (``build_s`` is
#: the median of all builds) and, in ``cuts-library``, one more load.
#: The host's speed drifts over seconds, so each metric's samples are
#: spread over the whole run instead of one stretch of it.
ROUNDS = 4
#: Outstanding requests of the closed loop (below ``--max-pending``).
WINDOW = 512
LEARN_WINDOW = 16
#: Replies per throughput sample (the timed phase is cut into slices of
#: this many verified replies; ``throughput_qps`` is their median).
SLICE = {"serve": 2048, "route": 1024, "learn": 256}  # learn: one block
#: The timed phase is fixed work, sized as ``seconds`` at these nominal
#: rates (about what a 2-core host reaches), so every run of a workload
#: does the same work and leaves the same state (cache fill, minted
#: classes) behind.  A run is cut at ``TIME_CAP`` times ``seconds``.
NOMINAL_QPS = {"serve": 3500, "route": 1200, "learn": 250}
NOMINAL_CUT_PASS_S = 1.6
#: Seconds (at the nominal rate) of one segment of a timed round: each
#: segment runs between two host-speed probes, which speak for a few
#: seconds at most.
SEGMENT_S = 2.0
TIME_CAP = 3
#: The libraries are fixed parts of the workloads (like the circuit
#: suite), so every run sets up and builds the same thing; the seed
#: draws the queries.
LIBRARY_SEED = 2023
WARM_QUERIES = 3000
LATENCY_QUERIES = 400
LEARN_WARM_DISTINCT = 64
LEARN_LATENCY_DISTINCT = 64

END_TO_END_UNITS = {
    "throughput_qps": "1/s",
    "setup_s": "s",
    "build_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "aig.cuts": "count",
    "aig.enumerate_s": "s",
    "engine.signature_rows": "count",
    "engine.signatures_s": "s",
    "engine.self_s": "s",
    "kernels.canonical_min_rows": "count",
    "kernels.canonical_min_s": "s",
    "kernels.setup_canonical_min_s": "s",
    "kernels.build_canonical_min_s": "s",
    "canonical.forms_rows": "count",
    "canonical.forms_s": "s",
    "canonical.ms_per_form": "ms",
    "matcher.queries": "count",
    "matcher.grouped_s": "s",
    "matcher.self_s": "s",
    "library.load_s": "s",
    "library.match_queries": "count",
    "library.match_many_s": "s",
    "library.self_s": "s",
    "library.hit_ratio": "ratio",
    "library.learn_s": "s",
    "library.minted": "count",
    "library.wal_appends": "count",
    "library.wal_append_s": "s",
    "service.cpu_s": "s",
    "service.client_cpu_s": "s",
    "service.batches": "count",
    "service.batch_size_mean": "count",
    "service.queue_wait_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.rtt_p50_ms": "ms",
    "service.rtt_p99_ms": "ms",
    "service.rtt_samples": "count",
    "service.errors": "count",
    "fabric.route_s": "s",
    "fabric.route_us_per_query": "us",
    "fabric.router_cpu_s": "s",
    "fabric.worker_cpu_s": "s",
    "fabric.dispatch_ms": "ms",
    "fabric.retries": "count",
    "fabric.hedges": "count",
    "fabric.degraded": "count",
    "obs.tracing_overhead": "ratio",
    "trace.window_s": "s",
    "trace.unaccounted_share": "ratio",
}


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    samples: dict[str, list] = field(default_factory=dict)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------


class _Builds:
    """``build_library`` over a workload's functions, sampled through a run.

    The first build makes the library the run uses; :meth:`sample` builds
    it again between timed rounds.  Each build is timed between two
    probes of :attr:`speed`, the run's :class:`harness.HostSpeed`, and
    ``build_s`` is scaled to reference host speed (``build_raw_s`` is as
    measured).  With a recorder, the first build's kernel time becomes
    ``kernels.build_canonical_min_s``.
    """

    def __init__(self, tables, out: Outcome, recorder=None) -> None:
        self.tables = list(tables)
        self.out = out
        self.speed = harness.HostSpeed()
        self.times = out.samples.setdefault("build_s", [])
        self.raw = out.samples.setdefault("build_raw_s", [])
        self.library, factor, window = self.speed.time(
            build_library, self.tables)
        self._record(factor, window)
        if recorder is not None:
            summary = spans_mod.summarize(recorder.spans, *window)
            out.layers["kernels.build_canonical_min_s"] = spans_mod.get(
                summary, "kernels.canonical_min", "s")

    def _record(self, factor: float, window) -> None:
        measured = window[1] - window[0]
        self.times.append(measured * factor)
        self.raw.append(measured)
        self.out.metrics["build_s"] = median(self.times)
        self.out.metrics["build_raw_s"] = median(self.raw)

    def sample(self) -> None:
        _, factor, window = self.speed.time(build_library, self.tables)
        self._record(factor, window)


def _chunks(items: list, rounds: int, unit: int = 1) -> list[list]:
    """``items`` cut into at most ``rounds`` consecutive chunks of whole
    ``unit``-sized blocks."""
    blocks = -(-len(items) // unit)
    size = -(-blocks // rounds) * unit
    return [items[i:i + size] for i in range(0, len(items), size)]


def _copy_library(master: Path, work: Path, tag: str) -> Path:
    """A fresh copy of the saved image (no gather tables, no WAL)."""
    target = work / f"lib-{tag}"
    target.mkdir()
    for name in ("manifest.json", "classes.npz"):
        shutil.copyfile(master / name, target / name)
    return target


def _distinct_images(reps, count: int, rng: random.Random, seen: set):
    """``count`` random NPN images of ``reps`` never seen before."""
    out = []
    while len(out) < count:
        table = rng.choice(reps).apply(random_transform(ARITY, rng))
        if table.bits not in seen:
            seen.add(table.bits)
            out.append(table)
    return out


def _check_reply(reply, query, out: Outcome, class_of: dict) -> bool:
    """One served answer: ok, a hit, a witness that re-verifies offline,
    and the same class id as every earlier copy of the same query."""
    if reply is None:
        out.problem(f"no reply for 0x{query.to_hex()}")
        return False
    if not reply.get("ok"):
        out.problem(f"error reply {reply.get('error')}")
        return False
    result = reply["result"]
    if not result.get("hit"):
        out.problem(f"miss for 0x{query.to_hex()}")
        return False
    rep = TruthTable.from_hex(result["n"], result["representative"])
    if rep.apply(NPNTransform.from_dict(result["transform"])) != query:
        out.problem(f"witness for 0x{query.to_hex()} does not re-verify")
        return False
    first = class_of.setdefault(query.bits, result["class_id"])
    if first != result["class_id"]:
        out.problem(
            f"0x{query.to_hex()} answered {first} and {result['class_id']}"
        )
        return False
    return True


def _check_all(queries, replies, out: Outcome, class_of: dict) -> list[bool]:
    ok = [_check_reply(r, q, out, class_of) for q, r in zip(queries, replies)]
    out.attempted += len(ok)
    out.failed += ok.count(False)
    return ok


def _arity_mix(tables) -> dict:
    counts = Counter(t.n for t in tables)
    total = sum(counts.values()) or 1
    return {str(n): round(c / total, 4) for n, c in sorted(counts.items())}


def _input_properties(sent, misses: int, class_of: dict, library_classes: int):
    distinct = len({t.bits for t in sent})
    return {
        "queries": len(sent),
        "repeat_share": round(1 - distinct / len(sent), 4) if sent else 0.0,
        "miss_share": round(misses / len(sent), 4) if sent else 0.0,
        "distinct_classes": len(set(class_of.values())),
        "arity_mix": _arity_mix(sent),
        "library_classes": library_classes,
    }


def _client_cpu() -> float:
    times = os.times()
    return times.user + times.system


# ----------------------------------------------------------------------
# Daemon deployments
# ----------------------------------------------------------------------


class Deployment:
    """One daemon, or a router with one worker, on a fresh library copy."""

    def __init__(self, library: Path, work: Path, kind: str, tag: str,
                 traced: bool) -> None:
        self.kind = kind
        self.router = None
        self.spans_paths = {}

        def spans_for(role):
            if not traced:
                return None
            path = work / f"spans-{role}-{tag}.json"
            self.spans_paths[role] = path
            return path

        if kind == "route":
            self.router = Daemon(
                "router", ["router", "--port", "0"],
                "routing on", work, spans_for("router"),
            )
            self.serving = None
            try:
                self.serving = Daemon(
                    "worker",
                    ["worker", "--id", "w0", "--ring", "w0", "--library",
                     str(library), "--router", self.router.address,
                     "--port", "0"],
                    "serving", work, spans_for("serving"),
                )
                if not wait_until(self._worker_alive, 60.0, 0.01):
                    raise RuntimeError(
                        "the router never reported the worker alive")
            except BaseException:
                self.stop()
                raise
            self.ready_at = time.perf_counter()
            self.setup_s = self.ready_at - self.router.started
            self.front = self.router.address
        else:
            argv = ["serve", "--library", str(library), "--port", "0"]
            if kind == "learn":
                argv.append("--learn")
            self.serving = Daemon("daemon", argv, "serving", work,
                                  spans_for("serving"))
            self.ready_at = self.serving.ready_at
            self.setup_s = self.serving.setup_s
            self.front = self.serving.address

    def _worker_alive(self) -> bool:
        stats = json.loads(harness.http_get(self.router.address, "/v1/stats"))
        return stats["registry"]["counts"].get("alive", 0) == 1

    def daemons(self) -> list[Daemon]:
        return [d for d in (self.router, self.serving) if d is not None]

    def cpu(self) -> dict:
        return {d.name: d.cpu_seconds() for d in self.daemons()}

    def peak_rss_mb(self) -> float:
        return sum(d.peak_rss_mb() for d in self.daemons())

    def scrape(self) -> dict:
        return {
            d.name: harness.parse_prometheus(harness.http_get(d.address, "/metrics"))
            for d in self.daemons()
        }

    def stop(self) -> None:
        # Workers first: a router outliving its worker only logs a
        # dead channel, a worker outliving its router keeps retrying.
        for daemon in reversed(self.daemons()):
            daemon.stop()


def _queue_wait_ms(address: str) -> float:
    """Mean ``queue`` span of the daemon's recent sampled traces."""
    payload = json.loads(harness.http_get(address, "/v1/trace/recent?limit=256"))
    waits = [
        span["duration_ms"]
        for trace in payload.get("traces", [])
        for span in trace.get("spans", [])
        if span.get("name") == "queue"
    ]
    return sum(waits) / len(waits) if waits else 0.0


def _setups(master: Path, work: Path, kind: str, traced: bool, out: Outcome,
            speed: harness.HostSpeed) -> Deployment:
    """Set the system up ``SETUP_REPEATS`` times, each between two
    host-speed probes; keep the last one."""
    setups, raw, deployment = [], [], None
    repeats = 1 if traced else SETUP_REPEATS
    for index in range(repeats):
        if deployment is not None:
            deployment.stop()
        library = _copy_library(master, work, f"{kind}{index}")
        deployment, factor, _ = speed.time(
            Deployment, library, work, kind, str(index), traced)
        setups.append(deployment.setup_s * factor)
        raw.append(deployment.setup_s)
    out.samples["setup_s"] = setups
    out.metrics["setup_s"] = median(setups)
    out.samples["setup_raw_s"] = raw
    out.metrics["setup_raw_s"] = median(raw)
    return deployment


def _serve_layers(out: Outcome, deployment: Deployment, window, scrapes,
                  cpu, client_cpu, queue_wait_ms, rtts) -> None:
    """Per-layer metrics of a traced daemon pass."""
    start, end = window
    before, after = scrapes
    layers = out.layers
    name = deployment.serving.name
    serving = before[name], after[name]
    served = spans_mod.load(deployment.spans_paths["serving"])
    timed = spans_mod.summarize(served, start, end)
    setup = spans_mod.summarize(served, 0.0, deployment.serving.ready_at)
    _span_layers(layers, timed)
    layers["library.load_s"] = spans_mod.get(setup, "library.load", "s")
    layers["kernels.setup_canonical_min_s"] = spans_mod.get(
        setup, "kernels.canonical_min", "s")
    d = lambda name, **labels: harness.delta(*serving, name, **labels)  # noqa: E731
    queries = d("repro_library_match_queries_total")
    layers["library.hit_ratio"] = (
        d("repro_library_match_queries_total", outcome="hit") / queries
        if queries else 0.0
    )
    layers["library.minted"] = d("repro_library_classes_minted_total")
    batches = d("repro_service_batch_size_count")
    layers["service.batches"] = batches
    layers["service.batch_size_mean"] = (
        d("repro_service_batch_size_sum") / batches if batches else 0.0
    )
    lookups = d("repro_cache_match_lookups_total")
    layers["service.cache_hit_ratio"] = (
        d("repro_cache_match_lookups_total", result="hit") / lookups
        if lookups else 0.0
    )
    layers["service.cpu_s"] = cpu[1][name] - cpu[0][name]
    layers["service.client_cpu_s"] = client_cpu
    layers["service.queue_wait_ms"] = queue_wait_ms
    layers["service.rtt_p50_ms"] = median(rtts)
    layers["service.rtt_p99_ms"] = percentile(rtts, 99)
    layers["service.rtt_samples"] = len(rtts)
    layers["trace.window_s"] = end - start
    layers["trace.unaccounted_share"] = 1.0 - timed["covered_share"]
    # Cross-checks: the span counts against the series the operator sees.
    checks = [
        ("library.match_queries", layers["library.match_queries"], queries),
        ("service.batches (engine calls)",
         spans_mod.get(timed, "engine.signatures", "calls"), batches),
        ("engine.signature_rows", layers["engine.signature_rows"],
         d("repro_service_batch_size_sum")),
        ("library.wal_appends", layers["library.wal_appends"],
         d("repro_wal_appends_total")),
    ]
    if deployment.kind == "route":
        routed = spans_mod.load(deployment.spans_paths["router"])
        router_timed = spans_mod.summarize(routed, start, end)
        rb, ra = before["router"], after["router"]
        r = lambda name, **labels: harness.delta(rb, ra, name, **labels)  # noqa: E731
        route_s = spans_mod.get(router_timed, "fabric.shard_key", "s")
        keys = spans_mod.get(router_timed, "fabric.shard_key", "rows")
        layers["fabric.route_s"] = route_s
        layers["fabric.route_us_per_query"] = route_s / keys * 1e6 if keys else 0.0
        layers["fabric.router_cpu_s"] = cpu[1]["router"] - cpu[0]["router"]
        layers["fabric.worker_cpu_s"] = layers["service.cpu_s"]
        dispatches = r("repro_fabric_dispatch_seconds_count")
        layers["fabric.dispatch_ms"] = (
            r("repro_fabric_dispatch_seconds_sum") / dispatches * 1000.0
            if dispatches else 0.0
        )
        layers["fabric.retries"] = r("repro_fabric_retries_total")
        layers["fabric.hedges"] = r("repro_fabric_hedges_total")
        layers["fabric.degraded"] = r("repro_fabric_degraded_total")
        checks.append(("fabric.shard_key rows", keys,
                       r("repro_fabric_requests_total", op="match")))
    for label, from_spans, from_metrics in checks:
        if int(from_spans) != int(from_metrics):
            out.problem(
                f"cross-check {label}: spans {int(from_spans)} != "
                f"/metrics {int(from_metrics)}"
            )


def _span_layers(layers: dict, timed: dict) -> None:
    """Layer metrics that come straight from one span summary."""
    g = lambda name, f: spans_mod.get(timed, name, f)  # noqa: E731
    layers["aig.cuts"] = g("aig.enumerate", "rows")
    layers["aig.enumerate_s"] = g("aig.enumerate", "s")
    layers["engine.signature_rows"] = g("engine.signatures", "rows")
    layers["engine.signatures_s"] = g("engine.signatures", "s")
    layers["engine.self_s"] = g("engine.signatures", "self_s")
    layers["kernels.canonical_min_rows"] = g("kernels.canonical_min", "rows")
    layers["kernels.canonical_min_s"] = g("kernels.canonical_min", "s")
    forms = g("canonical.forms", "rows")
    layers["canonical.forms_rows"] = forms
    layers["canonical.forms_s"] = g("canonical.forms", "s")
    layers["canonical.ms_per_form"] = (
        g("canonical.forms", "s") / forms * 1000.0 if forms else 0.0
    )
    layers["matcher.queries"] = g("matcher.grouped", "rows")
    layers["matcher.grouped_s"] = g("matcher.grouped", "s")
    layers["matcher.self_s"] = g("matcher.grouped", "self_s")
    layers["library.match_queries"] = g("library.match_many", "rows")
    layers["library.match_many_s"] = g("library.match_many", "s")
    layers["library.self_s"] = g("library.match_many", "self_s")
    layers["library.learn_s"] = g("library.learn", "s")
    layers["library.wal_appends"] = g("library.wal_append", "rows")
    layers["library.wal_append_s"] = g("library.wal_append", "s")


def _timed_round(client: PipelinedClient, chunk: list, segments: int,
                 unit: int, cap: float, speed: harness.HostSpeed,
                 slice_size: int, out: Outcome, class_of: dict,
                 rates: list, scaled: list) -> list:
    """One timed round, sent as ``segments`` closed-loop runs with a host
    speed probe between two of them; returns the queries sent.

    Appends each segment's slice rates to ``rates`` as measured and to
    ``scaled`` scaled by the probes right around the segment.  The round
    is cut once ``cap`` seconds have passed.
    """
    deadline = time.perf_counter() + cap
    sent_queries: list = []
    for segment in _chunks(chunk, segments, unit):
        lines = [request_line(i, t) for i, t in enumerate(segment)]
        before = speed.probe()
        sent, replies, done_at = client.run(
            lines, max(0.0, deadline - time.perf_counter()))
        factor = speed.factor(before, speed.probe())
        if client.error is not None:
            out.problem(f"transport failure: {client.error}")
            break
        ok = _check_all(segment[:sent], replies[:sent], out, class_of)
        segment_rates = harness.slice_throughput(done_at[:sent], ok, slice_size)
        rates += segment_rates
        scaled += [rate / factor for rate in segment_rates]
        sent_queries += segment[:sent]
        if sent < len(segment):
            break
    return sent_queries


def _daemon_pass(kind: str, master: Path, work: Path, traced: bool,
                 warm, timed_queries, latency, seconds: int, window: int,
                 slice_size: int, out: Outcome, class_of: dict, builds,
                 unit: int = 1, on_finish=None,
                 scale_throughput: bool = True) -> list:
    """Set up, warm, then timed rounds, each followed by a share of the
    latency phase and one more build (``builds.sample()``); stop; return
    what was timed.

    Timed chunks are whole ``unit``-sized blocks of ``timed_queries``,
    sent in segments of about ``SEGMENT_S`` seconds at the nominal rate.
    ``throughput_qps`` is scaled to reference host speed segment by
    segment unless ``scale_throughput`` is false.
    ``on_finish(deployment)`` runs after the last request, before the
    processes are stopped.  A traced pass runs one round; its window is
    the one the per-layer metrics cover.
    """
    timed_chunks = _chunks(timed_queries, 1 if traced else ROUNDS, unit)
    latency_chunks = _chunks(latency, len(timed_chunks))
    cap = seconds * TIME_CAP / len(timed_chunks)
    segments = 1
    if scale_throughput:
        segments = max(1, round(len(timed_chunks[0]) / (NOMINAL_QPS[kind] * SEGMENT_S)))
    timed_sent, rates, scaled, rtts = [], [], [], []
    speed = builds.speed
    deployment = _setups(master, work, kind, traced, out, speed)
    try:
        with PipelinedClient(deployment.front, window) as client:
            warm_lines = [request_line(i, t) for i, t in enumerate(warm)]
            _, warm_replies, _ = client.run(warm_lines)
            _check_all(warm, warm_replies, out, class_of)
            for index, chunk in enumerate(timed_chunks):
                if index == 0:
                    scrape0, cpu0 = deployment.scrape(), deployment.cpu()
                    client0, probes0 = _client_cpu(), len(speed.probes)
                    start = time.perf_counter()
                timed_sent += _timed_round(client, chunk, segments, unit, cap,
                                           speed, slice_size, out, class_of,
                                           rates, scaled)
                if index == 0:
                    end = time.perf_counter()
                    # The probes run in the harness too; they are not load.
                    client_cpu = (_client_cpu() - client0
                                  - sum(speed.probes[probes0:]))
                    cpu1, scrape1 = deployment.cpu(), deployment.scrape()
                    queue_wait = _queue_wait_ms(deployment.serving.address)
                if client.error is not None:
                    break
                lat_replies, lat_rtts = client.sequential(
                    [request_line(i, t) for i, t in enumerate(latency_chunks[index])]
                )
                _check_all(latency_chunks[index], lat_replies, out, class_of)
                rtts += lat_rtts
                if not traced:
                    builds.sample()
        out.metrics["peak_rss_mb"] = deployment.peak_rss_mb()
        if on_finish is not None:
            on_finish(deployment)
    finally:
        deployment.stop()
    if not rates:
        raise RuntimeError(f"timed phase too short: no slice of {slice_size} replies")
    out.samples["throughput_raw_qps"] = rates
    out.metrics["throughput_raw_qps"] = median(rates)
    if scale_throughput:
        out.samples["throughput_qps"] = scaled
        out.metrics["throughput_qps"] = median(scaled)
    else:
        out.metrics["throughput_qps"] = median(rates)
    out.metrics["probe_s"] = median(speed.probes)
    out.samples["latency_ms"] = rtts
    out.metrics["latency_p50_ms"] = median(rtts)
    if traced:
        _serve_layers(out, deployment, (start, end), (scrape0, scrape1),
                      (cpu0, cpu1), client_cpu, queue_wait, rtts)
    out.layers.setdefault("service.errors", out.failed)
    return timed_sent


# ----------------------------------------------------------------------
# serve-hit and route-hit
# ----------------------------------------------------------------------


def _hit_traffic(kind: str, seed: int, seconds: int, work: Path, recorder,
                 out: Outcome):
    builds = _Builds(random_tables(ARITY, HIT_LIBRARY_CLASSES, LIBRARY_SEED),
                     out, recorder)
    library = builds.library
    master = work / "library"
    library.save(master)
    rng = random.Random(seed)
    reps = [e.representative for e in library.entries()]
    seen: set = set()
    warm = _distinct_images(reps, WARM_QUERIES, rng, seen)
    # At least two throughput slices per round, however short the run.
    count = max(NOMINAL_QPS[kind] * seconds, 2 * ROUNDS * SLICE[kind])
    timed = _distinct_images(reps, count, rng, seen)
    latency = _distinct_images(reps, LATENCY_QUERIES, rng, seen)
    return builds, master, warm, timed, latency


def _hit_workload(kind: str, seed: int, seconds: int, traced: bool,
                  work: Path, recorder) -> Outcome:
    out = Outcome()
    builds, master, warm, timed, latency = _hit_traffic(
        kind, seed, seconds, work, recorder, out)
    class_of: dict = {}
    sent = _daemon_pass(kind, master, work, traced, warm, timed, latency,
                        seconds, WINDOW, SLICE[kind], out, class_of,
                        builds)
    out.inputs = _input_properties(sent, 0, class_of,
                                   builds.library.num_classes)
    return out


def serve_hit(seed, seconds, traced, work, recorder=None) -> Outcome:
    return _hit_workload("serve", seed, seconds, traced, work, recorder)


def route_hit(seed, seconds, traced, work, recorder=None) -> Outcome:
    return _hit_workload("route", seed, seconds, traced, work, recorder)


# ----------------------------------------------------------------------
# serve-learn
# ----------------------------------------------------------------------


class _SignatureScreen:
    """The seed library as :func:`miss_heavy_queries` sees it, with an
    exact miss test at signature cost: a function whose mixed signature
    no stored class has is certainly a miss (the signature is an NPN
    invariant); only a signature hit pays the exact lookup."""

    def __init__(self, library) -> None:
        self.library = library
        self._known = {
            library.base_id_of(compute_msv(e.representative, library.parts))
            for e in library.entries()
        }

    def entries(self):
        return self.library.entries()

    def lookup(self, table):
        base = self.library.base_id_of(compute_msv(table, self.library.parts))
        if base not in self._known:
            return None
        return self.library.lookup(table)


def _learn_traffic(screen, distinct: int, seed: int, stream: int,
                   repeats: int = LEARN_REPEATS):
    """``with_repeats(miss_heavy_queries(...))`` block by block, and the
    set of functions that miss the seed library.

    Blocks of :data:`LEARN_BLOCK` distinct functions keep the share of
    repeats the same in every prefix of the traffic, however much of it
    the timed phase gets through.
    """
    traffic, misses = [], set()
    for block in range(-(-distinct // LEARN_BLOCK)):
        block_seed = (seed * 4 + stream) * 100_003 + block
        queries = miss_heavy_queries(screen, ARITY, LEARN_BLOCK, block_seed,
                                     miss_fraction=LEARN_MISS_FRACTION)
        misses |= {t.bits for t in queries if screen.lookup(t) is None}
        traffic += with_repeats(queries, repeats, block_seed)
    return traffic, misses


def serve_learn(seed, seconds, traced, work, recorder=None) -> Outcome:
    out = Outcome()
    builds = _Builds(random_tables(ARITY, LEARN_LIBRARY_CLASSES, LIBRARY_SEED),
                     out, recorder)
    library = builds.library
    master = work / "library"
    library.save(master)
    screen = _SignatureScreen(library)
    # Three disjoint traffic streams from one seed: warm-up, timed, latency.
    warm, warm_misses = _learn_traffic(screen, LEARN_WARM_DISTINCT, seed, 1)
    timed, timed_misses = _learn_traffic(
        screen,
        max(NOMINAL_QPS["learn"] * seconds // LEARN_REPEATS, 2 * ROUNDS * LEARN_BLOCK),
        seed, 2)
    # Latency is a round trip of a distinct query, most of them misses:
    # the delay a caller sees while a class is learned.
    latency, latency_misses = _learn_traffic(
        screen, LEARN_LATENCY_DISTINCT, seed, 3, repeats=1)
    class_of: dict = {}
    minted_box = {}

    def count_minted(deployment) -> None:
        minted_box["minted"] = harness.series_total(
            deployment.scrape()["daemon"], "repro_library_classes_minted_total")

    # Throughput is reported as measured: exact canonicalization slows
    # down about half as much as the probe does (raw rates 17% apart in
    # runs whose probes were 35% apart), so scaling added noise.
    sent = _daemon_pass("learn", master, work, traced, warm, timed, latency,
                        seconds, LEARN_WINDOW, SLICE["learn"], out, class_of,
                        builds, LEARN_BLOCK * LEARN_REPEATS,
                        count_minted, scale_throughput=False)
    sent_misses = (
        {t.bits for t in warm} & warm_misses
        | {t.bits for t in sent} & timed_misses
        | {t.bits for t in latency} & latency_misses
    )
    minted = minted_box["minted"]
    if not 0 < minted <= len(sent_misses):
        out.problem(
            f"minted {minted} classes for {len(sent_misses)} distinct misses"
        )
    first_seen: set = set()
    miss_firsts = 0
    for table in sent:
        if table.bits not in first_seen:
            first_seen.add(table.bits)
            miss_firsts += table.bits in timed_misses
    out.inputs = _input_properties(sent, miss_firsts, class_of,
                                   library.num_classes)
    out.inputs["classes_minted"] = minted
    return out


# ----------------------------------------------------------------------
# cuts-library
# ----------------------------------------------------------------------


def cuts_library(seed, seconds, traced, work, recorder=None) -> Outcome:
    out = Outcome()
    suite = epfl_like_suite()
    # The suite is fixed; the seed sets the order circuits are visited in
    # (and with it the order of the build input).
    order = list(CUT_CIRCUITS)
    random.Random(seed).shuffle(order)
    circuits = {name: suite[name] for name in order}
    unique: dict = {}
    occurrences = []
    for aig in circuits.values():
        for _, _, table in iter_cut_functions(aig, CUT_SIZES, max_cuts=CUT_MAX):
            occurrences.append(table)
            unique.setdefault((table.n, table.bits), table)
    builds = _Builds(unique.values(), out, recorder)
    library = builds.library
    master = work / "library"
    library.save(master)

    # Each round loads the library (a set-up sample), matches every cut on
    # copies of the loaded, never-used library — so no pass finds
    # signatures or keys an earlier one cached — times one library call
    # per distinct function of its share (in a fixed order, each witness
    # re-verified offline), and builds once more.  Before the first
    # timed pass, one untimed pass warms the process (gather tables).
    # All of it runs in this process, so each load and pass is scaled
    # by its own factor, from the host-speed probes right around it.
    rounds = 1 if traced else ROUNDS
    passes = 1 if traced else max(1, round(seconds / NOMINAL_CUT_PASS_S / rounds))
    latency_chunks = _chunks(sorted(unique), rounds)
    speed = builds.speed
    setups, rates, windows, rtts, class_of = [], [], [], [], {}
    raw = {"setup_raw_s": [], "throughput_raw_qps": []}

    def timed_pass(fresh):
        client0 = _client_cpu()
        rows, _ = run_cut_matching(fresh, circuits, sizes=CUT_SIZES,
                                   max_cuts=CUT_MAX)
        return rows, _client_cpu() - client0

    for index, keys in enumerate(latency_chunks):
        pristine, factor, load_window = speed.time(ClassLibrary.load, master)
        measured = load_window[1] - load_window[0]
        setups.append(measured * factor)
        raw["setup_raw_s"].append(measured)
        if index == 0:
            run_cut_matching(copy.deepcopy(pristine), circuits,
                             sizes=CUT_SIZES, max_cuts=CUT_MAX)
        for _ in range(passes):
            fresh = copy.deepcopy(pristine)
            registry0 = _registry()
            (rows, client_cpu), factor, (start, end) = speed.time(
                timed_pass, fresh)
            windows.append((start, end, client_cpu, (registry0, _registry())))
            total = rows[-1]
            out.attempted += total["cuts"]
            out.failed += total["cuts"] - total["matched"]
            if total["matched"] != total["cuts"]:
                out.problem(
                    f"{total['cuts'] - total['matched']} cuts did not "
                    f"resolve against their own library"
                )
            rates.append(total["cuts"] / (end - start) / factor)
            raw["throughput_raw_qps"].append(total["cuts"] / (end - start))
        fresh = copy.deepcopy(pristine)
        for key in keys:
            table = unique[key]
            t0 = time.perf_counter()
            match = fresh.match(table)
            rtts.append((time.perf_counter() - t0) * 1000.0)
            out.attempted += 1
            if match is None or match.representative.apply(match.transform) != table:
                out.failed += 1
                out.problem(f"cut function 0x{table.to_hex()} has no verified witness")
                continue
            class_of[key] = match.class_id
        if not traced:
            builds.sample()
    out.samples["setup_s"] = setups
    out.metrics["setup_s"] = median(setups)
    out.samples["throughput_qps"] = rates
    out.metrics["throughput_qps"] = median(rates)
    for name, values in raw.items():
        out.samples[name] = values
        out.metrics[name] = median(values)
    out.samples["latency_ms"] = rtts
    out.metrics["latency_p50_ms"] = median(rtts)
    out.metrics["probe_s"] = median(speed.probes)
    out.metrics["peak_rss_mb"] = harness.peak_rss_mb(os.getpid())
    out.inputs = {
        "queries": len(occurrences),
        "repeat_share": round(1 - len(unique) / len(occurrences), 4),
        "miss_share": 0.0,
        "distinct_classes": len(set(class_of.values())),
        "arity_mix": _arity_mix(occurrences),
        "library_classes": library.num_classes,
        "distinct_functions": len(unique),
    }
    if traced:
        _cuts_layers(out, recorder, windows, load_window, rtts)
    return out


def _registry() -> dict:
    """The in-process metrics registry, as ``/metrics`` would show it."""
    return harness.parse_prometheus(obs.registry().render())


def _cuts_layers(out: Outcome, recorder, windows, load_window, rtts) -> None:
    start, end, client_cpu, (before, after) = windows[-1]
    timed = spans_mod.summarize(recorder.spans, start, end)
    _span_layers(out.layers, timed)
    load = spans_mod.summarize(recorder.spans, *load_window)
    out.layers["library.load_s"] = spans_mod.get(load, "library.load", "s")
    out.layers["kernels.setup_canonical_min_s"] = spans_mod.get(
        load, "kernels.canonical_min", "s")
    queries = harness.delta(before, after, "repro_library_match_queries_total")
    out.layers["library.hit_ratio"] = harness.delta(
        before, after, "repro_library_match_queries_total", outcome="hit"
    ) / queries if queries else 0.0
    out.layers["trace.window_s"] = end - start
    out.layers["trace.unaccounted_share"] = 1.0 - timed["covered_share"]
    out.layers["service.rtt_p50_ms"] = median(rtts)
    out.layers["service.rtt_p99_ms"] = percentile(rtts, 99)
    out.layers["service.rtt_samples"] = len(rtts)
    out.layers["service.client_cpu_s"] = client_cpu
    if int(queries) != int(out.layers["library.match_queries"]):
        out.problem(
            f"cross-check library.match_queries: spans "
            f"{int(out.layers['library.match_queries'])} != registry {int(queries)}"
        )


WORKLOADS = {
    "cuts-library": cuts_library,
    "serve-hit": serve_hit,
    "serve-learn": serve_learn,
    "route-hit": route_hit,
}
