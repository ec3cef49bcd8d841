"""Tests for the command-line interface."""

import ast
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, parse_tables
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.library import ClassLibrary


def fresh_cli(*args: str) -> subprocess.CompletedProcess:
    """``repro-npn *args`` in a new interpreter, ``src`` on its path."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestParsing:
    def test_parse_binary_lines(self):
        tables = parse_tables(["11101000", "", "# comment", "0110"])
        assert len(tables) == 2
        assert tables[0].n == 3
        assert tables[1].n == 2

    def test_parse_hex_with_prefix(self):
        tables = parse_tables(["0xe8"])
        assert tables[0].bits == 0xE8
        assert tables[0].n == 3

    def test_parse_hex_needs_inferable_width(self):
        with pytest.raises(ValueError):
            parse_tables(["0xe8a"])  # 12 bits: not a power of two

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            parse_tables(["zz"])


class TestCommands:
    def test_classify_file(self, tmp_path, capsys):
        path = tmp_path / "tables.txt"
        path.write_text("11101000\n00010111\n10000000\n")
        assert main(["classify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "functions: 3" in out
        assert "classes:   2" in out

    def test_classify_method_selection(self, tmp_path, capsys):
        path = tmp_path / "tables.txt"
        path.write_text("11101000\n00010111\n")
        assert main(["classify", str(path), "--method", "kitty"]) == 0
        assert "classes:   1" in capsys.readouterr().out

    def test_classify_guided_in_a_fresh_process_agrees_with_exact(
        self, tmp_path
    ):
        # The --method choices are read from the registry at import, so
        # only a new interpreter shows a classifier no module registers.
        files = {
            3: "11101000\n00010111\n10000000\n01111111\n10010110\n",
            4: "0x6ac5\n0x5c3a\n0x8000\n0x0001\n0x6996\n0x9669\n",
        }
        for n, text in files.items():
            path = tmp_path / f"n{n}.txt"
            path.write_text(text)
            counts = {}
            for method in ("guided", "exact"):
                done = fresh_cli("classify", str(path), "--method", method)
                assert done.returncode == 0, done.stderr
                counts[method] = re.search(r"classes:\s+(\d+)", done.stdout)[1]
            assert counts["guided"] == counts["exact"], n

    def test_classify_ours_runs_the_batched_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.engine import BatchedClassifier

        calls = []
        classify = BatchedClassifier.classify
        monkeypatch.setattr(
            BatchedClassifier,
            "classify",
            lambda self, tables: calls.append(len(tables)) or classify(self, tables),
        )
        path = tmp_path / "tables.txt"
        path.write_text("11101000\n00010111\n10000000\n")
        assert main(["classify", str(path)]) == 0
        assert "classes:   2 (ours)" in capsys.readouterr().out
        assert calls == [3]

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "-", "--engine", "sharded"],
            ["classify", "-", "--engine", "canonical"],
            ["classify", "-", "--engine", "batched"],
            ["classify", "-", "--workers", "2"],
            ["library", "build", "--workers", "2"],
            ["library", "build", "--engine", "batched"],
            ["serve", "--engine", "batched"],
            ["worker", "--id", "w0", "--ring", "w0", "--engine", "batched"],
            ["table3", "--sharded-workers", "2"],
            ["fig5", "--sharded-workers", "2"],
        ],
        ids=lambda argv: "-".join(arg.lstrip("-") for arg in argv),
    )
    def test_removed_engine_knobs_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_canonical_prints_a_witness_that_verifies(self, capsys):
        import ast
        import re

        from repro.canonical.form import canonical_form
        from repro.core.transforms import NPNTransform
        from repro.core.truth_table import TruthTable

        for table, n in (("0x6ac5", 4), ("0x1ee17a2f", 5)):
            assert main(["canonical", table, "--n", str(n)]) == 0
            out = capsys.readouterr().out
            found = re.search(
                r"perm=(\(.*?\)) input_phase=(0x[0-9a-f]+) output_phase=(\d)",
                out,
            )
            witness = NPNTransform(
                ast.literal_eval(found.group(1)),
                int(found.group(2), 16),
                int(found.group(3)),
            )
            tt = TruthTable.from_hex(n, table[2:])
            assert tt.apply(witness) == canonical_form(tt)
            assert f"class id:   n{n}-c{canonical_form(tt).to_hex()}" in out

    def test_canonical_search_stats_count_the_scalar_search_at_n7(
        self, capsys, monkeypatch
    ):
        import re

        from repro.canonical import form

        searches = []
        search = form._influence_search
        monkeypatch.setattr(
            form,
            "_influence_search",
            lambda tt: searches.append(tt) or search(tt),
        )
        table = "0x" + "3c5a96e1" * 4
        assert main(["canonical", table, "--n", "7", "--search-stats"]) == 0
        # The counters are the front-door call's: one search, not two.
        assert len(searches) == 1
        out = capsys.readouterr().out
        found = re.search(
            r"search: +(\d+) permutations, (\d+) phase candidates, "
            r"(\d+) materialized",
            out,
        )
        permutations, candidates, materialized = map(int, found.groups())
        assert permutations == 2 * 5040  # both output phases, all 7! orders
        assert candidates == permutations * 128
        assert 0 < materialized < candidates

    def test_canonical_search_stats_run_one_scalar_search_at_n4(
        self, capsys, monkeypatch
    ):
        # The kernel searches nothing, so the counters come from one
        # scalar search run for them.
        from repro.canonical import form

        searches = []
        search = form._influence_search
        monkeypatch.setattr(
            form,
            "_influence_search",
            lambda tt: searches.append(tt) or search(tt),
        )
        assert main(["canonical", "0x6ac5", "--n", "4", "--search-stats"]) == 0
        assert len(searches) == 1
        assert "search:     48 permutations" in capsys.readouterr().out

    def test_classify_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        assert main(["classify", str(path)]) == 1

    def test_classify_reads_stdin_and_shows_classes(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("11101000\n01110001\n10000000\n")
        )
        assert main(["classify", "-", "--show-classes"]) == 0
        out = capsys.readouterr().out
        assert "functions: 3" in out
        assert "classes:   2 (ours)" in out
        assert "class 0: 0xe8 0x71" in out
        assert "class 1: 0x80" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["match", "11101000", "01110001"],
            ["match", "0xe8", "0x71", "--n", "3"],
        ],
    )
    def test_match_prints_a_transform_that_maps_source_to_target(
        self, argv, capsys
    ):
        assert main(argv) == 0
        out = capsys.readouterr().out
        perm, input_phase, output_phase = re.search(
            r"perm=(\(.*\)) input_phase=(0x[0-9a-f]+) output_phase=(\d)", out
        ).groups()
        transform = NPNTransform(
            ast.literal_eval(perm), int(input_phase, 16), int(output_phase)
        )
        source = TruthTable.from_binary("11101000")
        assert source.apply(transform) == TruthTable.from_binary("01110001")

    def test_match_reports_inequivalent_functions(self, capsys):
        assert main(["match", "11101000", "10000000"]) == 1
        assert capsys.readouterr().out == "NOT NPN equivalent\n"

    def test_signatures_command(self, capsys):
        assert main(["signatures", "11101000"]) == 0
        out = capsys.readouterr().out
        assert "OCV1  = (1, 1, 1, 3, 3, 3)" in out
        assert "OIV   = (2, 2, 2)" in out
        assert "MSV digest" in out

    def test_signatures_hex_with_n(self, capsys):
        assert main(["signatures", "0xe8", "--n", "3"]) == 0
        assert "balanced=True" in capsys.readouterr().out

    def test_suite_command(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "adder" in out
        assert "arithmetic" in out

    def test_extract_command(self, capsys):
        assert main(["extract", "--sizes", "3,4", "--limit", "50"]) == 0
        out = capsys.readouterr().out
        assert "Extracted cut functions" in out

    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "OSDV" in out
        assert "False" not in out  # every row matches the paper

    def test_fig34_command(self, capsys):
        assert main(["fig34"]) == 0
        out = capsys.readouterr().out
        assert "fig4-g" in out
        assert "False" not in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestLibraryCommands:
    @pytest.fixture(scope="class")
    def lib_dir(self, tmp_path_factory):
        """One n<=3 library built through the CLI, shared by the class."""
        path = tmp_path_factory.mktemp("library") / "lib3"
        assert main(
            ["library", "build", "--inputs", "1-3", "--out", str(path)]
        ) == 0
        return path

    def test_build_reports_classes(self, tmp_path, capsys):
        out_dir = tmp_path / "lib"
        assert main(
            ["library", "build", "--inputs", "3", "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "saved 14 classes" in out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "classes.npz").exists()

    def test_exact_build(self, tmp_path, capsys):
        """``--exact`` builds one class per orbit.  These 300 n=5 samples
        hold no two orbits with one MSV, so its classes equal the
        signature buckets of the default build."""
        classes = {}
        for flags in ([], ["--exact"]):
            out_dir = tmp_path / ("exact" if flags else "buckets")
            assert main(
                ["library", "build", "--inputs", "3,5", "--samples", "300",
                 "--out", str(out_dir), *flags]
            ) == 0
            assert "saved 314 classes" in capsys.readouterr().out
            library = ClassLibrary.load(out_dir)
            classes[bool(flags)] = {
                e.class_id: e.size for e in library.entries()
            }
        assert classes[True] == classes[False]

    def test_build_rejects_bad_arity_spec(self, tmp_path, capsys):
        assert main(
            ["library", "build", "--inputs", "0", "--out", str(tmp_path / "x")]
        ) == 2
        assert "no valid arity" in capsys.readouterr().err

    def test_build_rejects_unsupported_arity(self, tmp_path, capsys):
        assert main(
            ["library", "build", "--inputs", "21", "--out", str(tmp_path / "x")]
        ) == 2
        assert "supported arity range" in capsys.readouterr().err

    def test_build_rejects_garbage_arity_spec(self, tmp_path, capsys):
        assert main(
            ["library", "build", "--inputs", "3,x", "--out", str(tmp_path / "x")]
        ) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_build_rejects_unsampled_large_arity(self, tmp_path, capsys):
        assert main(
            [
                "library", "build", "--inputs", "5", "--samples", "0",
                "--out", str(tmp_path / "x"),
            ]
        ) == 2
        assert "--samples" in capsys.readouterr().err

    def test_stats(self, lib_dir, capsys):
        assert main(["library", "stats", "--library", str(lib_dir)]) == 0
        out = capsys.readouterr().out
        assert "classes" in out
        assert "14" in out

    def test_stats_into_a_closed_pipe_exits_quietly(self, lib_dir):
        """``repro-npn library stats ... | head -1``: the reader is gone
        before the first write, and the command still ends without a
        traceback on stderr."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "library", "stats",
             "--library", str(lib_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        process.stdout.close()  # no reader left: every write is EPIPE
        _, err = process.communicate(timeout=60)
        assert err == b""
        assert process.returncode == 1

    def test_match_hit_prints_verified_witness(self, lib_dir, capsys):
        assert main(
            ["library", "match", "11101000", "--library", str(lib_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "class:     n3-" in out
        assert "witness:" in out
        assert '"perm"' in out
        assert "verified:  True" in out

    def test_match_miss_outside_library(self, lib_dir, capsys):
        assert main(
            [
                "library", "match", "0xe8e8e8e8", "--n", "5",
                "--library", str(lib_dir),
            ]
        ) == 1
        assert "NO MATCH" in capsys.readouterr().out

    def test_match_unreadable_library_says_how_to_build(self, tmp_path, capsys):
        assert main(
            ["library", "match", "11101000", "--library", str(tmp_path / "no")]
        ) == 2
        err = capsys.readouterr().err
        assert "cannot load library" in err
        assert "library build" in err  # recovery hint

    def test_stats_on_malformed_library_says_how_to_build(
        self, lib_dir, tmp_path, capsys
    ):
        broken = tmp_path / "broken"
        shutil.copytree(lib_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["classes_sha256"] = "0" * 64  # no longer seals the npz
        (broken / "manifest.json").write_text(json.dumps(manifest))
        assert main(["library", "stats", "--library", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "cannot load library" in err
        assert "library build" in err  # recovery hint, not a traceback

    def test_cutmatch_end_to_end(self, lib_dir, capsys):
        assert main(
            [
                "cutmatch", "--library", str(lib_dir), "--sizes", "3",
                "--circuits", "adder,parity", "--top", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Cut matching" in out
        assert "TOTAL" in out
        assert "Top 5 classes" in out
        assert "n3-" in out

    def test_cutmatch_rejects_bad_sizes(self, lib_dir, capsys):
        for spec in ("4,", "0", "zz"):
            assert main(
                ["cutmatch", "--library", str(lib_dir), "--sizes", spec]
            ) == 2
            assert "--sizes" in capsys.readouterr().err

    def test_extract_rejects_bad_sizes(self, capsys):
        assert main(["extract", "--sizes", "3,"]) == 2
        assert "--sizes" in capsys.readouterr().err

    def test_cutmatch_rejects_unknown_circuit(self, lib_dir, capsys):
        assert main(
            ["cutmatch", "--library", str(lib_dir), "--circuits", "nonesuch"]
        ) == 2
        assert "unknown circuits" in capsys.readouterr().err

    def test_cutmatch_requires_loadable_library(self, tmp_path, capsys):
        assert main(["cutmatch", "--library", str(tmp_path / "no")]) == 2
        assert "cannot load library" in capsys.readouterr().err


class TestServeAndQueryCommands:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """A daemon on an exhaustive n<=3 library, shared by the class."""
        from repro.library import build_exhaustive_library
        from repro.service import ThreadedService

        library = build_exhaustive_library(3)
        with ThreadedService(library, max_wait_ms=1.0) as svc:
            yield svc

    def test_query_match_roundtrip(self, served, capsys):
        assert main(
            ["query", "match", "11101000", "--addr", served.address]
        ) == 0
        out = capsys.readouterr().out
        assert "class:     n3-" in out
        assert "witness json:" in out
        assert "verified:  True" in out

    def test_query_match_miss(self, served, capsys):
        assert main(
            ["query", "match", "0110", "--addr", served.address]
        ) == 1
        assert "NO MATCH" in capsys.readouterr().out

    def test_query_classify(self, served, capsys):
        assert main(
            ["query", "classify", "0xe8", "--n", "3", "--addr", served.address]
        ) == 0
        out = capsys.readouterr().out
        assert "class:     n3-" in out
        assert "known:     True" in out

    def test_query_stats_and_ping(self, served, capsys):
        assert main(["query", "ping", "--addr", served.address]) == 0
        assert '"pong": true' in capsys.readouterr().out
        assert main(["query", "stats", "--addr", served.address]) == 0
        assert '"mean_batch_size"' in capsys.readouterr().out

    def test_query_stats_prometheus(self, served, capsys):
        assert main(
            ["query", "stats", "--prometheus", "--addr", served.address]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_total counter" in out
        assert "repro_service_request_seconds_bucket" in out

    def test_query_trace(self, served, capsys):
        # Prior tests in this class already generated traffic to trace.
        assert main(["query", "trace", "--addr", served.address]) == 0
        out = capsys.readouterr().out
        assert "trace(s)" in out
        assert "op=match" in out
        assert "decode" in out

    def test_query_trace_json_and_limit(self, served, capsys):
        assert main(
            ["query", "trace", "--json", "--limit", "1", "--addr", served.address]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["traces"]) == 1
        assert payload["tracer"]["finished_total"] >= 1

    def test_query_rejects_bad_address(self, capsys):
        assert main(["query", "ping", "--addr", "nope"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_query_reports_unreachable_daemon(self, capsys):
        # Port 1 on localhost: nothing listens there in the test sandbox.
        assert main(["query", "ping", "--addr", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err
        assert "repro-npn serve" in err

    @pytest.mark.parametrize("command", [["trace"], ["stats", "--prometheus"]])
    def test_http_queries_report_unreachable_daemon(self, command, capsys):
        """The HTTP-backed queries fail as the NDJSON ones do."""
        assert main(["query", *command, "--addr", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert "cannot reach" in err
        assert "repro-npn serve" in err

    def test_query_bad_table_is_typed_error(self, served, capsys):
        assert main(
            ["query", "classify", "0xe8a", "--addr", served.address]
        ) == 2
        assert "cannot infer variable count" in capsys.readouterr().err

    def test_serve_requires_loadable_library(self, tmp_path, capsys):
        assert main(["serve", "--library", str(tmp_path / "absent")]) == 2
        assert "cannot load library" in capsys.readouterr().err

    def test_serve_rejects_bad_knobs(self, tmp_path, capsys):
        from repro.library import build_exhaustive_library

        lib_dir = tmp_path / "lib2"
        build_exhaustive_library(2).save(lib_dir)
        for flags, fragment in (
            (["--max-batch", "0"], "max_batch"),
            (["--max-wait-ms", "-1"], "max_wait_ms"),
            (["--max-pending", "0"], "max_pending"),
            (["--cache-size", "-1"], "cache_size"),
        ):
            assert main(["serve", "--library", str(lib_dir), *flags]) == 2
            assert fragment in capsys.readouterr().err

    def test_serve_validates_knobs_before_touching_the_library(
        self, tmp_path, capsys
    ):
        # The library path does not even exist: knob errors must win.
        assert main(
            ["serve", "--library", str(tmp_path / "absent"), "--max-batch", "0"]
        ) == 2
        err = capsys.readouterr().err
        assert "max_batch" in err
        assert "cannot load library" not in err


@pytest.mark.integration
class TestExperimentCommands:
    """End-to-end table/figure regeneration at smoke scale."""

    def test_table2_smoke(self, capsys):
        assert main(["table2", "--scale", "smoke", "--no-exact"]) == 0
        out = capsys.readouterr().out
        assert "OIV+OSV" in out
        assert "Table II" in out

    def test_table3_smoke(self, capsys):
        assert main(["table3", "--scale", "smoke", "--no-exact"]) == 0
        out = capsys.readouterr().out
        assert "ours_classes" in out

    def test_fig5_smoke(self, capsys):
        assert main(["fig5", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "cumulative seconds" in out
        assert "stability" in out


class TestLearnAndCompactCli:
    def test_wal_flags_require_learn(self, capsys):
        for flags in (
            ["--wal-segment-bytes", "4096"],
            ["--wal-fsync", "never"],
        ):
            assert main(["serve", "--library", "x", *flags]) == 2
            assert "requires --learn" in capsys.readouterr().err

    def test_serve_learn_rejects_bad_segment_bytes(self, capsys):
        assert main(
            ["serve", "--library", "x", "--learn", "--wal-segment-bytes", "0"]
        ) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_serve_learn_missing_library_says_how_to_build(
        self, tmp_path, capsys
    ):
        assert main(
            ["serve", "--library", str(tmp_path / "absent"), "--learn"]
        ) == 2
        assert "library build" in capsys.readouterr().err

    def test_compact_noop_on_fresh_library(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        assert main(
            ["library", "build", "--inputs", "1-2", "--out", str(lib)]
        ) == 0
        capsys.readouterr()
        assert main(["library", "compact", "--library", str(lib)]) == 0
        assert "no write-ahead segments" in capsys.readouterr().out

    def test_compact_reports_an_unreadable_library(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text('{"version": 3')
        for _ in range(2):  # the failed open released the learner lock
            assert main(["library", "compact", "--library", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("cannot open library: ")
            assert "not valid JSON" in err

    def test_compact_merges_leftover_segments(self, tmp_path, capsys):
        """A crashed learner's segment is absorbed by the CLI compaction."""
        import random

        from repro.core.truth_table import TruthTable
        from repro.library import LearningLibrary, list_segments

        lib = tmp_path / "lib"
        assert main(
            ["library", "build", "--inputs", "1-2", "--out", str(lib)]
        ) == 0
        learner = LearningLibrary.open(lib)
        learner.learn([TruthTable.random(5, random.Random(31))])
        learner.close_segment()  # "crash": segment left behind
        assert len(list_segments(lib)) == 1

        capsys.readouterr()
        assert main(["library", "compact", "--library", str(lib)]) == 0
        out = capsys.readouterr().out
        assert "compacted 1 WAL records (1 segments)" in out
        assert list_segments(lib) == []

        capsys.readouterr()
        assert main(["library", "stats", "--library", str(lib)]) == 0
        assert "5" in capsys.readouterr().out  # the minted n=5 row persists

    def test_migrate_converts_a_v1_library_once(self, tmp_path, capsys):
        import shutil
        from pathlib import Path

        lib = tmp_path / "lib"
        shutil.copytree(
            Path(__file__).parent / "data" / "library_v1", lib
        )
        assert main(["library", "stats", "--library", str(lib)]) == 2
        assert "library migrate --library" in capsys.readouterr().err

        assert main(["library", "migrate", "--library", str(lib)]) == 0
        out = capsys.readouterr().out
        assert "to version 3 with 2 WAL records (1 segments)" in out
        assert "20 classes" in out
        assert main(["library", "match", "0x17", "--n", "3",
                     "--library", str(lib)]) == 0
        assert "verified:  True" in capsys.readouterr().out

        assert main(["library", "migrate", "--library", str(lib)]) == 2
        assert "already current" in capsys.readouterr().err


class TestFabricCommands:
    """Argument validation of the fabric entry points + ping retries.

    The daemons themselves never start here (they would serve forever);
    the chaos tests exercise the full subprocess lifecycle.  This class
    pins the operator-facing contract: bad knobs exit 2 with a message,
    never a traceback or a half-started daemon.
    """

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.library import build_exhaustive_library
        from repro.service import ThreadedService

        library = build_exhaustive_library(3)
        with ThreadedService(library, max_wait_ms=1.0) as svc:
            yield svc

    def test_router_rejects_bad_policy_knobs(self, capsys):
        for flags, fragment in (
            (["--attempts", "0"], "attempts"),
            (["--base-ms", "-1"], "base_ms"),
            (["--timeout-ms", "0"], "timeout_ms"),
            (["--heartbeat-interval-s", "0"], "heartbeat"),
            (["--trace-sample", "0"], "trace-sample"),
        ):
            assert main(["router", "--port", "0", *flags]) == 2
            assert fragment in capsys.readouterr().err

    def test_worker_rejects_bad_ring(self, capsys):
        assert main(
            ["worker", "--id", "w0", "--ring", "w0,w0", "--port", "0"]
        ) == 2
        assert "repeats a worker id" in capsys.readouterr().err

    def test_worker_must_be_on_its_ring(self, capsys):
        assert main(
            ["worker", "--id", "ghost", "--ring", "w0,w1", "--port", "0"]
        ) == 2
        assert "not on the ring" in capsys.readouterr().err

    def test_worker_rejects_bad_service_knobs(self, capsys):
        assert main(
            [
                "worker", "--id", "w0", "--ring", "w0,w1",
                "--max-batch", "0", "--port", "0",
            ]
        ) == 2
        assert "max_batch" in capsys.readouterr().err

    def test_worker_requires_loadable_library(self, tmp_path, capsys):
        assert main(
            [
                "worker", "--id", "w0", "--ring", "w0,w1",
                "--library", str(tmp_path / "absent"), "--port", "0",
            ]
        ) == 2
        assert "cannot load library" in capsys.readouterr().err

    def test_ping_with_retries_succeeds_first_try(self, served, capsys):
        assert main(
            [
                "query", "ping", "--retries", "3", "--backoff-ms", "1",
                "--addr", served.address,
            ]
        ) == 0
        assert '"pong": true' in capsys.readouterr().out

    def test_ping_retries_exhaust_against_dead_port(self, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        assert main(
            [
                "query", "ping", "--retries", "2", "--backoff-ms", "1",
                "--addr", f"127.0.0.1:{dead_port}",
            ]
        ) == 2
        err = capsys.readouterr().err
        assert "after 3 attempts" in err
        assert "cannot reach" in err

    def test_ping_rejects_negative_backoff(self, capsys):
        assert main(
            [
                "query", "ping", "--retries", "1", "--backoff-ms", "-5",
                "--addr", "127.0.0.1:1",
            ]
        ) == 2
        assert "base_ms" in capsys.readouterr().err
