"""Every module-level function and class of ``src/repro`` has a caller there,
and every module of it an importer.

A definition whose name appears on no other line of ``src/repro`` is code
that only the tests call.  ``__all__`` entries and import lines do not
count as callers: a re-export calls nothing.  Such code is deleted, or it
is named in ``KEPT`` with the reason it stays.  The scan is textual, so a
name that only a comment or docstring mentions counts as called.

A whole module escapes that scan when a test imports it and calls its
names in the module itself: a module that no other module of
``src/repro`` imports is deleted too, or named in ``UNIMPORTED`` with the
reason it stays.  A registered classifier counts only once a module
imports it, since the registry fills at import.
"""

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

KEPT = {
    # Oracles: slow, independent twins the fast code is tested against.
    "permute_inputs_reference": "oracle for bitops.permute_inputs",
    "apply_transform_reference": "oracle for NPNTransform.apply_table",
    "exact_npn_canonical_reference": "oracle: the orbit minimum by brute force",
    "ExactEnumerationClassifier": (
        "oracle: exhaustive enumeration, registered as 'kitty' and reached "
        "through get_classifier"
    ),
    "npn_equivalent_by_automorphism": (
        "oracle: NPN equivalence through hypercube automorphisms, sharing "
        "no code with the truth-table kernels"
    ),
    # The paper's Section II definitions, checked against known functions.
    "local_sensitivity": "Definition 4, sen(f, X)",
    "sensitivity01": "Section II: sen0(f) and sen1(f)",
    "total_influence": "Section II: inf(f), the sum of the influences",
    "influence_fraction": "Definition 5 verbatim, Pr[f(X) != f(X^i)]",
    "face_count": "Section II-B: a cofactor count is a face's 1-minterm count",
    "subcube_faces": "Section II-B: the faces of Q_n that cofactors live on",
    "opposite_face": "Section II-D: influence compares a face and its opposite",
    "induced_subgraph": (
        "Fig. 1: a function as the induced subgraph of Q_n; "
        "examples/signature_anatomy.py draws it"
    ),
    # Called from outside src/: benchmarks, examples and perfbench.
    "refinement_holds": "benchmarks/bench_table2_vector_ablation.py calls it",
    "cut_statistics": "benchmarks/bench_cut_enumeration.py calls it",
    "write_markdown_table": "every benchmarks/bench_*.py writes its table with it",
    "search_space_size": (
        "benchmarks/bench_ablation_guided.py and examples/class_library.py "
        "call it"
    ),
    "group_order": (
        "benchmarks/bench_ablation_guided.py and examples/class_library.py "
        "call it"
    ),
    "wait_until": "perfbench/workloads.py polls its daemons with it",
    "clear_memory_cache": "test isolation hook: drops the cached gather tables",
    # Registered classifiers: get_classifier reaches them by name.
    "FacePointKeyed": (
        "registered as 'ours'; experiments/table3.py and experiments/fig5.py "
        "reach it through get_classifier"
    ),
    "GuidedExactClassifier": (
        "registered as 'guided' once baselines/__init__.py imports it; "
        "reached through get_classifier and `classify --method guided`"
    ),
    "Huang13Classifier": "registered as 'huang13'",
    "Petkovska16Classifier": "registered as 'petkovska16'",
    "Zhou20Classifier": "registered as 'zhou20'",
}


#: Modules of ``src/repro`` that no other module there imports.
UNIMPORTED = {
    "repro.__main__": "the entry point of `python -m repro`",
    "repro.fabric.chaos": (
        "the fault-injection harness: perfbench and "
        "tests/fabric/test_chaos.py import it"
    ),
}


def _skipped_lines(tree: ast.Module) -> set[int]:
    """Line numbers of import statements and ``__all__`` assignments."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
            )
        ):
            skipped.update(range(node.lineno, node.end_lineno + 1))
    return skipped


@functools.cache
def _uncalled_definitions(root: Path = SRC) -> tuple[tuple[str, int, str], ...]:
    """``(path, line, name)`` of every definition under ``root`` that no
    other line there names."""
    lines_naming = defaultdict(set)  # name -> {(path, line)}
    definitions = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        skipped = _skipped_lines(tree)
        relative = str(path.relative_to(root.parent))
        for number, line in enumerate(text.splitlines(), 1):
            if number not in skipped:
                for word in set(re.findall(r"\w+", line)):
                    lines_naming[word].add((relative, number))
        definitions += [
            (relative, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
    return tuple(
        (path, line, name)
        for path, line, name in definitions
        if not lines_naming[name] - {(path, line)}
    )


def test_every_definition_has_a_caller_in_src():
    unexplained = [
        f"{path}:{line}: {name}"
        for path, line, name in _uncalled_definitions()
        if name not in KEPT
    ]
    assert not unexplained, (
        "only tests call these; delete them or add them to KEPT with a "
        "reason:\n" + "\n".join(unexplained)
    )


def test_every_kept_name_is_still_uncalled():
    """An entry whose name was deleted or gained a caller in src/ goes."""
    uncalled = {name for _, _, name in _uncalled_definitions()}
    assert sorted(set(KEPT) - uncalled) == []


@functools.cache
def _unimported_modules(root: Path = SRC) -> tuple[str, ...]:
    """Dotted names of the non-package modules under ``root`` that no
    other module there imports."""
    modules = set()
    imported = set()
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        package = ".".join(parts[:-1])
        if parts[-1] != "__init__":
            modules.add(".".join(parts))
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = package.rsplit(".", node.level - 1)[0] if node.level else ""
                base = ".".join(filter(None, (base, node.module)))
                imported.add(base)
                imported.update(f"{base}.{alias.name}" for alias in node.names)
    return tuple(sorted(modules - imported))


def test_every_module_is_imported_in_src():
    unexplained = sorted(set(_unimported_modules()) - set(UNIMPORTED))
    assert not unexplained, (
        "no module of src/repro imports these; delete them or add them to "
        "UNIMPORTED with a reason:\n" + "\n".join(unexplained)
    )


def test_every_unimported_name_is_still_unimported():
    assert sorted(set(UNIMPORTED) - set(_unimported_modules())) == []


def _scan(tmp_path: Path, files: dict[str, str]) -> list[str]:
    """Names the scan reports for a package made of ``files``."""
    root = tmp_path / "pkg"
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return sorted(name for _, _, name in _uncalled_definitions(root))


def test_scan_reports_a_definition_no_other_line_names(tmp_path):
    files = {
        "a.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
        "b.py": "from .a import used\n\nclass Caller:\n    x = used()\n",
    }
    assert _scan(tmp_path, files) == ["Caller", "unused"]


def test_scan_ignores_import_and_all_lines(tmp_path):
    """A re-export names a definition without calling it."""
    files = {
        "__init__.py": 'from .a import helper\n\n__all__ = [\n    "helper",\n]\n',
        "a.py": "def helper():\n    pass\n",
    }
    assert _scan(tmp_path, files) == ["helper"]


def test_scan_counts_a_mention_on_any_other_line(tmp_path):
    """Calls, attribute access and comments all count; the scan is textual."""
    files = {
        "a.py": (
            "def f():\n    pass\n\n\ndef g():\n    pass\n\n\n"
            "class K:\n    pass\n"
        ),
        "b.py": (
            "import pkg.a\n\nvalue = pkg.a.f()\n"
            "# K is kept for the docs\n"
            "def main():\n    return g\n\n\nmain()\n"
        ),
    }
    assert _scan(tmp_path, files) == []


def test_module_scan_reports_a_module_no_other_module_imports(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    files = {
        "__init__.py": "from . import a\n",
        "a.py": "from pkg.b import value\n",
        "b.py": "value = 1\n",
        "c.py": "import pkg.a\n",
        "d.py": "from .b import value\n",
    }
    for name, text in files.items():
        (root / name).write_text(text)
    assert _unimported_modules(root) == ("pkg.c", "pkg.d")
