"""Every module-level function and class of ``src/repro`` has a caller there,
and every module of it an importer.

A definition whose name no other line of ``src/repro`` uses in code is
code that only the tests call.  Only code counts, read off the syntax
tree: a name or an attribute, also inside a quoted annotation (a
forward reference).  Comments, docstrings and other strings do not, and
neither do ``__all__`` entries and imports: a re-export calls nothing.  Such code is deleted, or it is named in ``KEPT`` with the
reason it stays.

A whole module escapes that scan when a test imports it and calls its
names in the module itself: a module that no other module of
``src/repro`` imports is deleted too, or named in ``UNIMPORTED`` with the
reason it stays.  A registered classifier counts only once a module
imports it, since the registry fills at import.
"""

import ast
import functools
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
    "find_npn_transform_scalar": (
        "oracle: the scalar backtracker the kernel matcher's witnesses "
        "must equal below the candidate cap"
    ),
    "cut_function": "oracle for the cut tables aig/cuts.py simulates",
    "simulate": (
        "oracle: one input assignment through the AIG, which the builder "
        "tests check against arithmetic"
    ),
    "orbit": "oracle: the exhaustive orbit the class inventory tests check",
    "sensitivity": (
        "oracle: Section II's sen(f), checked against known functions and "
        "the sensitivity profile"
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
    "random_tables": "perfbench/workloads.py builds its libraries with it",
    "miss_heavy_queries": "perfbench/workloads.py builds serve-learn traffic",
    "with_repeats": "perfbench/workloads.py builds serve-learn traffic",
    "enumerate_cuts": "benchmarks/bench_cut_enumeration.py calls it",
    "osv_histogram": "benchmarks/bench_table1_signatures.py calls it",
    "build_exhaustive_library": (
        "examples/class_library.py, persistent_library.py and "
        "service_roundtrip.py call it"
    ),
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


def _code_names(tree: ast.AST, line: int | None = None):
    """``(name, line)`` of every name and attribute in ``tree``'s code,
    quoted annotations parsed as code at their own line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, line or node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, line or node.lineno
        annotations = [getattr(node, "returns", None)]
        annotations.append(getattr(node, "annotation", None))
        for annotation in annotations:
            if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str
            ):
                quoted = ast.parse(annotation.value, mode="eval")
                yield from _code_names(quoted, line or annotation.lineno)


@functools.cache
def _uncalled_definitions(root: Path = SRC) -> tuple[tuple[str, int, str], ...]:
    """``(path, line, name)`` of every definition under ``root`` that no
    other line there uses in code."""
    lines_naming = defaultdict(set)  # name -> {(path, line)}
    definitions = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        relative = str(path.relative_to(root.parent))
        for name, line in _code_names(tree):
            lines_naming[name].add((relative, line))
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


def test_scan_counts_code_mentions_only(tmp_path):
    """Calls, attribute access and bare names count; a comment, a
    docstring or a string naming a definition does not."""
    files = {
        "a.py": (
            "def f():\n    pass\n\n\ndef g():\n    pass\n\n\n"
            "class K:\n    pass\n\n\ndef h():\n    pass\n\n\n"
            "def s():\n    pass\n"
        ),
        "b.py": (
            "import pkg.a\n\nvalue = pkg.a.f()\n"
            "# K is kept for the docs\n"
            "def main():\n    \"\"\"Calls h, but only in prose.\"\"\"\n"
            "    return g, 's', f\"{value!r} s\"\n\n\nmain()\n"
        ),
    }
    assert _scan(tmp_path, files) == ["K", "h", "s"]


def test_scan_counts_a_quoted_annotation(tmp_path):
    """A forward reference in quotes is code, not prose."""
    files = {
        "a.py": "class K:\n    pass\n",
        "b.py": 'def make() -> "K":\n    pass\n\n\nmake()\n',
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
