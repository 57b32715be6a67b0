"""The package names the benchmark under ``bench/`` reads.

``bench/workloads.py`` calls the package through module aliases (``G.circle``,
``HK.Method``, ``K.quad``, ...) and ``bench/tracer.py`` imports a few names
inside its functions; a rename or a deletion in ``heatkato`` would otherwise
break only a benchmark run.  (The attributes the tracer wraps, its
``TARGETS``, are checked by ``tests/test_cli.py::test_bench_tracer_targets_exist``.)
These tests parse the bench files and change nothing there.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_names(path: Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs a file reads: ``from heatkato.m import a``
    anywhere in it, and ``alias.a`` for each ``from heatkato import m as alias``."""
    tree = ast.parse(path.read_text())
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "heatkato":
            aliases.update({a.asname or a.name: f"heatkato.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("heatkato."):
            names.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((aliases[node.value.id], node.attr))
    return names


def test_bench_reads_only_names_that_exist():
    names = set().union(*(_package_names(path) for path in sorted(BENCH.glob("*.py"))))
    # the parse sees the workloads' module aliases and the tracer's own import
    assert {("heatkato.geometry", "circle"), ("heatkato.geometry", "circle_point"),
            ("heatkato.heat_kernel", "Method"), ("heatkato.stochastics", "_is_flat")} <= names
    missing = sorted((m, a) for m, a in names if not hasattr(importlib.import_module(m), a))
    assert not missing, missing
