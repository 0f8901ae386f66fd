"""Every name the benchmark's scripts (`bench/*.py`) take from declsolve must
exist, so deleting one fails here and not in a benchmark run.  The names
the tracer wraps are pinned by test_bench_tracer.py."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _references(tree: ast.AST):
    """(module, attribute path) of every `from declsolve... import name` and
    every `declsolve.a.b` attribute chain in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "declsolve":
            for alias in node.names:
                yield node.module, (alias.name,)
        elif isinstance(node, ast.Attribute):
            path = []
            while isinstance(node, ast.Attribute):
                path.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "declsolve":
                yield "declsolve", tuple(reversed(path))


REFERENCES = sorted({
    (script.name, module, path)
    for script in BENCH.glob("*.py")
    for module, path in _references(ast.parse(script.read_text(encoding="utf-8")))
})


def test_the_benchmark_references_are_found():
    names = {path[-1] for _, _, path in REFERENCES}
    assert {"RecordThrough", "Replay", "forget_cassette", "load", "write_cassette"} <= names, names


@pytest.mark.parametrize(
    "script, module, path",
    REFERENCES,
    ids=[f"{script}:{module}.{'.'.join(path)}" for script, module, path in REFERENCES],
)
def test_each_name_the_benchmark_uses_resolves(script, module, path):
    target = importlib.import_module(module)
    for name in path:
        try:
            target = getattr(target, name)
        except AttributeError:  # a submodule that nothing has imported yet
            target = importlib.import_module(f"{target.__name__}.{name}")
