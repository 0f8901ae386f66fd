"""The package imports nothing but the standard library, `requests` and
itself: `requests` is the one runtime dependency, and SymPy, the tests'
oracle, never runs inside the package."""

import ast
import sys
from pathlib import Path

import declsolve

ALLOWED = set(sys.stdlib_module_names) | {"requests", "declsolve"}


def _imported_top_level_modules(tree):
    for node in ast.walk(tree):  # imports inside functions count too
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "declsolve" if node.level else node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library_and_requests():
    sources = sorted(Path(declsolve.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for source in sources:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
        modules = set(_imported_top_level_modules(tree))
        assert "requests" in modules or source.name != "client.py"
        assert modules <= ALLOWED, f"{source.name} imports {sorted(modules - ALLOWED)}"
