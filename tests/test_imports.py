"""Import hygiene of the package's modules, checked on their syntax trees.

Every name a module imports must be used in it, listed in its ``__all__``, or
marked ``# noqa: F401`` on the import statement (the names the benchmark's
tracer wraps on a module that no longer calls them). Every ``__all__`` name
must resolve on the imported module. A deletion that leaves a stale import
behind fails here.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adaptive_conformal"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def parse(name):
    source = (PACKAGE / f"{name}.py").read_text()
    return source.splitlines(), ast.parse(source)


def exported(tree):
    """The names a module's ``__all__`` lists (empty when it has none)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    lines, tree = parse(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    stale = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                stale.append(f"line {node.lineno}: {bound}")
    assert not stale, f"{name}.py imports names it never uses: {stale}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"adaptive_conformal.{name}" if name != "__init__"
                                     else "adaptive_conformal")
    missing = [n for n in exported(parse(name)[1]) if not hasattr(module, n)]
    assert not missing, f"{name}.py exports names it does not define: {missing}"
