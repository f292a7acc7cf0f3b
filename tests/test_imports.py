"""Import hygiene of the package's modules, checked on their syntax trees.

Every name a module imports must be used in it or listed in its ``__all__``.
The one exception is an import marked ``# noqa: F401`` that names a (module,
attribute) pair the benchmark's tracer patches: a shim kept so the tracer can
wrap a name the module no longer calls. Once the tracer stops patching it, the
shim fails here. Every ``__all__`` name must resolve on the imported module. A
deletion that leaves a stale import behind fails here.

The package root and the modules the online wrapper needs import with numpy
alone: a fresh interpreter that imports one of them has no scipy module loaded.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from test_tracer_names import SOLVERS, SPANS

#: The (module, attribute) pairs the tracer patches: the only names a ``noqa`` may keep.
TRACED = {(module, attr) for module, attr, _ in SPANS} | set(SOLVERS)
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adaptive_conformal"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
#: Modules whose import must load no scipy module.
NUMPY_ONLY = ["adaptive_conformal"] + [
    f"adaptive_conformal.{m}" for m in ("core", "conformal", "metrics", "bounds", "io", "errors")]


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
        shim = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            kept = (name, bound) in TRACED if shim else bound in used
            if not kept:
                note = " (noqa, but the tracer does not patch it)" if shim else ""
                stale.append(f"line {node.lineno}: {bound}{note}")
    assert not stale, f"{name}.py imports names it never uses: {stale}"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"adaptive_conformal.{name}" if name != "__init__"
                                     else "adaptive_conformal")
    missing = [n for n in exported(parse(name)[1]) if not hasattr(module, n)]
    assert not missing, f"{name}.py exports names it does not define: {missing}"


@pytest.mark.parametrize("module", NUMPY_ONLY)
def test_import_loads_no_scipy(module):
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split()
    assert not out, f"importing {module} loads {len(out)} scipy modules: {out[:5]}"
