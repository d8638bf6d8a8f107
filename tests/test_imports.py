"""Import structure of the package, read from its source with ast: every
import sits at the top of its module, the package-internal imports form no
cycle, and the row primitives in embed_core depend on nothing but errors."""

import ast
from pathlib import Path

import pytest

import adaptscore

PACKAGE = Path(adaptscore.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _internal_imports(module):
    """The package modules that `module` imports ("__init__" for the
    package itself)."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] != "adaptscore":
                    continue
                parts = parts[1:]
            else:
                parts = node.module.split(".") if node.module else []
            if parts:
                found.add(parts[0])
            else:  # from . import name: a submodule, or a name of __init__
                found.update(a.name if a.name in MODULES else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "adaptscore":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
    found.discard(module)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_at_module_level(module):
    tree = _tree(module)
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert nested == [], f"{module}.py imports inside a block at lines {nested}"


def test_internal_imports_have_no_cycle():
    graph = {m: _internal_imports(m) for m in MODULES}
    done, path = set(), []

    def visit(m):
        if m in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(m) :] + [m]))
        if m in done:
            return
        path.append(m)
        for dep in sorted(graph[m]):
            visit(dep)
        path.pop()
        done.add(m)

    for m in MODULES:
        visit(m)


def test_embed_core_imports_only_errors():
    assert _internal_imports("embed_core") == {"errors"}


def test_baselines_does_not_import_scores():
    assert "scores" not in _internal_imports("baselines")
