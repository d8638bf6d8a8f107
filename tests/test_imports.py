"""Import structure of the package, read from its source with ast: every
import sits at the top of its module, the package-internal imports
(deferred loads included) form no cycle, and the row primitives in
embed_core depend on nothing but errors. Then the lazy surface, each case
in a fresh interpreter: the package, the CLI's parser, the corr command
and the correlation and ranking functions load no numpy, and the public
names load their modules on first use."""

import ast
import importlib
import json
from pathlib import Path

import pytest
from conftest import random_labeled
from test_threads import _child

import adaptscore
from adaptscore.formats import save_embeddings, save_labels

PACKAGE = Path(adaptscore.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _deferred_loads(module):
    """The package modules that `module` loads at run time: the literal
    relative names of its importlib.import_module calls, and for the
    package the modules of its export table (_EXPORTS)."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "importlib.import_module":
            name = node.args[0]
            if isinstance(name, ast.Constant) and name.value.startswith("."):
                found.add(name.value.lstrip(".").split(".")[0])
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_EXPORTS":
            found.update(key.value for key in node.value.keys)
    return found


def _internal_imports(module):
    """The package modules that `module` imports ("__init__" for the
    package itself), deferred loads included."""
    found = _deferred_loads(module)
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


def test_only_cli_and_the_package_defer_loads():
    deferring = {m for m in MODULES if _deferred_loads(m)}
    assert deferring == {"cli", "__init__"}
    assert _deferred_loads("cli") == {"reporting"}
    assert "reporting" in _internal_imports("cli")


@pytest.mark.parametrize(
    "code",
    [
        "import adaptscore",
        "import adaptscore.cli",
        "from adaptscore.cli import main; assert main(['--help']) == 0",
        "from adaptscore.cli import main; assert main(['score', '-h']) == 0",
        "from adaptscore.cli import main; assert main(['score']) == 1",
        "from adaptscore.cli import main; assert main(['corr', '--report', 'r.json', '--accuracy', 'acc.csv']) == 0",
        "from adaptscore.cli import main; assert main(['corr', '--report', 'r.json', '--accuracy', 'acc.csv', '--json']) == 0",
        "import adaptscore; assert adaptscore.pearson([1, 2, 3], [2, 4, 7]) > 0.98",
        "import adaptscore; assert adaptscore.spearman([1, 2, 3], [1, 3, 2]) == 0.5",
        "import adaptscore; assert adaptscore.rank_candidates({'a': 0.1, 'b': 0.2}) == ['b', 'a']",
    ],
    ids=["package", "cli", "help", "score-help", "usage-error", "corr", "corr-json", "pearson", "spearman",
         "rank_candidates"],
)
def test_loads_no_numpy(code, tmp_path, monkeypatch):
    """Each case in a fresh interpreter; the corr cases read a two-row
    report and accuracy file from the working directory."""
    rows = [{"candidate_id": c, "method_scores": {"pas": v}} for c, v in (("a", 0.5), ("b", 0.3))]
    (tmp_path / "r.json").write_text(json.dumps({"rows": rows}))
    (tmp_path / "acc.csv").write_text("a,70.0\nb,60.0\n")
    monkeypatch.chdir(tmp_path)
    out = _child(f"import sys\n{code}\nprint('numpy' in sys.modules)")
    assert out.splitlines()[-1] == "False"


_COMMANDS = r"""
import sys
from adaptscore.cli import main
pair = ["--source-emb", "s.pemb", "--source-labels", "s.plbl", "--target-emb", "t.pemb"]
assert main(["score", "--method", "pas", *pair]) == 0
assert main(["rank", "--manifest", "m.json", "--out", "r.json"]) == 0
assert main(["substudy", "--manifest", "m.json", "--fractions", "0.5,1.0", "--repeats", "2", "--out", "study.json"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_commands_load_no_numpy_ma(tmp_path, monkeypatch, rng):
    """score, rank on every method, and substudy in a fresh interpreter:
    under numpy 2 np.unique loads numpy.ma, and no command needs it."""
    if _child("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("import numpy alone loads numpy.ma (numpy 1.x)")
    for name, labeled in (("s", random_labeled(rng)), ("t", random_labeled(rng))):
        save_embeddings(tmp_path / f"{name}.pemb", labeled.embeddings)
        save_labels(tmp_path / f"{name}.plbl", labeled.labels)
    methods = ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "mmd", "adist", "silhouette"]
    manifest = {"target": {"emb": "t.pemb", "labels": "t.plbl"},
                "candidates": [{"id": "a", "emb": "s.pemb", "labels": "s.plbl"}], "methods": methods}
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    assert _child(_COMMANDS).splitlines()[-1] == "False"


_SURFACE = r"""
import sys
import adaptscore
print(adaptscore.scores.__name__)  # a submodule, before any name loads it
names = adaptscore.__all__
print(all(getattr(adaptscore, n) is getattr(sys.modules[getattr(adaptscore, n).__module__], n) for n in names))
print(set(names) <= set(dir(adaptscore)), adaptscore.scores.pas is adaptscore.pas)
try:
    adaptscore.no_such_name
except AttributeError as exc:
    print(exc)
"""


def test_public_names_load_on_first_use():
    module, same, listed, unknown = _child(_SURFACE).splitlines()
    assert module == "adaptscore.scores"
    assert same == "True"
    assert listed == "True True"
    assert unknown == "module 'adaptscore' has no attribute 'no_such_name'"
    assert len(adaptscore.__all__) == 22


# Each name removed from the library API, with the module that held it.
REMOVED = {
    "unit_normalize": "embed_core",
    "class_centroids": "embed_core",
    "save_embeddings_csv": "formats",
    "save_labels_text": "formats",
    "CandidateScoreRow": "evaluation",
    "Method": "reporting",
    "METHODS": "reporting",
    "load_target": "reporting",
}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    """The PAS kernel's unit-row centroids (embed_core._centroid_table of
    the class sums of unit rows) are the one centroid definition left, and
    the CSV and text files are read but no longer written, and
    rank_candidates ranks a plain {id: score} dict, and the method names
    are corr.METHOD_NAMES, and reporting._open_entry opens the target as
    it opens a candidate; CentroidTable stays a public name."""
    assert name not in adaptscore.__all__
    with pytest.raises(AttributeError):
        getattr(adaptscore, name)
    assert not hasattr(importlib.import_module(f"adaptscore.{REMOVED[name]}"), name)
    assert hasattr(adaptscore, "CentroidTable")


_GUARD = r"""
from adaptscore import corr
corr.METHOD_NAMES = {names}
try:
    import adaptscore.reporting
except ImportError as exc:
    print(exc)
else:
    print("imported")
"""


@pytest.mark.parametrize(
    "names",
    ["corr.METHOD_NAMES", "(*corr.METHOD_NAMES, 'extra')", "corr.METHOD_NAMES[:-1]",
     "(*corr.METHOD_NAMES[:3], 'mmd', 'oracle', *corr.METHOD_NAMES[5:])"],
    ids=["unchanged", "gains", "loses", "reordered"],
)
def test_reporting_import_checks_the_method_names(names):
    """In a fresh interpreter, corr.METHOD_NAMES is edited before reporting
    loads: reporting imports only when the PAS family (scores._FAMILY) and
    its baselines (reporting._BASELINES) name corr.METHOD_NAMES, in its
    order."""
    out = _child(_GUARD.replace("{names}", names))
    want = "scores._FAMILY and reporting._BASELINES must name corr.METHOD_NAMES, in its order"
    assert out == ("imported" if names == "corr.METHOD_NAMES" else want)
