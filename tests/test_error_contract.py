"""Seeded error contract of the CLI: damaged inputs end in exit code 2 or 3
with one JSON error object on stderr, never in an escaped exception.

Inputs are damaged by the numpy RNG under fixed seeds: PEMB/PLBL files are
truncated or get one byte flipped, and manifest, report and synth config
documents lose a key or get a value of the wrong JSON type.
"""

import json
import shutil

import numpy as np
import pytest

from adaptscore import EmbeddingSet
from adaptscore.cli import main
from adaptscore.formats import save_embeddings, save_labels
from adaptscore.reporting import METHODS

SYNTH = {"num_classes": 3, "dim": 4, "n_source_per_class": 6, "n_target_per_class": 4,
         "intra_spread": 0.3, "shift": 0.2, "seed": 1}
WRONG_TYPES = (5, -1, 2.5, "x", None, [], {}, ["x"], True)
BINARIES = ("src.pemb", "src.plbl", "tgt.pemb", "tgt.plbl")
CASES = 120


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs for every command; each case damages a copy."""
    base = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(0)
    save_embeddings(base / "src.pemb", EmbeddingSet(rng.standard_normal((18, 4))))
    save_labels(base / "src.plbl", np.arange(18) % 3)
    save_embeddings(base / "tgt.pemb", EmbeddingSet(rng.standard_normal((10, 4))))
    save_labels(base / "tgt.plbl", np.arange(10) % 3)
    manifest = {
        "target": {"emb": "tgt.pemb", "labels": "tgt.plbl"},
        "candidates": [
            {"id": "a", "emb": "src.pemb", "labels": "src.plbl"},
            {"id": "b", "synth": dict(SYNTH)},
        ],
        "methods": list(METHODS),
        "seed": 3,
        "max_samples": 50,
    }
    (base / "manifest.json").write_text(json.dumps(manifest))
    (base / "synth.json").write_text(json.dumps(SYNTH))
    (base / "acc.csv").write_text("a,70.0\nb,60.0\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(base)
        assert main(["rank", "--manifest", "manifest.json", "--out", "report.json"]) == 0
    return base


def _key_paths(doc, prefix=()):
    """The key path of every value nested in dicts and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _damage_json(path, rng):
    """Drop one key, or give one value a wrong JSON type."""
    doc = json.loads(path.read_text())
    paths = list(_key_paths(doc))
    where = paths[rng.integers(len(paths))]
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and rng.random() < 0.3:
        del parent[where[-1]]
    else:
        parent[where[-1]] = WRONG_TYPES[rng.integers(len(WRONG_TYPES))]
    path.write_text(json.dumps(doc))


def _damage_binary(path, rng):
    """Truncate the file, or flip bits of one byte."""
    blob = bytearray(path.read_bytes())
    if rng.random() < 0.3:
        del blob[rng.integers(len(blob)):]
    else:
        blob[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
    path.write_bytes(bytes(blob))


def _case(rng):
    """(the file to damage, argv) of one seeded case."""
    def pick(options):
        return options[rng.integers(len(options))]

    command = pick(("score", "rank", "substudy", "corr", "synth"))
    if command == "score":
        return pick(BINARIES), [
            "score", "--method", pick(list(METHODS)), "--source-emb", "src.pemb",
            "--source-labels", "src.plbl", "--target-emb", "tgt.pemb",
            "--target-labels", "tgt.plbl", "--max-samples", "50",
        ]
    if command in ("rank", "substudy"):
        damaged = "manifest.json" if rng.random() < 0.6 else pick(BINARIES)
        extra = ["--fractions", "0.5,1.0", "--repeats", "2"] if command == "substudy" else []
        return damaged, [command, "--manifest", "manifest.json", "--out", "out.json", *extra]
    if command == "corr":
        return "report.json", ["corr", "--report", "report.json", "--accuracy", "acc.csv"]
    return "synth.json", ["synth", "--config", "synth.json", "--out-dir", "out"]


def test_damaged_inputs_exit_2_or_3_with_one_json_error(inputs, tmp_path, monkeypatch, capsys):
    seen = set()
    for seed in range(CASES):
        rng = np.random.default_rng([20260, seed])
        work = tmp_path / str(seed)
        shutil.copytree(inputs, work)
        monkeypatch.chdir(work)
        damaged, argv = _case(rng)
        (_damage_json if damaged.endswith(".json") else _damage_binary)(work / damaged, rng)
        code = main(argv + ["--json"])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (seed, argv, err)
        seen.add(code)
        if code:
            lines = err.splitlines()
            assert len(lines) == 1, (seed, argv, err)
            payload = json.loads(lines[0])
            assert set(payload) == {"error", "message", "exit_code"}
            assert payload["exit_code"] == code
    assert {2, 3} <= seen


@pytest.mark.parametrize("case", ["dimension", "degenerate", "nan"])
@pytest.mark.parametrize("method", list(METHODS))
def test_score_and_rank_report_the_same_first_error(tmp_path, monkeypatch, capsys, method, case):
    """Inputs with two defects each: a target label of 7 for 3 classes,
    and either an 8-d source against a 6-d target, a source class whose
    two rows cancel (DegenerateClass), or an 8-d source holding a NaN
    against a 6-d target. score --json and a one-candidate rank of the
    same method exit with the same code and error, or both succeed
    (silhouette never reads the target). The source is opened, not
    loaded, so its NaN is found in a pass, after DimensionMismatch."""
    rng = np.random.default_rng(7)
    source = rng.standard_normal((6, 8))
    target_dim = 8 if case == "degenerate" else 6
    if case == "degenerate":
        source[3] = -source[0]  # rows 0 and 3 are class 0
    target_labels = np.arange(10) % 3
    target_labels[4] = 7
    save_embeddings(tmp_path / "src.pemb", EmbeddingSet(source))
    if case == "nan":  # the header's n and d stay; the value is patched in place
        blob = bytearray((tmp_path / "src.pemb").read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        (tmp_path / "src.pemb").write_bytes(bytes(blob))
    save_labels(tmp_path / "src.plbl", np.arange(6) % 3)
    save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet(rng.standard_normal((10, target_dim))))
    save_labels(tmp_path / "tgt.plbl", target_labels)
    manifest = {
        "target": {"emb": "tgt.pemb", "labels": "tgt.plbl"},
        "candidates": [{"id": "a", "emb": "src.pemb", "labels": "src.plbl"}],
        "methods": [method],
        "max_samples": 50,
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    monkeypatch.chdir(tmp_path)
    outcomes = []
    for argv in (
        ["score", "--method", method, "--source-emb", "src.pemb", "--source-labels", "src.plbl",
         "--target-emb", "tgt.pemb", "--target-labels", "tgt.plbl", "--max-samples", "50"],
        ["rank", "--manifest", "m.json", "--out", "r.json"],
    ):
        code = main([*argv, "--json"])
        err = capsys.readouterr().err
        outcomes.append((code, json.loads(err)["error"] if code else None))
    assert outcomes[0] == outcomes[1]
    if case == "nan":
        assert outcomes[0] == ((2, "NonFiniteValue") if method == "silhouette" else (3, "DimensionMismatch"))
