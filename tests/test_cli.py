import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adaptscore
from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    SynthConfig,
    embed_core,
    generate_pair,
    oracle_score,
    pas,
    pas_avg_pairwise,
    pas_euclidean,
)
from adaptscore.cli import main
from adaptscore.corr import METHOD_NAMES
from adaptscore.formats import (
    REPORT_SCHEMA,
    load_labels,
    save_embeddings,
    save_labels,
)
from adaptscore.reporting import NEGATED, _write_score_json
from conftest import read_embeddings


@pytest.fixture
def axes_fixture(tmp_path):
    """Two axis centroids, one target 30 degrees off the first."""
    save_embeddings(tmp_path / "src.pemb", EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]))
    save_labels(tmp_path / "src.plbl", [0, 1])
    c30 = math.cos(math.radians(30))
    s30 = math.sin(math.radians(30))
    save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet([[c30, s30]]))
    save_labels(tmp_path / "tgt.plbl", [0])
    return tmp_path


def synth_entry(seed, shift=0.3, spread=0.2):
    return {
        "num_classes": 4,
        "dim": 8,
        "n_source_per_class": 25,
        "n_target_per_class": 25,
        "intra_spread": spread,
        "shift": shift,
        "seed": seed,
        "target_spread": None,
    }


class TestScoreCommand:
    def test_pas_fixture(self, axes_fixture, capsys):
        code = main([
            "score", "--method", "pas",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(0.73205, abs=1e-5)

    def test_json_breakdown(self, axes_fixture, capsys):
        code = main([
            "score", "--method", "pas", "--json",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "pas"
        assert len(payload["breakdown"]) == 1
        assert payload["breakdown"][0]["nearest_class"] == 0

    @pytest.mark.parametrize("field", ["1_0", "\u0661"], ids=["digit-separator", "non-ascii-digit"])
    def test_csv_number_must_be_ascii(self, axes_fixture, capsys, field):
        (axes_fixture / "tgt.csv").write_text(f"0.5,{field}\n", encoding="utf-8")
        code = main([
            "score", "--method", "pas", "--json",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.csv"),
        ])
        assert (code, json.loads(capsys.readouterr().err)["error"]) == (2, "RaggedCsv")

    @pytest.mark.parametrize("method", ["pas", "mmd"])
    def test_row_whose_square_overflows_is_zero_vector(self, axes_fixture, capsys, method):
        (axes_fixture / "tgt.csv").write_text("1e308,1e308\n1e308,-1e308\n")
        code = main([
            "score", "--method", method, "--json",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.csv"),
        ])
        err = json.loads(capsys.readouterr().err)
        assert (code, err["error"], err["message"]) == (
            3, "ZeroVector", "row 0 has a squared norm that overflows float64 and cannot be normalized")

    def test_silhouette_of_classes_sharing_one_direction_is_in_range(self, tmp_path, capsys):
        """Every row has the same direction, so every cosine distance is 0
        up to the GEMM form's rounding; the value printed was -1.04167."""
        (tmp_path / "src.csv").write_text("30,48\n30,48\n45,72\n25,40\n20,32\n35,56\n45,72\n15,24\n")
        (tmp_path / "src.txt").write_text("0\n0\n0\n0\n1\n1\n1\n1\n")
        code = main([
            "score", "--method", "silhouette",
            "--source-emb", str(tmp_path / "src.csv"),
            "--source-labels", str(tmp_path / "src.txt"),
            "--target-emb", str(tmp_path / "src.csv"),
        ])
        assert code == 0
        assert -1.0 <= float(capsys.readouterr().out) <= 1.0

    def test_json_matches_asdict_rendering(self, tmp_path, rng, capsys):
        # Classes 0 and 1 are pure axes, so the first two target rows sit
        # exactly between their centroids (d1 == d2); the oracle labels one
        # of them with a third class and draws the rest at random, which
        # gives negative contributions.
        x_src = rng.standard_normal((12, 5))
        y_src = np.arange(12) % 3
        x_src[y_src == 0] = np.eye(5)[0]
        x_src[y_src == 1] = np.eye(5)[1]
        x_tgt = rng.standard_normal((9, 5))
        x_tgt[:2] = [[1.0, 1.0, 0.0, 0.0, 0.0], [2.0, 2.0, 0.0, 0.0, 0.0]]
        y_tgt = rng.integers(0, 3, 9)
        y_tgt[:2] = [2, 0]
        save_embeddings(tmp_path / "src.pemb", EmbeddingSet(x_src))
        save_labels(tmp_path / "src.plbl", y_src)
        save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet(x_tgt))
        save_labels(tmp_path / "tgt.plbl", y_tgt)
        source = LabeledEmbeddingSet(read_embeddings(tmp_path / "src.pemb"), y_src, 3)
        target = read_embeddings(tmp_path / "tgt.pemb")
        scorers = {
            "pas": lambda: pas(source, target),
            "pas_euclidean": lambda: pas_euclidean(source, target),
            "pas_avg_pairwise": lambda: pas_avg_pairwise(source, target),
            "oracle": lambda: oracle_score(
                source, LabeledEmbeddingSet(target, y_tgt, 3, require_all_classes=False)
            ),
        }
        for method, score in scorers.items():
            code = main([
                "score", "--method", method, "--json",
                "--source-emb", str(tmp_path / "src.pemb"),
                "--source-labels", str(tmp_path / "src.plbl"),
                "--target-emb", str(tmp_path / "tgt.pemb"),
                "--target-labels", str(tmp_path / "tgt.plbl"),
            ])
            assert code == 0
            result = score()
            d1, d2, _, contrib = result.breakdown_arrays()
            assert d1[1] == d2[1] and contrib[1] == 0.0
            if method == "oracle":
                assert contrib[0] < 0.0 and (contrib < 0.0).sum() > 1
            else:
                assert d1[0] == d2[0]
            rows = [dataclasses.asdict(b) for b in result.breakdown]
            want = json.dumps({"method": method, "value": result.value, "breakdown": rows})
            assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("n", [1, 6, 7, 14, 15])
    def test_json_written_block_by_block(self, rng, monkeypatch, n):
        # 7-row blocks: rows cross block edges, and n = 7 and 14 end on one.
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        source = LabeledEmbeddingSet(EmbeddingSet(rng.standard_normal((9, 4))), np.arange(9) % 3, 3)
        result = pas(source, EmbeddingSet(rng.standard_normal((n, 4))))
        out = io.StringIO()
        _write_score_json(out, "pas", result.value, result)
        rows = [dataclasses.asdict(b) for b in result.breakdown]
        assert out.getvalue() == json.dumps({"method": "pas", "value": result.value, "breakdown": rows}) + "\n"
        out = io.StringIO()
        _write_score_json(out, "mmd", 0.25, 0.25)
        assert out.getvalue() == json.dumps({"method": "mmd", "value": 0.25}) + "\n"

    def test_oracle_needs_labels(self, axes_fixture, capsys):
        code = main([
            "score", "--method", "oracle",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 3

    def test_missing_file_is_data_error(self, axes_fixture):
        code = main([
            "score", "--method", "pas",
            "--source-emb", str(axes_fixture / "nope.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 2

    def test_directory_path_is_data_error(self, axes_fixture, capsys):
        code = main([
            "score", "--method", "pas", "--json",
            "--source-emb", str(axes_fixture),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IsADirectoryError"

    def test_usage_error(self):
        assert main(["score", "--method"]) == 1

    def test_json_error_on_stderr(self, axes_fixture, capsys):
        code = main([
            "score", "--method", "oracle", "--json",
            "--source-emb", str(axes_fixture / "src.pemb"),
            "--source-labels", str(axes_fixture / "src.plbl"),
            "--target-emb", str(axes_fixture / "tgt.pemb"),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["exit_code"] == 3


class TestRankCommand:
    def test_rank_and_determinism(self, tmp_path, capsys):
        manifest = {
            "target": {"synth": synth_entry(1, shift=0.0)},
            "candidates": [
                # same seed as the target -> aligned class means; a
                # different seed draws unrelated means
                {"id": "near", "synth": synth_entry(1)},
                {"id": "far", "synth": synth_entry(99)},
            ],
            "methods": ["pas", "mmd", "adist"],
            "seed": 5,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["rank", "--manifest", str(mpath), "--out", str(out1)]) == 0
        assert main(["rank", "--manifest", str(mpath), "--out", str(out2)]) == 0
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["schema"] == REPORT_SCHEMA
        for method in ("pas", "mmd", "adist"):
            assert r1["ranking"][method][0] == r1["selection"][method]
        # lower shift wins under every method (mmd/adist via display negation)
        assert r1["selection"]["pas"] == "near"
        assert r1["selection"]["mmd"] == "near"
        r1.pop("created_at")
        r2.pop("created_at")
        assert r1 == r2


def test_synth_entries_give_rank_and_substudy_the_right_halves(tmp_path, capsys):
    """With one synth config as both target and candidate, the target is
    the pair's target half and the candidate its source half: the report's
    pas and oracle and substudy's fraction-1.0 scores are those of the
    library call on generate_pair(cfg), bit for bit."""
    cfg = dict(synth_entry(4), n_target_per_class=15)
    source, target = generate_pair(SynthConfig.from_dict(cfg))
    want_pas = pas(source, target.embeddings).value.hex()
    manifest = {"target": {"synth": cfg}, "candidates": [{"id": "a", "synth": cfg}]}
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(dict(manifest, methods=["pas", "oracle"])))
    assert main(["rank", "--manifest", str(mpath), "--out", str(tmp_path / "r.json")]) == 0
    got = json.loads((tmp_path / "r.json").read_text())["rows"][0]["method_scores"]
    assert got["pas"].hex() == want_pas
    assert got["oracle"].hex() == oracle_score(source, target).value.hex()
    study_path = tmp_path / "study.json"
    argv = ["substudy", "--manifest", str(mpath), "--fractions", "0.5,1.0", "--repeats", "2"]
    assert main(argv + ["--out", str(study_path)]) == 0
    assert [v.hex() for v in json.loads(study_path.read_text())["scores"][1][0]] == [want_pas] * 2


# num_classes x dim float64 class directions: 71.1 PiB, beyond any 47-bit
# address space, so the allocation fails at once whatever the overcommit
# setting, and no memory is touched.
_UNALLOCATABLE = dict(synth_entry(5), num_classes=100_000_000, dim=100_000_000,
                      n_source_per_class=1, n_target_per_class=1)


@pytest.mark.parametrize("command", ["synth", "rank", "substudy"])
def test_unallocatable_synth_size_is_a_data_error(tmp_path, capsys, command):
    """A synth size that cannot be allocated exits 2 with numpy's message
    (MemoryError), from synth --config and from a manifest's second
    candidate, and writes nothing."""
    out = tmp_path / "out"
    if command == "synth":
        (tmp_path / "cfg.json").write_text(json.dumps(_UNALLOCATABLE))
        argv = ["synth", "--config", str(tmp_path / "cfg.json"), "--out-dir", str(out)]
    else:
        candidates = [{"id": "a", "synth": synth_entry(2)}, {"id": "big", "synth": _UNALLOCATABLE}]
        manifest = {"target": {"synth": synth_entry(2)}, "candidates": candidates}
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        argv = [command, "--manifest", str(tmp_path / "m.json"), "--out", str(out)]
        argv += ["--fractions", "1.0", "--repeats", "1"] if command == "substudy" else []
    assert main(argv + ["--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == ("MemoryError", 2)
    assert "Unable to allocate" in err["message"]
    assert not out.exists()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")


def _readme_manifest() -> dict:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    return json.loads(block)


def test_readme_python_blocks_run_in_order(tmp_path, monkeypatch, rng):
    """Every python block of the README, run in order in one namespace that
    holds the inputs its text names, in a directory with its src.pemb and
    tgt.pemb; the CSV recipe's file loads back as the float32 values of x."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    means = rng.standard_normal((31, 16))
    y_src = np.arange(310) % 31
    x_src = means[y_src] + 0.5 * rng.standard_normal((310, 16))
    x_tgt = means[rng.integers(0, 31, 200)] + rng.standard_normal((200, 16))
    save_embeddings(tmp_path / "src.pemb", EmbeddingSet(x_src))
    save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet(x_tgt))
    monkeypatch.chdir(tmp_path)
    namespace = {"x_src": x_src, "y_src": y_src, "x_tgt": x_tgt, "x": x_tgt, "labels": y_src}
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        exec(compile(block, "README.md", "exec"), namespace)
    want = x_tgt.astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(read_embeddings(tmp_path / "emb.csv").data, want, strict=True)
    np.testing.assert_array_equal(load_labels(tmp_path / "labels.txt"), y_src)


class TestManifestSchema:
    @pytest.fixture
    def readme_dir(self, tmp_path, monkeypatch, rng):
        """The README manifest's files, 8-d to match its synth candidate."""
        save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet(rng.standard_normal((30, 8))))
        save_embeddings(tmp_path / "a.pemb", EmbeddingSet(rng.standard_normal((40, 8))))
        save_labels(tmp_path / "a.plbl", np.arange(40) % 4)
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_readme_manifest_ranks(self, readme_dir):
        manifest = _readme_manifest()
        (readme_dir / "m.json").write_text(json.dumps(manifest))
        assert main(["rank", "--manifest", "m.json", "--out", "r.json"]) == 0
        report = json.loads((readme_dir / "r.json").read_text())
        assert sorted(r["candidate_id"] for r in report["rows"]) == ["a", "b"]
        assert set(report["selection"]) == set(manifest["methods"])

    @pytest.mark.parametrize("command", ["rank", "substudy"])
    @pytest.mark.parametrize("where, key", [
        ("candidate", "labels"), ("candidate", "emb"), ("candidate", "id"), ("target", "emb"),
    ])
    def test_missing_key_is_a_format_error(self, readme_dir, capsys, command, where, key):
        manifest = _readme_manifest()
        entry = manifest["candidates"][0] if where == "candidate" else manifest["target"]
        del entry[key]
        (readme_dir / "m.json").write_text(json.dumps(manifest))
        argv = [command, "--manifest", "m.json", "--out", "out.json", "--json"]
        if command == "substudy":
            argv += ["--fractions", "1.0", "--repeats", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ManifestError" and err["exit_code"] == 2
        assert repr(key) in err["message"]
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("command", ["rank", "substudy"])
    @pytest.mark.parametrize("last, error, code", [
        ({"labels": "a.plbl"}, "ManifestError", 2),
        ({"emb": "a.pemb"}, "ManifestError", 2),
        ({"emb": 5, "labels": "a.plbl"}, "ManifestError", 2),
        ({"emb": "a.pemb", "labels": ["a.plbl"]}, "ManifestError", 2),
        ({"synth": 5}, "ManifestError", 2),
        ({"synth": [synth_entry(1)]}, "ManifestError", 2),
        ({"synth": dict(synth_entry(1), spread=0.1)}, "ConfigInvalid", 3),
        ({"synth": dict(synth_entry(1), seed=-1)}, "ConfigInvalid", 3),
    ], ids=["no-emb", "no-labels", "emb-not-string", "labels-not-string", "synth-5", "synth-list",
            "synth-unknown-field", "synth-negative-seed"])
    def test_last_candidate_defect_fails_before_any_file_is_read(self, readme_dir, capsys, command,
                                                                last, error, code):
        """The target and the first candidate name missing files, so a
        manifest check made only when an entry is loaded would report
        FileNotFoundError instead; nothing is scored either."""
        manifest = _readme_manifest()
        manifest["target"]["emb"] = "missing.pemb"
        manifest["candidates"][0].update(emb="missing.pemb", labels="missing.plbl")
        manifest["candidates"].append(dict(last, id="last"))
        (readme_dir / "m.json").write_text(json.dumps(manifest))
        argv = [command, "--manifest", "m.json", "--out", "out.json", "--json"]
        if command == "substudy":
            argv += ["--fractions", "1.0", "--repeats", "1"]
        assert main(argv) == code
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == (error, code)
        assert not (readme_dir / "out.json").exists()

    @pytest.mark.parametrize("manifest", [
        [],
        {"target": "tgt.pemb", "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": []},
        {"target": {"emb": "tgt.pemb"}, "candidates": [1]},
        {"target": {"emb": "tgt.pemb"}, "candidates": {"id": "a"}},
        {"target": 5, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"emb": 5}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"emb": "tgt.pemb", "labels": 5},
         "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"synth": 5}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": 5, "labels": "a.plbl"}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": ["x"]}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "synth": 5}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": 5, "emb": "a.pemb", "labels": "a.plbl"}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}],
         "methods": "pas"},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}],
         "methods": ["pas", 1]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}],
         "seed": [5]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"},
                                                       {"id": "a", "synth": {}}]},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}],
         "methods": []},
        {"target": {"emb": "tgt.pemb"}, "candidates": [{"id": "a", "emb": "a.pemb", "labels": "a.plbl"}],
         "methods": ["pas", "pas"]},
    ])
    def test_malformed_manifest_is_a_format_error(self, readme_dir, capsys, manifest):
        (readme_dir / "m.json").write_text(json.dumps(manifest))
        assert main(["rank", "--manifest", "m.json", "--out", "out.json", "--json"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ManifestError"


class TestMethodTable:
    @pytest.fixture
    def fixture_dir(self, tmp_path, rng, monkeypatch):
        """One candidate and a labeled target, ranked under every method."""
        save_embeddings(tmp_path / "src.pemb", EmbeddingSet(rng.standard_normal((24, 5))))
        save_labels(tmp_path / "src.plbl", np.arange(24) % 3)
        save_embeddings(tmp_path / "tgt.pemb", EmbeddingSet(rng.standard_normal((12, 5))))
        save_labels(tmp_path / "tgt.plbl", np.arange(12) % 3)
        manifest = {
            "target": {"emb": "tgt.pemb", "labels": "tgt.plbl"},
            "candidates": [{"id": "a", "emb": "src.pemb", "labels": "src.plbl"}],
            "methods": list(METHOD_NAMES),
            "seed": 4,
            "max_samples": 20,
        }
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        monkeypatch.chdir(tmp_path)
        return tmp_path

    SCORE_ARGS = [
        "--source-emb", "src.pemb", "--source-labels", "src.plbl", "--target-emb", "tgt.pemb",
        "--target-labels", "tgt.plbl", "--seed", "4", "--max-samples", "20", "--json",
    ]

    def test_score_and_rank_agree_on_every_method(self, fixture_dir, capsys):
        assert main(["rank", "--manifest", "m.json", "--out", "r.json"]) == 0
        row = json.loads((fixture_dir / "r.json").read_text())["rows"][0]
        capsys.readouterr()
        for name in METHOD_NAMES:
            assert main(["score", "--method", name, *self.SCORE_ARGS]) == 0
            value = json.loads(capsys.readouterr().out)["value"]
            assert value == row["method_scores"][name], name
            assert row["display_scores"][name] == (-value if name in NEGATED else value), name

    @pytest.mark.parametrize("command", ["rank", "substudy"])
    @pytest.mark.parametrize(
        "out", ["missing/r.json", "m.json/r.json", "locked/r.json", "taken", "r.locked", "", "fresh/", "m.json/"]
    )
    def test_unwritable_out_fails_before_scoring(self, fixture_dir, capsys, monkeypatch, command, out):
        """An --out directory that is missing, a file, or not writable, an
        --out that is a directory or a read-only file, and an --out that
        names no file (empty, or ending in a separator) exit 2 before any
        candidate is scored. os.access is patched to call "locked" and
        "r.locked" read-only, since a chmod does not stop the root user."""
        from adaptscore import evaluation, reporting

        (fixture_dir / "locked").mkdir()
        (fixture_dir / "taken").mkdir()
        (fixture_dir / "r.locked").write_text("")
        access = os.access
        monkeypatch.setattr(os, "access", lambda p, mode: not p.endswith("locked") and access(p, mode))
        scored = []
        for module, name in ((reporting, "score_candidate"), (evaluation, "subsample_study")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, real=real, **k: scored.append(a) or real(*a, **k))
        argv = [command, "--manifest", "m.json", "--json"]
        if command == "substudy":
            argv += ["--fractions", "1.0", "--repeats", "1"]
        assert main([*argv, "--out", out]) == 2
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("OSError", 2)
        assert scored == []
        assert main([*argv, "--out", "r.json"]) == 0
        assert scored

    def test_readme_table_matches(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = re.findall(r"^\| `(\w+)` \| (yes|no) \| (yes|no) \|$", readme, re.M)
        assert {name: (labels == "yes", negated == "yes") for name, labels, negated in table} == {
            name: (name == "oracle", name in NEGATED) for name in METHOD_NAMES
        }

    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_unknown_method_is_config_invalid(self, fixture_dir, capsys, command):
        if command == "score":
            argv = ["score", "--method", "nope", *self.SCORE_ARGS]
        else:
            manifest = json.loads((fixture_dir / "m.json").read_text())
            manifest["methods"] = ["pas", "nope"]
            (fixture_dir / "m.json").write_text(json.dumps(manifest))
            argv = ["rank", "--manifest", "m.json", "--out", "r.json", "--json"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and err["exit_code"] == 3

    @pytest.mark.parametrize("max_samples", [20, 10_000])  # the source is above, then below, the cap
    @pytest.mark.parametrize("method", ["mmd", "adist"])
    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_negative_seed_is_config_invalid(self, fixture_dir, capsys, command, method, max_samples):
        if command == "score":
            argv = ["score", "--method", method, *self.SCORE_ARGS,
                    "--seed", "-1", "--max-samples", str(max_samples)]
        else:
            manifest = json.loads((fixture_dir / "m.json").read_text())
            manifest.update(methods=[method], seed=-1, max_samples=max_samples)
            (fixture_dir / "m.json").write_text(json.dumps(manifest))
            argv = ["rank", "--manifest", "m.json", "--out", "r.json", "--json"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and err["exit_code"] == 3

    @pytest.mark.parametrize("command, method, setting", [
        ("score", "mmd", {"seed": -1}),
        ("rank", "mmd", {"max_samples": -1}),
        ("rank", "adist", {"seed": -1}),
    ], ids=["score-mmd-seed", "rank-mmd-max_samples", "rank-adist-seed"])
    def test_bad_baseline_setting_is_config_invalid_before_any_file(
        self, fixture_dir, capsys, command, method, setting
    ):
        """A seed or sample cap that MmdConfig or ProxyClassifierConfig
        rejects is checked with the methods, before a missing file is
        opened."""
        (fixture_dir / "tgt.pemb").unlink()
        (fixture_dir / "src.pemb").unlink()
        if command == "score":
            argv = ["score", "--method", method, *self.SCORE_ARGS, "--seed", str(setting["seed"])]
        else:
            manifest = json.loads((fixture_dir / "m.json").read_text())
            manifest.update(methods=[method], **setting)
            (fixture_dir / "m.json").write_text(json.dumps(manifest))
            argv = ["rank", "--manifest", "m.json", "--out", "r.json", "--json"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigInvalid" and err["exit_code"] == 3

    @pytest.mark.parametrize("labels, count", [("src.plbl", 0), ("src.plbl", 23), ("tgt.plbl", 11)],
                             ids=["empty-source", "short-source", "short-target"])
    @pytest.mark.parametrize("command", ["score", "rank"])
    def test_label_count_mismatch_is_a_format_error(self, fixture_dir, capsys, command, labels, count):
        save_labels(fixture_dir / labels, np.arange(count) % 3)
        if command == "score":
            argv = ["score", "--method", "oracle", *self.SCORE_ARGS]
        else:
            argv = ["rank", "--manifest", "m.json", "--out", "r.json", "--json"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "LabelCountMismatch" and err["exit_code"] == 2

    @pytest.mark.parametrize("command", ["score", "rank", "substudy"])
    def test_target_label_count_checked_when_no_method_reads_them(self, fixture_dir, capsys, command):
        # 5 labels for 12 target rows, and pas never reads them.
        save_labels(fixture_dir / "tgt.plbl", np.arange(5) % 3)
        manifest = json.loads((fixture_dir / "m.json").read_text())
        manifest["methods"] = ["pas"]
        (fixture_dir / "m.json").write_text(json.dumps(manifest))
        argv = [command, "--manifest", "m.json", "--out", "out.json", "--json"]
        if command == "score":
            argv = ["score", "--method", "pas", *self.SCORE_ARGS]
        if command == "substudy":
            argv += ["--fractions", "1.0", "--repeats", "1"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "LabelCountMismatch" and err["exit_code"] == 2
        assert not (fixture_dir / "out.json").exists()

    def test_score_reads_a_given_target_label_file(self, fixture_dir, capsys):
        # pas never reads the labels, but a missing file is still an error.
        argv = ["score", "--method", "pas", *self.SCORE_ARGS, "--target-labels", "missing.plbl"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    def test_rank_checks_methods_before_loading_candidates(self, fixture_dir, capsys):
        manifest = {
            "target": {"emb": "tgt.pemb"},
            "candidates": [{"id": "a", "emb": "missing.pemb", "labels": "src.plbl"}],
            "methods": ["oracle"],
        }
        (fixture_dir / "m.json").write_text(json.dumps(manifest))
        assert main(["rank", "--manifest", "m.json", "--out", "r.json", "--json"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"

    @pytest.mark.parametrize("method", ["nope", "oracle"])
    def test_score_checks_the_method_before_any_file(self, fixture_dir, capsys, method):
        # oracle without --target-labels; neither embedding file exists.
        argv = ["score", "--method", method, "--source-emb", "missing.pemb",
                "--source-labels", "src.plbl", "--target-emb", "missing-tgt.pemb", "--json"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("ConfigInvalid", 3)

    @pytest.mark.parametrize("method", ["nope", "oracle"])
    def test_rank_checks_methods_before_the_target(self, fixture_dir, capsys, method):
        # The target has no labels for oracle, and its file does not exist.
        manifest = {
            "target": {"emb": "missing-tgt.pemb"},
            "candidates": [{"id": "a", "emb": "src.pemb", "labels": "src.plbl"}],
            "methods": ["pas", method],
        }
        (fixture_dir / "m.json").write_text(json.dumps(manifest))
        assert main(["rank", "--manifest", "m.json", "--out", "r.json", "--json"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("ConfigInvalid", 3)

    def test_rank_synth_target_has_labels(self, fixture_dir):
        manifest = {
            "target": {"synth": synth_entry(1)},
            "candidates": [{"id": "a", "synth": synth_entry(2)}],
            "methods": ["oracle"],
        }
        (fixture_dir / "m.json").write_text(json.dumps(manifest))
        assert main(["rank", "--manifest", "m.json", "--out", "r.json"]) == 0
        rows = json.loads((fixture_dir / "r.json").read_text())["rows"]
        assert list(rows[0]["method_scores"]) == ["oracle"]


@pytest.mark.parametrize(
    "blob,error",
    [(b"\xff\xfe{}", "BadMagic"), (b"[" * 200_000 + b"]" * 200_000, "FormatError")],
    ids=["non-utf8", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["rank", "substudy", "corr", "synth"])
def test_non_utf8_json_is_bad_magic(tmp_path, capsys, command, blob, error):
    """A JSON file that is not UTF-8, or that nests deeper than the parser
    recurses (a RecursionError from json.loads), is a typed format error."""
    doc = tmp_path / "doc.json"
    doc.write_bytes(blob)
    (tmp_path / "acc.csv").write_text("a,70.0\nb,60.0\n")
    argv = {
        "rank": ["rank", "--manifest", str(doc), "--out", str(tmp_path / "r.json")],
        "substudy": ["substudy", "--manifest", str(doc), "--fractions", "1.0",
                     "--out", str(tmp_path / "s.json")],
        "corr": ["corr", "--report", str(doc), "--accuracy", str(tmp_path / "acc.csv")],
        "synth": ["synth", "--config", str(doc), "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main([*argv, "--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["exit_code"]) == (error, 2)
    assert str(doc) in err["message"]


@pytest.mark.parametrize("command", ["corr", "synth"])
def test_json_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    """A report or synth config with a leading UTF-8 byte-order mark gives
    the same output as without one (test_formats checks the manifest)."""
    doc = {
        "corr": {"rows": [{"candidate_id": "a", "method_scores": {"pas": 0.5}},
                          {"candidate_id": "b", "method_scores": {"pas": 0.3}}]},
        "synth": synth_entry(3),
    }[command]
    (tmp_path / "acc.csv").write_text("a,70.0\nb,60.0\n")
    outputs = []
    for name, bom in (("plain", b""), ("marked", "\ufeff".encode())):
        path = tmp_path / f"{name}.json"
        path.write_bytes(bom + json.dumps(doc).encode())
        out = tmp_path / name
        argv = {
            "corr": ["corr", "--report", str(path), "--accuracy", str(tmp_path / "acc.csv"), "--json"],
            "synth": ["synth", "--config", str(path), "--out-dir", str(out)],
        }[command]
        assert main(argv) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        written = [(out / f).read_bytes() for f in sorted(os.listdir(out))] if out.exists() else None
        outputs.append((printed, written))
    assert outputs[0] == outputs[1]


class TestCorrCommand:
    def test_reference_row(self, tmp_path, capsys):
        from reference_tables import OFFICE_31_RESNET50

        rows = []
        acc_lines = []
        for g in OFFICE_31_RESNET50["groups"]:
            for src, p, acc in zip(g["sources"], g["pas"], g["accuracy"]):
                cid = f"{src}->{g['target']}"
                rows.append({"candidate_id": cid, "method_scores": {"pas": p}})
                acc_lines.append(f"{cid},{acc}")
        report = {"schema": REPORT_SCHEMA, "rows": rows}
        rpath = tmp_path / "report.json"
        rpath.write_text(json.dumps(report))
        apath = tmp_path / "acc.csv"
        apath.write_text("\n".join(acc_lines) + "\n")
        assert main(["corr", "--report", str(rpath), "--accuracy", str(apath)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "0.73 / 0.66"


class TestCorrErrors:
    ROWS = [
        {"candidate_id": "a", "method_scores": {"pas": 0.5}},
        {"candidate_id": "b", "method_scores": {"pas": 0.3}},
    ]

    @pytest.mark.parametrize("report, method, code, error", [
        ({"rows": ROWS}, "mmd", 3, "MissingScore"),
        ({"rows": ROWS}, "nope", 3, "ConfigInvalid"),
        ({"rows": {"candidate_id": "a"}}, "pas", 2, "FormatError"),
        ({"rows": [1, 2]}, "pas", 2, "FormatError"),
        ({}, "pas", 2, "FormatError"),
        ({"rows": [dict(ROWS[0], method_scores={"pas": [0.5]}), ROWS[1]]}, "pas", 2, "FormatError"),
        ({"rows": [dict(ROWS[0], method_scores={"pas": True}), ROWS[1]]}, "pas", 2, "FormatError"),
    ])
    def test_typed_errors(self, tmp_path, capsys, report, method, code, error):
        (tmp_path / "r.json").write_text(json.dumps(report))
        (tmp_path / "acc.csv").write_text("a,70.0\nb,60.0\n")
        argv = ["corr", "--report", str(tmp_path / "r.json"), "--accuracy", str(tmp_path / "acc.csv"),
                "--method", method, "--json"]
        assert main(argv) == code
        assert json.loads(capsys.readouterr().err)["error"] == error

    def test_accuracy_file_with_a_byte_order_mark(self, tmp_path, capsys):
        """An accuracy file saved with a UTF-8 byte-order mark keeps its
        first candidate: the mark once became part of its id, which then
        matched no report row."""
        report = {"rows": [{"candidate_id": c, "method_scores": {"pas": v}}
                           for c, v in (("a", 0.5), ("b", 0.3), ("c", 0.4))]}
        accuracy = "a,60.0\nb,70.0\nc,62.0\n"
        (tmp_path / "r.json").write_text(json.dumps(report))
        printed = []
        for bom in (b"", "\ufeff".encode()):
            (tmp_path / "acc.csv").write_bytes(bom + accuracy.encode())
            argv = ["corr", "--report", str(tmp_path / "r.json"), "--accuracy", str(tmp_path / "acc.csv"),
                    "--json"]
            assert main(argv) == 0
            printed.append(json.loads(capsys.readouterr().out))
        assert printed[0] == printed[1]
        assert printed[1]["n"] == 3
        assert printed[1]["pearson"] == adaptscore.pearson([0.5, 0.3, 0.4], [60.0, 70.0, 62.0])

    def test_unknown_method_before_any_file(self, tmp_path, capsys):
        argv = ["corr", "--report", str(tmp_path / "missing.json"),
                "--accuracy", str(tmp_path / "missing.csv"), "--method", "nope", "--json"]
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["exit_code"]) == ("ConfigInvalid", 3)

    def test_unknown_method_message_is_shared(self, tmp_path, capsys):
        """corr, which loads no method table, and score name the known
        methods in the table's order."""
        want = "unknown method 'nope'; known: " + ", ".join(METHOD_NAMES)
        missing = str(tmp_path / "missing")
        for argv in (["corr", "--report", missing, "--accuracy", missing],
                     ["score", "--source-emb", missing, "--source-labels", missing, "--target-emb", missing]):
            assert main([*argv, "--method", "nope", "--json"]) == 3
            assert json.loads(capsys.readouterr().err)["message"] == want

    def _run(self, tmp_path, capsys, report, accuracy):
        (tmp_path / "r.json").write_text(json.dumps(report))
        (tmp_path / "acc.csv").write_text(accuracy, encoding="utf-8")
        argv = ["corr", "--report", str(tmp_path / "r.json"), "--accuracy", str(tmp_path / "acc.csv"),
                "--json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, json.loads(captured.err)

    @pytest.mark.parametrize("accuracy", ["a,70.0\n", "c,70.0\n"], ids=["one-pair", "no-pair"])
    def test_fewer_than_two_pairs_is_too_few_samples(self, tmp_path, capsys, accuracy):
        code, err = self._run(tmp_path, capsys, {"rows": self.ROWS}, accuracy)
        assert (code, err["error"]) == (3, "TooFewSamples")
        assert "need at least 2 samples" in err["message"]

    @pytest.mark.parametrize("line", ["b,nan", "b,inf", "b,-inf", "b,abc", "b,", "a,60.0", "b,7_1.8",
                                      "b,\u0667\u0661.8"])
    def test_bad_accuracy_is_ragged_csv(self, tmp_path, capsys, line):
        code, err = self._run(tmp_path, capsys, {"rows": self.ROWS}, f"a,70.0\n{line}\n")
        assert (code, err["error"]) == (2, "RaggedCsv")
        assert "line 2" in err["message"]

    @pytest.mark.parametrize("score", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int-overflow"])
    def test_non_finite_score_is_format_error(self, tmp_path, capsys, score):
        report = {"rows": [self.ROWS[0], dict(self.ROWS[1], method_scores={"pas": score})]}
        code, err = self._run(tmp_path, capsys, report, "a,70.0\nb,60.0\n")
        assert (code, err["error"]) == (2, "FormatError")
        assert "'b'" in err["message"]

    def test_repeated_candidate_id_is_format_error(self, tmp_path, capsys):
        """A repeated string id once counted its candidate twice: these rows
        printed pearson 0.0 over n 3. Ids that are not strings are skipped,
        repeated or not."""
        rows = [{"candidate_id": c, "method_scores": {"pas": v}}
                for c, v in (("a", 0.1), ("a", 0.9), ("b", 0.5))]
        code, err = self._run(tmp_path, capsys, {"rows": rows}, "a,70\nb,60\n")
        assert (code, err["error"]) == (2, "FormatError")
        assert "'a'" in err["message"]
        skipped = [{"candidate_id": cid, "method_scores": {"pas": 0.2}} for cid in ([1], [1], None, None)]
        (tmp_path / "r.json").write_text(json.dumps({"rows": skipped + self.ROWS}))
        argv = ["corr", "--report", str(tmp_path / "r.json"), "--accuracy", str(tmp_path / "acc.csv"), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 2


class TestSynthCommand:
    @pytest.mark.parametrize("config", [
        [synth_entry(3)],
        {k: v for k, v in synth_entry(3).items() if k != "n_target_per_class"},
        dict(synth_entry(3), colour="red"),
        dict(synth_entry(3), dim="8"),
        dict(synth_entry(3), n_source_per_class=True),
        dict(synth_entry(3), intra_spread=float("nan")),
        dict(synth_entry(3), shift=float("inf")),
        dict(synth_entry(3), seed=-1),
    ])
    def test_bad_config_is_config_invalid(self, tmp_path, capsys, config):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(config))
        argv = ["synth", "--config", str(cpath), "--out-dir", str(tmp_path / "out"), "--json"]
        assert main(argv) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigInvalid"

    def test_writes_pair(self, tmp_path, capsys):
        cpath = tmp_path / "cfg.json"
        cpath.write_text(json.dumps(synth_entry(3)))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cpath), "--out-dir", str(out)]) == 0
        emb = read_embeddings(out / "source_emb.pemb")
        labels = load_labels(out / "source_labels.plbl")
        assert emb.n == 100 and labels.shape[0] == 100
        assert (out / "target_emb.pemb").exists()
        assert (out / "target_labels.plbl").exists()


class TestSubstudyCommand:
    def test_writes_study_json(self, tmp_path, capsys):
        manifest = {
            "target": {"synth": synth_entry(2, shift=0.0)},
            "candidates": [
                {"id": "a", "synth": synth_entry(2)},
                {"id": "b", "synth": synth_entry(77)},
            ],
            "seed": 3,
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "study.json"
        code = main([
            "substudy", "--manifest", str(mpath),
            "--fractions", "0.5,1.0", "--repeats", "3", "--out", str(out),
        ])
        assert code == 0
        study = json.loads(out.read_text())
        assert out.read_text() == json.dumps(study, indent=2, sort_keys=True) + "\n"
        assert study["fractions"] == [0.5, 1.0]
        assert len(study["scores"]) == 2
        assert study["rank_stable"][1] is True

    @pytest.mark.parametrize("repeats", ["-3", "0"])
    def test_repeats_below_one_is_a_data_error(self, tmp_path, capsys, repeats):
        manifest = {
            "target": {"synth": synth_entry(2, shift=0.0)},
            "candidates": [{"id": "a", "synth": synth_entry(2)}],
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        out = tmp_path / "study.json"
        code = main([
            "substudy", "--manifest", str(mpath), "--json",
            "--fractions", "0.5,1.0", "--repeats", repeats, "--out", str(out),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("fractions, repeats", [
        ("0.5,abc", "2"), ("0.5,1.0", "0"), ("1.0,0.5", "2"), ("0,1.0", "2"), ("0.5,0.5", "1"),
    ])
    def test_arguments_checked_before_any_input_is_read(
        self, tmp_path, capsys, monkeypatch, fractions, repeats
    ):
        from adaptscore import formats, reporting

        manifest = {
            "target": {"synth": synth_entry(2, shift=0.0)},
            "candidates": [{"id": "a", "synth": synth_entry(2)}],
        }
        mpath = tmp_path / "m.json"
        mpath.write_text(json.dumps(manifest))
        loaded = []
        for module, name in ((formats, "load_manifest"), (reporting, "_inputs"), (reporting, "load_candidate")):
            monkeypatch.setattr(module, name, lambda *a, name=name, **k: loaded.append(name))
        code = main([
            "substudy", "--manifest", str(mpath), "--json",
            "--fractions", fractions, "--repeats", repeats, "--out", str(tmp_path / "study.json"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert loaded == []


def test_cli_import_leaves_scipy_out():
    src = str(Path(adaptscore.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, adaptscore.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
