"""The benchmark's three workloads: seeded inputs, the CLI operations of
one cycle, and the checks of each operation's output against the
independent references.

Inputs are generated here with numpy from the workload seed and written
through ``adaptscore.formats.save_embeddings``/``save_labels``, so a change
to ``adaptscore.synth`` cannot change a workload. Every file path handed to
the CLI is absolute, so operations can run from any working directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

VALUE_TOL = 1e-9
# Text output is the value printed with 5 decimals.
TEXT_TOL = 5e-6 + VALUE_TOL
ALL_METHODS = ("pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "mmd", "adist", "silhouette")
NEGATED = {"mmd", "adist"}


@dataclass
class Op:
    name: str
    argv: list
    # stdout -> None when the output is right, else what is wrong
    check: Callable[[str], "str | None"]


def _close(got, want, tol=VALUE_TOL) -> bool:
    return isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= tol


def _unit(rng, rows, dim) -> np.ndarray:
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _domain(rng, means, labels, offsets, spread, chunk=16384) -> np.ndarray:
    """Rows means[y] + offsets[y] + uniform noise of norm about `spread`
    (uniform draws cost a third of normal ones), made in chunks so the
    generator never holds a second n x d array."""
    n, dim = labels.shape[0], means.shape[1]
    centers = means + offsets
    half_width = spread * math.sqrt(3.0 / dim)  # per-coordinate std spread/sqrt(dim)
    x = np.empty((n, dim))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = rng.random((hi - lo, dim))
        block *= 2.0 * half_width
        block += centers[labels[lo:hi]] - half_width
        x[lo:hi] = block
    return x


def _mislabel(rng, labels, classes, share=0.1) -> np.ndarray:
    """Labels with `share` of them replaced at random, so the oracle's
    true-class distance is not always the nearest one."""
    out = labels.copy()
    flip = rng.random(labels.shape[0]) < share
    out[flip] = rng.integers(0, classes, int(flip.sum()))
    return out


def _save(work: Path, stem: str, x, y=None) -> dict:
    from adaptscore.embed_core import EmbeddingSet
    from adaptscore.formats import save_embeddings, save_labels

    files = {"emb": str(work / f"{stem}.pemb")}
    save_embeddings(files["emb"], EmbeddingSet(x))
    if y is not None:
        files["labels"] = str(work / f"{stem}.plbl")
        save_labels(files["labels"], y)
    return files


def _score_value(text: str, want: float) -> "str | None":
    got = float(text.strip())
    return None if _close(got, want, TEXT_TOL) else f"value {got} != reference {want:.9f}"


class Workload:
    name = ""
    why = ""
    key = 0

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.refs = None

    def rng(self):
        return np.random.default_rng([self.seed, self.key])

    def generate(self) -> None:
        raise NotImplementedError

    def compute_references(self) -> None:
        raise NotImplementedError

    def warmup(self) -> Op:
        """An operation that reads every input through the program once."""
        raise NotImplementedError

    def ops(self) -> list:
        """One cycle of timed operations."""
        raise NotImplementedError

    def memory_ops(self) -> list:
        """Operations of the tracemalloc pass (a cycle without repeats)."""
        return self.ops()

    def serial_op(self):
        """The operation timed again with one thread, if any."""
        return None


def _score_args(files) -> list:
    return [
        "--source-emb", files["src"]["emb"],
        "--source-labels", files["src"]["labels"],
        "--target-emb", files["tgt"]["emb"],
    ]


def check_breakdown(text: str, refs: dict) -> "str | None":
    """`score --json` output against the reference value and every row of
    the reference breakdown. `nearest` may differ only on an exact tie."""
    payload = json.loads(text)
    value = payload["value"]
    rows = payload["breakdown"]
    idx = np.array([r["sample_index"] for r in rows])
    cols = {k: np.array([r[k] for r in rows], dtype=float) for k in ("d1", "d2", "contribution")}
    nearest = np.array([r["nearest_class"] for r in rows])
    want = refs["breakdown"]
    if not _close(value, refs["values"]["pas"]):
        return f"json value {value} != reference {refs['values']['pas']:.12f}"
    if len(rows) != len(want["d1"]) or not np.array_equal(idx, np.arange(len(rows))):
        return f"breakdown has {len(rows)} rows or misordered indices"
    for k, got in cols.items():
        bad = np.flatnonzero(~(np.abs(got - want[k]) <= VALUE_TOL))
        if bad.size:
            i = bad[0]
            return f"breakdown row {i} {k} {got[i]} != reference {want[k][i]}"
    tie = np.abs(want["d2"] - want["d1"]) <= 1e-12
    bad = np.flatnonzero((nearest != want["nearest"]) & ~tie)
    if bad.size:
        return f"breakdown row {bad[0]} nearest {nearest[bad[0]]} != {want['nearest'][bad[0]]}"
    return None


class ScoreDomainNet(Workload):
    name = "score-domainnet"
    why = ("345 classes x 512-d, 10,350 source and 100,000 target rows: load, "
           "normalize, GEMM + top-2 and breakdown assembly scale with n")
    key = 1
    classes, dim, per_class, n_target = 345, 512, 30, 100_000

    def generate(self):
        rng = self.rng()
        means = _unit(rng, self.classes, self.dim)
        shift = 0.3 * _unit(rng, self.classes, self.dim)
        src_y = np.arange(self.classes * self.per_class) % self.classes
        tgt_y = rng.integers(0, self.classes, self.n_target)
        self.files = {"src": _save(self.work, "src", _domain(rng, means, src_y, 0.0, 0.6), src_y)}
        self.files["tgt"] = _save(self.work, "tgt", _domain(rng, means, tgt_y, shift, 0.6),
                                  _mislabel(rng, tgt_y, self.classes))

    def compute_references(self):
        f = self.files
        self.refs = ref.centroid_scores(
            ref.read_pemb(f["src"]["emb"]), ref.read_plbl(f["src"]["labels"]),
            ref.read_pemb(f["tgt"]["emb"]), ref.read_plbl(f["tgt"]["labels"]),
        )

    def _text_op(self, method, extra=()):
        return Op(
            f"score-{method}",
            ["score", "--method", method, *extra, *_score_args(self.files)],
            lambda out: _score_value(out, self.refs["values"][method]),
        )

    def warmup(self):
        return self._text_op("pas")

    def ops(self):
        return [
            self._text_op("pas"),
            Op("score-pas-json", ["score", "--method", "pas", "--json", *_score_args(self.files)],
               lambda out: check_breakdown(out, self.refs)),
            self._text_op("pas_euclidean"),
            self._text_op("pas_avg_pairwise"),
            self._text_op("oracle", ["--target-labels", self.files["tgt"]["labels"]]),
        ]

    def memory_ops(self):
        return [op for op in self.ops() if op.name != "score-pas-json"]

    def serial_op(self):
        return self._text_op("pas")


def _candidate_entry(cid, files) -> dict:
    # Both key spellings: the README documents emb/labels, while
    # reporting.load_candidate reads source_emb/source_labels.
    return {
        "id": cid,
        "emb": files["emb"],
        "labels": files["labels"],
        "source_emb": files["emb"],
        "source_labels": files["labels"],
    }


class _ManifestWorkload(Workload):
    """Candidates 0..k-1 share the target's class means; candidate i's
    classes are offset by a growing amount, so the scores separate."""

    classes = dim = source_rows = n_target = candidates = 0
    target_labels = False
    methods = None  # the manifest's methods; None means the program's default

    def generate(self):
        rng = self.rng()
        means = _unit(rng, self.classes, self.dim)
        tgt_y = rng.permutation(np.arange(self.n_target) % self.classes)
        tgt_shift = 0.2 * _unit(rng, self.classes, self.dim)
        tgt = _save(self.work, "tgt", _domain(rng, means, tgt_y, tgt_shift, 0.5),
                    _mislabel(rng, tgt_y, self.classes) if self.target_labels else None)
        src_y = np.arange(self.source_rows) % self.classes
        self.ids = [f"cand{i}" for i in range(self.candidates)]
        self.cands = {}
        for i, cid in enumerate(self.ids):
            offsets = (0.1 + 0.1 * i) * _unit(rng, self.classes, self.dim)
            self.cands[cid] = _save(self.work, cid, _domain(rng, means, src_y, offsets, 0.5), src_y)
        self.tgt = tgt
        self.manifest = self.write_manifest("manifest.json", self.methods)
        self.accuracy = {cid: 85.0 - 6.0 * i + float(rng.normal(0.0, 2.0))
                         for i, cid in enumerate(self.ids)}

    def write_manifest(self, name, methods) -> str:
        doc = {
            "target": dict(self.tgt),
            "candidates": [_candidate_entry(cid, self.cands[cid]) for cid in self.ids],
            "seed": self.seed,
        }
        if methods is not None:
            doc["methods"] = list(methods)
        path = self.work / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return str(path)

    def _centroid_refs(self):
        tgt_x = ref.read_pemb(self.tgt["emb"])
        tgt_y = ref.read_plbl(self.tgt["labels"]) if self.target_labels else None
        out = {}
        for cid in self.ids:
            src_x = ref.read_pemb(self.cands[cid]["emb"])
            src_y = ref.read_plbl(self.cands[cid]["labels"])
            out[cid] = dict(ref.centroid_scores(src_x, src_y, tgt_x, tgt_y)["values"])
        return out, tgt_x


class RankOffice31(_ManifestWorkload):
    name = "rank-office31"
    why = ("31 classes x 256-d, 4 candidates of 2,800 rows, 800-row target: all "
           "seven methods; MMD, silhouette and the probe dominate, PAS is small")
    key = 2
    classes, dim, source_rows, n_target, candidates = 31, 256, 2800, 800, 4
    target_labels = True
    methods = ALL_METHODS

    def generate(self):
        super().generate()
        self.acc_csv = self.work / "accuracy.csv"
        self.acc_csv.write_text("".join(f"{c},{a:.2f}\n" for c, a in self.accuracy.items()))
        self.accuracy = {c: float(f"{a:.2f}") for c, a in self.accuracy.items()}
        self.warm_manifest = self.write_manifest("warmup.json", ["pas"])
        self.adist_seen = None

    def compute_references(self):
        values, tgt_x = self._centroid_refs()
        for cid in self.ids:
            src_x = ref.read_pemb(self.cands[cid]["emb"])
            src_y = ref.read_plbl(self.cands[cid]["labels"])
            values[cid]["mmd"] = ref.mmd(src_x, tgt_x)
            values[cid]["silhouette"] = ref.silhouette(src_x, src_y)
        pas = [values[c]["pas"] for c in self.ids]
        acc = [self.accuracy[c] for c in self.ids]
        self.refs = {
            "values": values,
            "pearson": ref.pearson(pas, acc),
            "spearman": ref.spearman(pas, acc),
        }

    def _check_report(self, path, methods) -> "str | None":
        report = json.loads(Path(path).read_text())
        rows = report["rows"]
        ids = [r["candidate_id"] for r in rows]
        raw = {r["candidate_id"]: r["method_scores"] for r in rows}
        shown = {r["candidate_id"]: r["display_scores"] for r in rows}
        if ids != self.ids:
            return f"report rows {ids} != candidates {self.ids}"
        for cid in ids:
            if sorted(raw[cid]) != sorted(methods):
                return f"{cid}: methods {sorted(raw[cid])}"
            for m in methods:
                got = raw[cid][m]
                if m == "adist":
                    if not (isinstance(got, float) and 0.0 <= got <= 2.0):
                        return f"{cid}: adist {got} outside [0, 2]"
                elif not _close(got, self.refs["values"][cid][m]):
                    return f"{cid}: {m} {got} != reference {self.refs['values'][cid][m]:.12f}"
                if shown[cid][m] != (-got if m in NEGATED else got):
                    return f"{cid}: display score of {m} is not the raw score's sign rule"
        for m in methods:
            want = ref.ranking({cid: shown[cid][m] for cid in ids})
            if report["ranking"].get(m) != want or report["selection"].get(m) != want[0]:
                return f"ranking/selection for {m} inconsistent with the scores"
        if "adist" in methods:
            adist = [raw[cid]["adist"] for cid in ids]
            if self.adist_seen is None:
                self.adist_seen = adist
            elif adist != self.adist_seen:
                return f"adist changed between runs: {adist} != {self.adist_seen}"
        return None

    def _check_corr(self, text) -> "str | None":
        payload = json.loads(text)
        for k in ("pearson", "spearman"):
            if not _close(payload.get(k), self.refs[k]):
                return f"corr {k} {payload.get(k)} != reference {self.refs[k]:.12f}"
        if payload.get("n") != len(self.ids):
            return f"corr n {payload.get('n')} != {len(self.ids)}"
        return None

    def warmup(self):
        out = self.work / "warmup_report.json"
        return Op("rank-pas-only", ["rank", "--manifest", self.warm_manifest, "--out", str(out)],
                  lambda _: self._check_report(out, ["pas"]))

    def ops(self):
        out = self.work / "report.json"
        return [
            Op("rank", ["rank", "--manifest", self.manifest, "--out", str(out)],
               lambda _: self._check_report(out, ALL_METHODS)),
            Op("corr", ["corr", "--report", str(out), "--accuracy", str(self.acc_csv), "--json"],
               self._check_corr),
        ]



class SubstudyMany(_ManifestWorkload):
    name = "substudy-many"
    why = ("8 candidates of 100 classes x 40 rows x 256-d, 5,000-row target: "
           "488 small pas calls, so per-call fixed costs dominate")
    key = 3
    classes, dim, source_rows, n_target, candidates = 100, 256, 4000, 5000, 8
    fractions = (0.1, 0.25, 0.5, 1.0)
    repeats = 20

    def generate(self):
        super().generate()
        self.study_seen = None

    def compute_references(self):
        values, _ = self._centroid_refs()
        self.refs = {cid: values[cid]["pas"] for cid in self.ids}

    def _check_study(self, path, fractions, repeats) -> "str | None":
        blob = Path(path).read_bytes()
        study = json.loads(blob)
        scores = study["scores"]
        rankings = study["rankings"]
        if study.get("fractions") != list(fractions) or study.get("candidate_ids") != self.ids:
            return "study fractions or candidate ids differ from the request"
        if len(scores) != len(fractions) or any(
            len(row) != len(self.ids) or any(len(c) != repeats for c in row) for row in scores
        ):
            return "study score table has the wrong shape"
        full = ref.ranking(self.refs)
        if study["full_ranking"] != full:
            return f"full ranking {study['full_ranking']} != reference {full}"
        for fi, f in enumerate(fractions):
            for ci, cid in enumerate(self.ids):
                for v in scores[fi][ci]:
                    if f == 1.0 and not _close(v, self.refs[cid]):
                        return f"fraction 1.0 score of {cid} {v} != direct pas {self.refs[cid]:.12f}"
                    if not (isinstance(v, float) and 0.0 <= v <= 1.0):
                        return f"fraction {f} score of {cid} {v} outside [0, 1]"
            matches = sum(r == study["full_ranking"] for r in rankings[fi])
            if study["rank_match_fraction"][fi] != matches / repeats or \
                    study["rank_stable"][fi] != (matches == repeats):
                return f"rank match summary at fraction {f} inconsistent with the rankings"
        if repeats == self.repeats:
            if self.study_seen is None:
                self.study_seen = blob
            elif blob != self.study_seen:
                return "study output changed between runs with the same seed"
        return None

    def warmup(self):
        out = self.work / "warmup_study.json"
        return Op("substudy-full-only",
                  ["substudy", "--manifest", self.manifest, "--fractions", "1.0",
                   "--repeats", "1", "--out", str(out)],
                  lambda _: self._check_study(out, [1.0], 1))

    def ops(self):
        out = self.work / "study.json"
        return [Op(
            "substudy",
            ["substudy", "--manifest", self.manifest,
             "--fractions", ",".join(str(f) for f in self.fractions),
             "--repeats", str(self.repeats), "--out", str(out)],
            lambda _: self._check_study(out, list(self.fractions), self.repeats),
        )]


WORKLOADS = {w.name: w for w in (ScoreDomainNet, RankOffice31, SubstudyMany)}
