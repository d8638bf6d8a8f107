"""Manifest-driven scoring pipeline and report assembly."""

from __future__ import annotations

import datetime
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .baselines import MmdConfig, ProxyClassifierConfig, mmd_gaussian, proxy_a_distance, silhouette
from .embed_core import EmbeddingSet, LabeledEmbeddingSet
from .errors import AdaptScoreError, ConfigInvalid
from .evaluation import CandidateScoreRow, rank_candidates
from .formats import REPORT_SCHEMA, load_embeddings, load_labels, manifest_field
from .scores import oracle_score, pas, pas_avg_pairwise, pas_euclidean, worker_count
from .synth import SynthConfig, generate_pair

# Methods where the stored raw value is negated for ranking/display
# ("lower distance is better" rendered as "higher is better").
NEGATED_METHODS = {"mmd", "adist"}
ALL_METHODS = (
    "pas",
    "pas_euclidean",
    "pas_avg_pairwise",
    "oracle",
    "mmd",
    "adist",
    "silhouette",
)


def load_target(spec) -> tuple:
    """Target descriptor -> (EmbeddingSet, labels-or-None).

    A {"synth": cfg} entry yields the target half of the generated pair.
    """
    if "synth" in spec:
        cfg = SynthConfig.from_dict(spec["synth"])
        _, target = generate_pair(cfg)
        return target.embeddings, target.labels
    emb = load_embeddings(manifest_field(spec, "emb", "target"))
    labels = load_labels(spec["labels"]) if "labels" in spec else None
    return emb, labels


def load_candidate(entry) -> LabeledEmbeddingSet:
    """Candidate entry -> labeled source set.

    A {"synth": cfg} entry yields the source half of the generated pair.
    """
    if "synth" in entry:
        cfg = SynthConfig.from_dict(entry["synth"])
        source, _ = generate_pair(cfg)
        return source
    where = f"candidate {entry.get('id')!r}"
    emb = load_embeddings(manifest_field(entry, "emb", where))
    labels = load_labels(manifest_field(entry, "labels", where))
    num_classes = int(labels.max()) + 1
    return LabeledEmbeddingSet(emb, labels, num_classes)


def score_candidate(
    source: LabeledEmbeddingSet,
    target: EmbeddingSet,
    methods,
    target_labels=None,
    seed: int = 0,
    max_samples: int = 10_000,
) -> dict:
    out = {}
    for method in methods:
        if method == "pas":
            out[method] = pas(source, target).value
        elif method == "pas_euclidean":
            out[method] = pas_euclidean(source, target).value
        elif method == "pas_avg_pairwise":
            out[method] = pas_avg_pairwise(source, target).value
        elif method == "oracle":
            if target_labels is None:
                raise ConfigInvalid("oracle scoring requires target labels")
            labeled = LabeledEmbeddingSet(
                target, target_labels, source.num_classes, require_all_classes=False
            )
            out[method] = oracle_score(source, labeled).value
        elif method == "mmd":
            cfg = MmdConfig(max_samples_per_domain=max_samples, seed=seed)
            out[method] = mmd_gaussian(source.embeddings, target, cfg)
        elif method == "adist":
            cfg = ProxyClassifierConfig(seed=seed)
            out[method] = proxy_a_distance(source.embeddings, target, cfg)
        elif method == "silhouette":
            out[method] = silhouette(source)
        else:
            raise ConfigInvalid(f"unknown method {method!r}")
    return out


def display_value(method: str, raw: float) -> float:
    return -raw if method in NEGATED_METHODS else raw


def build_report(manifest: dict) -> dict:
    """Score every manifest candidate against the target and assemble the
    adaptscore-report-v1 document.

    Candidates are scored concurrently into fixed slots; the report dict is
    assembled by a single writer afterwards, so identical manifest+seed
    yields an identical report (the created_at timestamp aside).
    """
    target_emb, target_labels = load_target(manifest["target"])
    methods = manifest.get("methods", ["pas"])
    seed = int(manifest.get("seed", 0))
    max_samples = int(manifest.get("max_samples", 10_000))
    candidates = manifest["candidates"]

    def work(entry):
        source = load_candidate(entry)
        return score_candidate(
            source, target_emb, methods, target_labels, seed=seed, max_samples=max_samples
        )

    workers = min(worker_count(), max(len(candidates), 1))
    if workers <= 1 or len(candidates) <= 1:
        raw_scores = [work(c) for c in candidates]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            raw_scores = list(pool.map(work, candidates))

    rows = []
    for entry, raw in zip(candidates, raw_scores):
        rows.append(
            {
                "candidate_id": entry["id"],
                "model_id": entry.get("model_id"),
                "method_scores": raw,
                "display_scores": {m: display_value(m, v) for m, v in raw.items()},
                "accuracy": entry.get("accuracy"),
            }
        )

    ranking = {}
    selection = {}
    for method in methods:
        score_rows = [
            CandidateScoreRow(r["candidate_id"], {method: r["display_scores"][method]})
            for r in rows
        ]
        ordered = rank_candidates(score_rows, method)
        ranking[method] = ordered
        selection[method] = ordered[0]

    target_desc = dict(manifest["target"])
    return {
        "schema": REPORT_SCHEMA,
        "target": target_desc,
        "rows": rows,
        "ranking": ranking,
        "selection": selection,
        "breakdown_path": manifest.get("breakdown_path"),
        "seed": seed,
        "toolkit_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
