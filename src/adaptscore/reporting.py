"""Manifest-driven scoring pipeline, the method table and report assembly."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Callable

from . import __version__
from .baselines import MmdConfig, ProxyClassifierConfig, mmd_gaussian, proxy_a_distance, silhouette
from .embed_core import LabeledEmbeddingSet
from .errors import ConfigInvalid, LabelCountMismatch
from .evaluation import CandidateScoreRow, rank_candidates
from .formats import REPORT_SCHEMA, _check_manifest, load_embeddings, load_labels, open_embeddings
from .scores import _FAMILY, _pas_family, oracle_score, pas, pas_avg_pairwise, pas_euclidean
from .synth import SynthConfig, generate_pair


@dataclass(frozen=True)
class Method:
    """A scoring method: score(source, target, target_labels, cfg) returns
    a ScoreResult for the PAS family and a float for the baselines, where
    cfg is config(seed, max_samples), the settings of mmd and adist and
    None for the others. A negated method is lower-is-better, so rankings
    use its raw value negated."""

    score: Callable
    needs_target_labels: bool = False
    negated: bool = False
    config: Callable = lambda seed, max_samples: None


# The entries call the scorers through their module-global names at call
# time rather than holding the function objects, so a tracer that patches
# those names also sees the calls made through the table.
METHODS = {
    "pas": Method(lambda s, t, *_: pas(s, t)),
    "pas_euclidean": Method(lambda s, t, *_: pas_euclidean(s, t)),
    "pas_avg_pairwise": Method(lambda s, t, *_: pas_avg_pairwise(s, t)),
    "oracle": Method(
        lambda s, t, labels, _cfg: oracle_score(
            s, LabeledEmbeddingSet(t, labels, s.num_classes, require_all_classes=False)
        ),
        needs_target_labels=True,
    ),
    "mmd": Method(
        lambda s, t, _labels, cfg: mmd_gaussian(s.embeddings, t, cfg),
        negated=True,
        config=lambda seed, max_samples: MmdConfig(max_samples_per_domain=max_samples, seed=seed),
    ),
    "adist": Method(
        lambda s, t, _labels, cfg: proxy_a_distance(s.embeddings, t, cfg),
        negated=True,
        config=lambda seed, _max_samples: ProxyClassifierConfig(seed=seed),
    ),
    "silhouette": Method(lambda s, *_: silhouette(s)),
}


def resolve_method(
    name, have_target_labels: bool = True, seed: int = 0, max_samples: int = 10_000
) -> Callable:
    """score(source, target, target_labels) of the METHODS entry `name`,
    bound to its settings. ConfigInvalid for an unknown name, for a method
    that needs target labels when none were given, and for settings the
    method's config rejects (mmd, adist), so every one of them is reported
    before any data file is read."""
    method = METHODS.get(name)
    if method is None:
        raise ConfigInvalid(f"unknown method {name!r}; known: {', '.join(METHODS)}")
    if method.needs_target_labels and not have_target_labels:
        raise ConfigInvalid(f"{name} scoring requires target labels")
    cfg = method.config(seed, max_samples)
    return lambda source, target, target_labels: method.score(source, target, target_labels, cfg)


def load_target(spec, opener=None) -> tuple:
    """Target entry, as formats._check_manifest checked it -> (row source,
    labels-or-None).

    A {"synth": cfg} entry yields the target half of the generated pair.
    A file entry is read by `opener`, open_embeddings when None: a PEMB
    target is then only opened here, and each method's passes read its
    rows. load_embeddings loads it whole, for a caller that reads it many
    times.
    A label file must hold one label per target row (LabelCountMismatch),
    whether or not a method reads it.
    """
    if "synth" in spec:
        _, target = generate_pair(SynthConfig.from_dict(spec["synth"]))
        return target.embeddings, target.labels
    emb = (opener or open_embeddings)(spec["emb"])
    if "labels" not in spec:
        return emb, None
    labels = load_labels(spec["labels"])
    if labels.shape[0] != emb.n:
        raise LabelCountMismatch(labels.shape[0], emb.n)
    return emb, labels


def load_candidate(entry) -> LabeledEmbeddingSet:
    """Candidate entry, as formats._check_manifest checked it -> labeled
    source set.

    A {"synth": cfg} entry yields the source half of the generated pair.
    A file entry is loaded whole. The class count is the largest label + 1,
    and every class needs a member.
    """
    if "synth" in entry:
        source, _ = generate_pair(SynthConfig.from_dict(entry["synth"]))
        return source
    emb = load_embeddings(entry["emb"])
    labels = load_labels(entry["labels"])
    # initial=-1: an empty label file reaches the LabelCountMismatch check
    return LabeledEmbeddingSet(emb, labels, int(labels.max(initial=-1)) + 1)


def score_candidate(
    source: LabeledEmbeddingSet,
    target,
    methods,
    target_labels,
    seed: int,
    max_samples: int,
) -> dict:
    """{method: raw score} of one source against the target, a row source;
    ConfigInvalid before any scoring for a method or setting that
    resolve_method rejects. The PAS-family methods share one pass over the
    target, made at the first of them (scores._pas_family); every other
    method makes its own."""
    methods = {name: resolve_method(name, target_labels is not None, seed, max_samples) for name in methods}
    family = [name for name in methods if name in _FAMILY]
    out = {}
    for name, score in methods.items():
        if name not in family:
            out[name] = score(source, target, target_labels)
        elif name == family[0]:
            out.update((m, r.value) for m, r in _pas_family(source, target, family, target_labels).items())
    return {name: out[name] for name in methods}


def display_value(method: str, raw: float) -> float:
    return -raw if METHODS[method].negated else raw


def build_report(manifest: dict) -> dict:
    """Score every manifest candidate against the target and assemble the
    adaptscore-report-v1 document; `manifest` itself is not changed.

    Candidates are scored one after another (embed_core._run_blocks is the
    only parallel part), so identical manifest+seed yields an identical
    report, created_at aside. Each input is checked before the next file
    is opened: the manifest entries (what load_manifest raises), the
    methods and their settings (ConfigInvalid), the target, then each
    candidate in turn.
    """
    manifest = _check_manifest(manifest)
    methods = manifest["methods"]
    target = manifest["target"]
    seed = manifest["seed"]
    for name in methods:
        resolve_method(name, "labels" in target or "synth" in target, seed, manifest["max_samples"])
    target_emb, target_labels = load_target(target)

    rows = []
    for entry in manifest["candidates"]:
        source = load_candidate(entry)
        raw = score_candidate(source, target_emb, methods, target_labels, seed, manifest["max_samples"])
        rows.append(
            {
                "candidate_id": entry["id"],
                "model_id": entry.get("model_id"),
                "method_scores": raw,
                "display_scores": {m: display_value(m, v) for m, v in raw.items()},
                "accuracy": entry.get("accuracy"),
            }
        )

    score_rows = [CandidateScoreRow(r["candidate_id"], r["display_scores"]) for r in rows]
    ranking = {m: rank_candidates(score_rows, m) for m in methods}
    return {
        "schema": REPORT_SCHEMA,
        "target": dict(target),
        "rows": rows,
        "ranking": ranking,
        "selection": {m: ordered[0] for m, ordered in ranking.items()},
        "breakdown_path": manifest.get("breakdown_path"),
        "seed": seed,
        "toolkit_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
