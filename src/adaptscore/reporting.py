"""Manifest-driven scoring pipeline, the method table and report assembly."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Callable

from . import __version__
from .baselines import MmdConfig, ProxyClassifierConfig, mmd_gaussian, proxy_a_distance, silhouette
from .embed_core import LabeledEmbeddingSet
from .errors import ConfigInvalid, LabelCountMismatch
from .evaluation import rank_candidates
from .formats import REPORT_SCHEMA, _check_manifest, load_labels, open_embeddings
from .scores import _FAMILY, ScoreResult, _pas_family
from .synth import SynthConfig, generate_pair


@dataclass(frozen=True)
class Method:
    """A row of the method table. A baseline's score(source, target, cfg)
    returns a float, where cfg is config(seed, max_samples): the settings of
    mmd and adist, None for silhouette. A PAS-family row has no score, as
    score_candidate scores the family together. A negated method is
    lower-is-better, so rankings use its raw value negated."""

    score: Callable | None = None
    needs_target_labels: bool = False
    negated: bool = False
    config: Callable = lambda seed, max_samples: None


# The baseline entries call their scorers through their module-global names
# at call time rather than holding the function objects, so a tracer that
# patches those names also sees the calls made through the table.
METHODS = {
    "pas": Method(),
    "pas_euclidean": Method(),
    "pas_avg_pairwise": Method(),
    "oracle": Method(needs_target_labels=True),
    "mmd": Method(
        lambda s, t, cfg: mmd_gaussian(s.embeddings, t, cfg),
        negated=True,
        config=lambda seed, max_samples: MmdConfig(max_samples_per_domain=max_samples, seed=seed),
    ),
    "adist": Method(
        lambda s, t, cfg: proxy_a_distance(s.embeddings, t, cfg),
        negated=True,
        config=lambda seed, _max_samples: ProxyClassifierConfig(seed=seed),
    ),
    "silhouette": Method(lambda s, _t, _cfg: silhouette(s)),
}


def resolve_method(name, have_target_labels: bool = True, seed: int = 0, max_samples: int = 10_000):
    """The settings of the METHODS entry `name`: MmdConfig,
    ProxyClassifierConfig or None. ConfigInvalid for an unknown name, for
    a method that needs target labels when none were given, and for
    settings the method's config rejects (mmd, adist), so every one of
    them is reported before any data file is read."""
    method = METHODS.get(name)
    if method is None:
        raise ConfigInvalid(f"unknown method {name!r}; known: {', '.join(METHODS)}")
    if method.needs_target_labels and not have_target_labels:
        raise ConfigInvalid(f"{name} scoring requires target labels")
    return method.config(seed, max_samples)


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


def load_candidate(entry, opener=None) -> LabeledEmbeddingSet:
    """Candidate entry, as formats._check_manifest checked it -> labeled
    source set, whose embeddings are a row source.

    A {"synth": cfg} entry yields the source half of the generated pair.
    A file entry is read by `opener`, as load_target reads a target: a
    PEMB source is only opened by the default, open_embeddings, and each
    method's passes read its rows. The class count is the largest label
    + 1, and every class needs a member.
    """
    if "synth" in entry:
        source, _ = generate_pair(SynthConfig.from_dict(entry["synth"]))
        return source
    emb = (opener or open_embeddings)(entry["emb"])
    labels = load_labels(entry["labels"])
    # initial=-1: an empty label file reaches the LabelCountMismatch check
    return LabeledEmbeddingSet(emb, labels, int(labels.max(initial=-1)) + 1)


def score_candidate(source: LabeledEmbeddingSet, target, configs: dict, target_labels) -> dict:
    """{method: result} of one source against the target, a row source,
    for each method of `configs`, {method: settings} as resolve_method
    gives them: a ScoreResult for a PAS-family method and a float for a
    baseline, in the order of `configs`. The PAS-family methods share one
    pass over the target, made at the first of them (scores._pas_family);
    each baseline makes its own."""
    family = [name for name in configs if name in _FAMILY]
    out = {}
    for name, cfg in configs.items():
        if name not in family:
            out[name] = METHODS[name].score(source, target, cfg)
        elif name == family[0]:
            out.update(_pas_family(source, target, family, target_labels))
    return {name: out[name] for name in configs}


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
    have_labels = "labels" in target or "synth" in target
    configs = {name: resolve_method(name, have_labels, seed, manifest["max_samples"]) for name in methods}
    target_emb, target_labels = load_target(target)

    rows = []
    for entry in manifest["candidates"]:
        source = load_candidate(entry)
        results = score_candidate(source, target_emb, configs, target_labels)
        raw = {m: r.value if isinstance(r, ScoreResult) else r for m, r in results.items()}
        rows.append(
            {
                "candidate_id": entry["id"],
                "model_id": entry.get("model_id"),
                "method_scores": raw,
                "display_scores": {m: -v if METHODS[m].negated else v for m, v in raw.items()},
                "accuracy": entry.get("accuracy"),
            }
        )

    ranking = {m: rank_candidates({r["candidate_id"]: r["display_scores"][m] for r in rows}) for m in methods}
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
