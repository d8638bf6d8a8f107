"""Manifest-driven scoring pipeline, the method table, report assembly and
the commands but corr (COMMANDS), which cli.main loads after the arguments
parse, so `--help` and usage errors load no numpy. The commands call
formats, evaluation and synth by module, so a patch there sees each call."""

from __future__ import annotations

import dataclasses
import datetime
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__, evaluation, formats, synth
from .baselines import MmdConfig, ProxyClassifierConfig, mmd_gaussian, proxy_a_distance, silhouette
from .embed_core import LabeledEmbeddingSet, _block_ranges
from .corr import METHOD_NAMES, check_method, rank_candidates
from .errors import ConfigInvalid, LabelCountMismatch
from .formats import REPORT_SCHEMA, _check_manifest, load_labels, open_embeddings
from .scores import _FAMILY, ScoreResult, _pas_family

# The baselines, name -> (score, config): score(source, target, cfg) is a
# float, where cfg = config(seed, max_samples) is the settings of mmd or
# adist, None for silhouette. The entries look up their scorers' module-global
# names when called, so a tracer that patches those names sees the calls.
_BASELINES = {
    "mmd": (
        lambda s, t, cfg: mmd_gaussian(s.embeddings, t, cfg),
        lambda seed, max_samples: MmdConfig(max_samples_per_domain=max_samples, seed=seed),
    ),
    "adist": (
        lambda s, t, cfg: proxy_a_distance(s.embeddings, t, cfg),
        lambda seed, _max_samples: ProxyClassifierConfig(seed=seed),
    ),
    "silhouette": (lambda s, _t, _cfg: silhouette(s), lambda _seed, _max_samples: None),
}
# The lower-is-better methods: rankings use their raw values negated.
NEGATED = ("mmd", "adist")
if (*_FAMILY, *_BASELINES) != METHOD_NAMES:
    raise ImportError("scores._FAMILY and reporting._BASELINES must name corr.METHOD_NAMES, in its order")


def resolve_method(name, have_target_labels: bool, seed: int, max_samples: int):
    """The settings of method `name`: MmdConfig or ProxyClassifierConfig
    from its _BASELINES config, or None for silhouette and a scores._FAMILY
    method. ConfigInvalid for an unknown name, for oracle, which needs
    target labels, when none were given, and for settings the method's
    config rejects (mmd, adist), so every one of them is reported before
    any data file is read."""
    check_method(name)
    if name == "oracle" and not have_target_labels:
        raise ConfigInvalid("oracle scoring requires target labels")
    return _BASELINES[name][1](seed, max_samples) if name in _BASELINES else None


def _open_entry(entry, half: int) -> tuple:
    """Target (half 1) or candidate (half 0) entry, as formats._check_manifest
    checked it -> (row source, labels-or-None): that half of the generated
    pair for a {"synth": cfg} entry, else the opened PEMB file, which each
    method's passes read, and the label file, one label per row
    (LabelCountMismatch) whether or not a method reads it."""
    if "synth" in entry:
        part = synth.generate_pair(synth.SynthConfig.from_dict(entry["synth"]))[half]
        return part.embeddings, part.labels
    emb = open_embeddings(entry["emb"])
    if "labels" not in entry:
        return emb, None
    labels = load_labels(entry["labels"])
    if labels.shape[0] != emb.n:
        raise LabelCountMismatch(labels.shape[0], emb.n)
    return emb, labels


def load_candidate(entry) -> LabeledEmbeddingSet:
    """Candidate entry -> labeled source set of _open_entry's half 0, a row
    source, with largest label + 1 classes, each of which needs a member."""
    emb, labels = _open_entry(entry, 0)
    return LabeledEmbeddingSet(emb, labels, int(labels.max()) + 1)


def _inputs(manifest: dict, methods) -> tuple:
    """The one intake of score, rank and substudy: a manifest as
    formats._check_manifest leaves it -> ({method: resolve_method settings}
    for `methods`, (target rows, labels or None), a generator of (entry,
    load_candidate(entry))), in that order, each candidate opened when it
    is reached. A target with a "labels" file or a "synth" block has labels."""
    target, candidates = manifest["target"], manifest["candidates"]
    have_labels = "labels" in target or "synth" in target
    configs = {m: resolve_method(m, have_labels, manifest["seed"], manifest["max_samples"]) for m in methods}
    return configs, _open_entry(target, 1), ((entry, load_candidate(entry)) for entry in candidates)


def score_candidate(source: LabeledEmbeddingSet, target, configs: dict, target_labels) -> dict:
    """{method: result} of one source against the target, a row source,
    for each method of `configs`, {method: settings} as resolve_method
    gives them: a ScoreResult for a scores._FAMILY method and a float for
    a _BASELINES method, in the order of `configs`. The family's methods
    share one pass over the target, made at the first of them
    (scores._pas_family); each baseline makes its own."""
    family = [name for name in configs if name in _FAMILY]
    out = {}
    for name, cfg in configs.items():
        if name not in family:
            out[name] = _BASELINES[name][0](source, target, cfg)
        elif name == family[0]:
            out.update(_pas_family(source, target, family, target_labels))
    return {name: out[name] for name in configs}


def build_report(manifest: dict) -> dict:
    """Score every manifest candidate against the target and assemble the
    adaptscore-report-v1 document; `manifest` itself is not changed.

    Candidates are scored one after another (embed_core._run_blocks is the
    only parallel part), so identical manifest+seed yields an identical
    report, created_at aside. Each input is checked before the next file
    is opened: the manifest entries (what load_manifest raises), then,
    through _inputs, the methods and their settings (ConfigInvalid), the
    target, then each candidate in turn.
    """
    manifest = _check_manifest(manifest)
    configs, (target_emb, target_labels), candidates = _inputs(manifest, manifest["methods"])

    rows = []
    for entry, source in candidates:
        results = score_candidate(source, target_emb, configs, target_labels)
        raw = {m: r.value if isinstance(r, ScoreResult) else r for m, r in results.items()}
        rows.append(
            {
                "candidate_id": entry["id"],
                "model_id": entry.get("model_id"),
                "method_scores": raw,
                "display_scores": {m: -v if m in NEGATED else v for m, v in raw.items()},
                "accuracy": entry.get("accuracy"),
            }
        )

    ranking = {m: rank_candidates({r["candidate_id"]: r["display_scores"][m] for r in rows}) for m in configs}
    return {
        "schema": REPORT_SCHEMA,
        "target": dict(manifest["target"]),
        "rows": rows,
        "ranking": ranking,
        "selection": {m: ordered[0] for m, ordered in ranking.items()},
        "breakdown_path": manifest.get("breakdown_path"),
        "seed": manifest["seed"],
        "toolkit_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


# One breakdown row as json.dumps renders a PerSampleBreakdown dict: ints
# and floats by repr, the default ", " and ": " separators.
_ROW_JSON = (
    '{{"sample_index": {}, "d1": {!r}, "d2": {!r}, '
    '"nearest_class": {}, "contribution": {!r}}}'
)


def _write_score_json(out, method: str, value: float, result) -> None:
    """json.dumps({"method", "value", "breakdown": [rows]}) and a newline,
    written to `out` with the rows formatted straight from a ScoreResult's
    columns one block at a time; no breakdown for a baseline's plain float."""
    head = json.dumps({"method": method, "value": value})
    if not isinstance(result, ScoreResult):
        out.write(head + "\n")
        return
    out.write(f'{head[:-1]}, "breakdown": [')
    columns = result.breakdown_arrays()
    for lo, hi in _block_ranges(columns[0].shape[0]):
        rows = map(_ROW_JSON.format, itertools.count(lo), *(c[lo:hi].tolist() for c in columns))
        out.write((", " if lo else "") + ", ".join(rows))
    out.write("]}\n")


def _cmd_score(args) -> None:
    labels = {"labels": args.target_labels} if args.target_labels else {}
    manifest = {"target": {"emb": args.target_emb, **labels}, "max_samples": args.max_samples,
                "candidates": [{"emb": args.source_emb, "labels": args.source_labels}], "seed": args.seed}
    configs, (target, target_labels), [(_, source)] = _inputs(manifest, [args.method])
    result = score_candidate(source, target, configs, target_labels)[args.method]
    value = result.value if isinstance(result, ScoreResult) else result
    if args.json:
        _write_score_json(sys.stdout, args.method, value, result)
    else:
        print(f"{value:.5f}")


def _check_out(path) -> None:
    """OSError (exit 2) unless `path` names a file ("" and "dir/" do not),
    no directory or read-only file, in a writable directory that exists,
    so that rank and substudy fail before they score."""
    if not os.path.basename(path):
        raise OSError(f"cannot write {path!r}: it names no file")
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise OSError(f"cannot write {path}: it is a directory or a read-only file")


def _cmd_rank(args) -> None:
    _check_out(args.out)
    manifest = formats.load_manifest(args.manifest)
    report = build_report(manifest)
    formats.dump_report(report, args.out)
    print(f"wrote {args.out}")


def _cmd_synth(args) -> None:
    cfg = synth.SynthConfig.from_dict(formats._load_json(args.config))
    source, target = synth.generate_pair(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    formats.save_embeddings(out / "source_emb.pemb", source.embeddings)
    formats.save_labels(out / "source_labels.plbl", source.labels)
    formats.save_embeddings(out / "target_emb.pemb", target.embeddings)
    formats.save_labels(out / "target_labels.plbl", target.labels)
    print(f"wrote 4 files to {out}")


def _cmd_substudy(args) -> None:
    fractions = evaluation._check_study(args.fractions.split(","), args.repeats)
    _check_out(args.out)
    manifest = formats.load_manifest(args.manifest)
    _, (target_emb, _), candidates = _inputs(manifest, [])
    sources = [source for _, source in candidates]
    result = evaluation.subsample_study(
        sources,
        target_emb,
        fractions,
        repeats=args.repeats,
        base_seed=manifest["seed"],
        candidate_ids=[c["id"] for c in manifest["candidates"]],
    )
    formats.dump_report(dataclasses.asdict(result), args.out)
    print(f"wrote {args.out}")


COMMANDS = {
    "score": _cmd_score,
    "rank": _cmd_rank,
    "synth": _cmd_synth,
    "substudy": _cmd_substudy,
}
