"""The CLI's commands: one function per subcommand, each taking the parsed
arguments. The CLI (cli.main) loads this module only after its arguments
parse, so `--help` and usage errors load no numpy.

Every layer function is reached through its module (reporting.build_report),
so a test or tracer that patches the owning module sees each call.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from . import embed_core, evaluation, formats, reporting, scores, synth
from .errors import FormatError, MissingScore

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
    if not isinstance(result, scores.ScoreResult):
        out.write(head + "\n")
        return
    out.write(f'{head[:-1]}, "breakdown": [')
    columns = result.breakdown_arrays()
    for lo, hi in embed_core._block_ranges(columns[0].shape[0]):
        rows = map(_ROW_JSON.format, itertools.count(lo), *(c[lo:hi].tolist() for c in columns))
        out.write((", " if lo else "") + ", ".join(rows))
    out.write("]}\n")


def _cmd_score(args) -> None:
    cfg = reporting.resolve_method(args.method, bool(args.target_labels), args.seed, args.max_samples)
    labels = {"labels": args.target_labels} if args.target_labels else {}
    target, target_labels = reporting.load_target({"emb": args.target_emb, **labels})  # PEMB: only opened
    source = reporting.load_candidate({"emb": args.source_emb, "labels": args.source_labels})
    result = reporting.score_candidate(source, target, {args.method: cfg}, target_labels)[args.method]
    value = result.value if isinstance(result, scores.ScoreResult) else result
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
    report = reporting.build_report(manifest)
    formats.dump_report(report, args.out)
    print(f"wrote {args.out}")


def _corr_pairs(report, method: str, accuracy: dict):
    """(scores, accuracies) of the report rows whose string candidate_id has
    an accuracy, in row order; FormatError for a score that is not a finite
    number."""
    rows = report.get("rows") if isinstance(report, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise FormatError("report rows must be a list of JSON objects")
    xs, ys = [], []
    for row in rows:
        cid = row.get("candidate_id")
        if isinstance(cid, str) and cid in accuracy:
            method_scores = row.get("method_scores")
            value = method_scores.get(method) if isinstance(method_scores, dict) else None
            if value is None:
                raise MissingScore(cid, method)
            # JSON true/false load as bools, which are ints; NaN and ints
            # beyond float range fail the comparison.
            finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
            if isinstance(value, bool) or not finite:
                raise FormatError(f"report row {cid!r}: the {method} score is not a finite number")
            xs.append(value)
            ys.append(accuracy[cid])
    return xs, ys


def _cmd_corr(args) -> None:
    reporting.resolve_method(args.method)
    report = formats._load_json(args.report)
    accuracy = formats.load_accuracy_csv(args.accuracy)
    xs, ys = _corr_pairs(report, args.method, accuracy)
    p = evaluation.pearson(xs, ys)
    s = evaluation.spearman(xs, ys)
    if args.json:
        print(json.dumps({"pearson": p, "spearman": s, "n": len(xs)}))
    else:
        print(f"{p:.2f} / {s:.2f}")


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
    # Loaded whole: the study draws fractions x repeats x candidates subsamples.
    target_emb, _ = reporting.load_target(manifest["target"], formats.load_embeddings)
    sources = [reporting.load_candidate(c, formats.load_embeddings) for c in manifest["candidates"]]
    ids = [c["id"] for c in manifest["candidates"]]
    result = evaluation.subsample_study(
        sources,
        target_emb,
        fractions,
        repeats=args.repeats,
        base_seed=manifest["seed"],
        candidate_ids=ids,
    )
    formats.dump_report(dataclasses.asdict(result), args.out)
    print(f"wrote {args.out}")


COMMANDS = {
    "score": _cmd_score,
    "rank": _cmd_rank,
    "corr": _cmd_corr,
    "synth": _cmd_synth,
    "substudy": _cmd_substudy,
}
