"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 method
precondition error. With --json, errors are emitted as a JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from .embed_core import _block_ranges
from .errors import AdaptScoreError, FormatError, MissingScore
from .evaluation import _check_study, pearson, spearman, subsample_study
from .formats import (
    _load_json,
    dump_report,
    load_accuracy_csv,
    load_embeddings,
    load_manifest,
    save_embeddings,
    save_labels,
)
from .reporting import build_report, load_candidate, load_target, resolve_method, score_candidate
from .scores import ScoreResult
from .synth import SynthConfig, generate_pair

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaptscore")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score one source/target pair")
    p_score.add_argument("--method", required=True)
    p_score.add_argument("--source-emb", required=True)
    p_score.add_argument("--source-labels", required=True)
    p_score.add_argument("--target-emb", required=True)
    p_score.add_argument("--target-labels")
    p_score.add_argument("--seed", type=int, default=0)
    p_score.add_argument("--max-samples", type=int, default=10_000)
    p_score.add_argument("--json", action="store_true")

    p_rank = sub.add_parser("rank", help="score and rank manifest candidates")
    p_rank.add_argument("--manifest", required=True)
    p_rank.add_argument("--out", required=True)
    p_rank.add_argument("--json", action="store_true")

    p_corr = sub.add_parser("corr", help="correlate report scores with accuracies")
    p_corr.add_argument("--report", required=True)
    p_corr.add_argument("--accuracy", required=True)
    p_corr.add_argument("--method", default="pas")
    p_corr.add_argument("--json", action="store_true")

    p_synth = sub.add_parser("synth", help="generate a synthetic source/target pair")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.add_argument("--json", action="store_true")

    p_sub = sub.add_parser("substudy", help="subsample-robustness study")
    p_sub.add_argument("--manifest", required=True)
    p_sub.add_argument("--fractions", required=True, help="comma-separated, e.g. 0.1,0.5,1.0")
    p_sub.add_argument("--repeats", type=int, default=10)
    p_sub.add_argument("--out", required=True)
    p_sub.add_argument("--json", action="store_true")
    return parser


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


def _cmd_score(args) -> int:
    resolve_method(args.method, bool(args.target_labels), args.seed, args.max_samples)
    labels = {"labels": args.target_labels} if args.target_labels else {}
    target, target_labels = load_target({"emb": args.target_emb, **labels})  # PEMB rows stream through the kernel
    source = load_candidate({"emb": args.source_emb, "labels": args.source_labels})
    results = score_candidate(source, target, [args.method], target_labels, args.seed, args.max_samples)
    result = results[args.method]
    value = result.value if isinstance(result, ScoreResult) else result
    if args.json:
        _write_score_json(sys.stdout, args.method, value, result)
    else:
        print(f"{value:.5f}")
    return EXIT_OK


def _check_out(path) -> None:
    """OSError (exit 2) unless the directory of `path` exists and is
    writable and `path` is no directory or read-only file, so that rank
    and substudy fail before they score."""
    folder = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable directory")
    if os.path.isdir(path) or (os.path.exists(path) and not os.access(path, os.W_OK)):
        raise OSError(f"cannot write {path}: it is a directory or a read-only file")


def _cmd_rank(args) -> int:
    _check_out(args.out)
    manifest = load_manifest(args.manifest)
    report = build_report(manifest)
    dump_report(report, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


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
            scores = row.get("method_scores")
            value = scores.get(method) if isinstance(scores, dict) else None
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


def _cmd_corr(args) -> int:
    resolve_method(args.method)
    report = _load_json(args.report)
    accuracy = load_accuracy_csv(args.accuracy)
    xs, ys = _corr_pairs(report, args.method, accuracy)
    p = pearson(xs, ys)
    s = spearman(xs, ys)
    if args.json:
        print(json.dumps({"pearson": p, "spearman": s, "n": len(xs)}))
    else:
        print(f"{p:.2f} / {s:.2f}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = SynthConfig.from_dict(_load_json(args.config))
    source, target = generate_pair(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_embeddings(out / "source_emb.pemb", source.embeddings)
    save_labels(out / "source_labels.plbl", source.labels)
    save_embeddings(out / "target_emb.pemb", target.embeddings)
    save_labels(out / "target_labels.plbl", target.labels)
    print(f"wrote 4 files to {out}")
    return EXIT_OK


def _cmd_substudy(args) -> int:
    fractions = _check_study(args.fractions.split(","), args.repeats)
    _check_out(args.out)
    manifest = load_manifest(args.manifest)
    # Loaded whole: the study draws fractions x repeats x candidates subsamples.
    target_emb, _ = load_target(manifest["target"], load_embeddings)
    sources = [load_candidate(c) for c in manifest["candidates"]]
    ids = [c["id"] for c in manifest["candidates"]]
    result = subsample_study(
        sources,
        target_emb,
        fractions,
        repeats=args.repeats,
        base_seed=manifest["seed"],
        candidate_ids=ids,
    )
    dump_report(dataclasses.asdict(result), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "score": _cmd_score,
    "rank": _cmd_rank,
    "corr": _cmd_corr,
    "synth": _cmd_synth,
    "substudy": _cmd_substudy,
}


def _emit_error(exc: Exception, as_json: bool, code: int) -> None:
    if as_json:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
            + "\n"
        )
    else:
        sys.stderr.write(f"error: {exc}\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    as_json = getattr(args, "json", False)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        _emit_error(exc, as_json, EXIT_DATA)
        return EXIT_DATA
    except AdaptScoreError as exc:
        _emit_error(exc, as_json, EXIT_PRECONDITION)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
