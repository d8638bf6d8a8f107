"""The corr command and what it reads, on the standard library alone: the
UTF-8 text and JSON readers, the accuracy CSV, the method names, the
correlation statistics and candidate ranking. The CLI imports this module
at the top and runs corr through it without loading the command layer
(reporting), so corr loads no numpy. The other layers import these names
from here."""

from __future__ import annotations

import itertools
import json
import math
import sys

from .errors import (
    BadMagic,
    ConfigInvalid,
    ConstantInput,
    FormatError,
    LengthMismatch,
    MissingScore,
    RaggedCsv,
    TooFewSamples,
)

# The methods of score, rank and corr: the PAS family (scores._FAMILY), then
# the baselines (reporting._BASELINES), in this order.
METHOD_NAMES = ("pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "mmd", "adist", "silhouette")


def check_method(name) -> None:
    """ConfigInvalid unless `name` is one of METHOD_NAMES."""
    if name not in METHOD_NAMES:
        raise ConfigInvalid(f"unknown method {name!r}; known: {', '.join(METHOD_NAMES)}")


def _utf8(path, blob: bytes) -> str:
    """`blob` decoded as UTF-8 without a leading byte-order mark, or
    BadMagic for the file at `path`."""
    try:
        return blob.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise BadMagic(str(path), blob[:4]) from None


def _text_lines(path, blob: bytes):
    """(line number from 1, line) of each non-blank line of `blob`, the
    text (_utf8) of the file at `path`."""
    lines = enumerate(_utf8(path, blob).splitlines(), start=1)
    return ((lineno, line) for lineno, line in lines if line.strip())


def _ascii_number(kind, field: str, path, lineno: int):
    """kind(field) for kind int or float, or RaggedCsv at line `lineno` of
    the file at `path` when kind rejects the field or the field holds a
    non-ASCII character or a "_": int and float take digit separators and
    non-ASCII digits, and the numbers of a text file are ASCII."""
    if field.isascii() and "_" not in field:
        try:
            return kind(field)
        except ValueError:
            pass
    raise RaggedCsv(str(path), lineno)


def _read_bytes(path) -> bytes:
    """The bytes of the file at `path`, read without pathlib, which the
    CLI's start does not load otherwise."""
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path):
    """The JSON document in the file at `path`; BadMagic unless it is UTF-8,
    and FormatError if it nests deeper than the parser's recursion allows."""
    try:
        return json.loads(_utf8(path, _read_bytes(path)))
    except RecursionError:
        raise FormatError(f"{path}: JSON nests too deeply to parse") from None


def load_accuracy_csv(path) -> dict:
    """candidate_id,accuracy_percent rows into a dict. A line without two
    fields, with an unparsable (_ascii_number) or non-finite accuracy or
    with an id that an earlier line gave raises RaggedCsv, and a file that
    is not UTF-8 BadMagic."""
    out = {}
    for lineno, line in _text_lines(path, _read_bytes(path)):
        parts = line.strip().split(",")
        if len(parts) != 2:
            raise RaggedCsv(str(path), lineno)
        accuracy = _ascii_number(float, parts[1], path, lineno)
        if not math.isfinite(accuracy):
            raise RaggedCsv(str(path), lineno)
        if parts[0] in out:
            raise RaggedCsv(str(path), lineno, f"repeats candidate id {parts[0]!r}")
        out[parts[0]] = accuracy
    return out


def _floats(v):
    """`v` as a list of floats, or None unless it is 1-D: an array with one
    axis or an iterable of numbers."""
    if getattr(v, "ndim", 1) != 1:
        return None
    try:
        return [float(e) for e in v]
    except TypeError:  # a scalar, or an element that is a sequence
        return None


def _validated_xy(x, y):
    """`x` and `y` as lists of floats. ValueError unless both are 1-D,
    LengthMismatch unless their lengths agree, TooFewSamples below two
    pairs, and ConstantInput when both are constant; a side that holds a
    NaN or an infinity is not constant."""
    xs, ys = _floats(x), _floats(y)
    if xs is None or ys is None:
        raise ValueError("expected two 1-D inputs of numbers")
    if len(xs) != len(ys):
        raise LengthMismatch(len(xs), len(ys))
    if len(xs) < 2:
        raise TooFewSamples(2, len(xs))
    if all(math.isfinite(v[0]) and v.count(v[0]) == len(v) for v in (xs, ys)):
        raise ConstantInput()
    return xs, ys


def _sum(values: list) -> float:
    """math.fsum of `values`, or their plain float sum, NaN or infinite,
    where fsum raises: for opposite infinities and on overflow."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return sum(values)


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _validated_xy(x, y)
    mx, my = _sum(x) / len(x), _sum(y) / len(y)
    xc = [v - mx for v in x]
    yc = [v - my for v in y]
    denom = math.sqrt(_sum([v * v for v in xc]) * _sum([v * v for v in yc]))
    if denom == 0.0:
        # One side constant: correlation undefined; report 0 like a
        # regression slope of zero evidence.
        return 0.0
    return _sum([a * b for a, b in zip(xc, yc)]) / denom


def _average_ranks(x) -> list:
    """1-based ranks of a 1-D sequence, tied values sharing the mean of
    their ranks (scipy.stats.rankdata's "average" method, NaN propagating)."""
    x = list(x)
    if any(math.isnan(v) for v in x):
        return [math.nan] * len(x)
    ranks = [0.0] * len(x)
    end = 0
    for _, group in itertools.groupby(sorted(range(len(x)), key=x.__getitem__), key=x.__getitem__):
        group = list(group)
        # A group of c equal values ending at rank e holds ranks e - c + 1 .. e.
        start, end = end, end + len(group)
        for i in group:
            ranks[i] = (start + 1 + end) / 2
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-rank vectors."""
    x, y = _validated_xy(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


def rank_candidates(scores: dict) -> list:
    """The ids of one method's {candidate_id: score} sorted by descending
    score, ties broken by lexicographic id. The head is the selection."""
    return sorted(scores, key=lambda c: (-scores[c], c))


def _corr_pairs(report, method: str, accuracy: dict):
    """(scores, accuracies) of the report rows whose string candidate_id has
    an accuracy, in row order; FormatError for a string candidate_id that an
    earlier row gave and for a score that is not a finite number."""
    rows = report.get("rows") if isinstance(report, dict) else None
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise FormatError("report rows must be a list of JSON objects")
    xs, ys, seen = [], [], set()
    for row in rows:
        cid = row.get("candidate_id")
        if not isinstance(cid, str):
            continue
        if cid in seen:
            raise FormatError(f"report rows repeat the candidate_id {cid!r}")
        seen.add(cid)
        if cid in accuracy:
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


def run(args) -> None:
    """adaptscore corr: the Pearson and Spearman correlations of the report's
    `args.method` scores with the accuracies. The method is checked before
    the report is read, and the report before the accuracy file."""
    check_method(args.method)
    report = _load_json(args.report)
    accuracy = load_accuracy_csv(args.accuracy)
    xs, ys = _corr_pairs(report, args.method, accuracy)
    p = pearson(xs, ys)
    s = spearman(xs, ys)
    if args.json:
        print(json.dumps({"pearson": p, "spearman": s, "n": len(xs)}))
    else:
        print(f"{p:.2f} / {s:.2f}")
