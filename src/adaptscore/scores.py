"""Potential-adaptability scoring: PAS, its oracle, and design variants.

The four scorers are one function (_pas_family), which scores any of them
together: sum the source's unit rows per class in one pass over its rows,
build C class representatives per table, then pass the target rows
through the block kernel (embed_core._table_pass), whose tails write each
row's two distances that matter (d1, d2) and its contribution to each
method's columns. A score is the mean contribution.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .embed_core import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    _centroid_table,
    _class_sums,
    _gram_to_distance,
    _table_pass,
)
from .errors import DimensionMismatch


@dataclass(frozen=True)
class PerSampleBreakdown:
    sample_index: int
    d1: float
    d2: float
    nearest_class: int
    contribution: float


@dataclass(frozen=True, eq=False)
class ScoreResult:
    """A score and its per-sample columns, one entry per target row, each
    read-only."""

    method: str
    value: float
    d1: np.ndarray
    d2: np.ndarray
    nearest_class: np.ndarray
    contribution: np.ndarray

    def __post_init__(self):
        for column in self.breakdown_arrays():
            column.flags.writeable = False

    @property
    def breakdown(self):
        """An iterator of one PerSampleBreakdown per row, in row order, built
        from the columns. It stays for perfbench/test_perfbench.py, which
        reads each item's __dict__; random access reads the columns."""
        rows = zip(*(c.tolist() for c in self.breakdown_arrays()))
        return (PerSampleBreakdown(i, *row) for i, row in enumerate(rows))

    def breakdown_arrays(self):
        """(d1, d2, nearest_class, contribution) as numpy columns."""
        return self.d1, self.d2, self.nearest_class, self.contribution


# The PAS-family methods: each one's reference table, built from the class
# sums of the source's unit rows, and its distance (_gram_to_distance).
_FAMILY = {
    "pas": ("centroids", "cosine"),
    "pas_euclidean": ("centroids", "euclidean"),
    "pas_avg_pairwise": ("means", "cosine"),
    "oracle": ("centroids", "cosine"),
}


def _pas_family(source: LabeledEmbeddingSet, target, methods, true_labels=None) -> dict:
    """{method: ScoreResult} of the PAS-family `methods` (in any order) of
    `source` against `target`, row sources both, from one pass over the
    target's rows (embed_core._table_pass, with one tail per method on its
    table); "oracle" also reads the target's `true_labels`.

    The source side comes first: DimensionMismatch, MissingClass, one
    serial pass that sums the source's unit rows per class (_class_sums;
    NonFiniteValue of a streamed source, then ZeroVector), then each table
    at the first method that needs it, so DegenerateClass of the unit
    centroids precedes the oracle's LabelOutOfRange.

    d1 is the distance to the picked class: the nearest (the lowest id
    among minimizers) or, for the oracle, the true one. d2 is the smallest
    among the others, and the contribution is (d2 - d1) / max(d1, d2):
    PAS's (d2 - d1) / d2 when d1 <= d2, and 0 when both are 0. The score
    is the mean contribution.
    """
    if source.dim != target.dim:
        raise DimensionMismatch(source.dim, target.dim)
    source._check_classes()
    sums = _class_sums(source.embeddings, source.labels, source.num_classes)
    tables = {}
    for name in methods:
        kind = _FAMILY[name][0]
        if kind == "centroids" and kind not in tables:
            tables[kind] = _centroid_table(sums)
        elif kind not in tables:  # class means: every class has a row
            tables[kind] = sums / np.bincount(source.labels)[:, None]
        if name == "oracle":
            truth = LabeledEmbeddingSet(target, true_labels, source.num_classes, require_all_classes=False)
            true_labels = truth.labels

    n = target.n
    columns = {m: (np.empty(n), np.empty(n), np.empty(n, dtype=np.int64), np.zeros(n)) for m in methods}

    def tail(name, lo, _, dist):
        d1, d2, nearest, contrib = columns[name]
        hi = lo + dist.shape[0]
        _gram_to_distance(dist, _FAMILY[name][1])
        idx = np.arange(hi - lo)
        nearest[lo:hi] = pick = dist.argmin(axis=1)
        if name == "oracle":
            pick = true_labels[lo:hi]
        b1 = dist[idx, pick]
        dist[idx, pick] = np.inf
        b2 = dist.min(axis=1)
        d1[lo:hi] = b1
        d2[lo:hi] = b2
        denom = np.maximum(b1, b2)
        np.divide(b2 - b1, denom, out=contrib[lo:hi], where=denom > 0.0)

    _table_pass(target, [(table, [functools.partial(tail, m) for m in methods if _FAMILY[m][0] == kind])
                         for kind, table in tables.items()])
    return {m: ScoreResult(m, float(np.sum(cols[3]) / n), *cols) for m, cols in columns.items()}


def pas(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """Mean over target samples of (d2 - d1) / d2, where d1, d2 are the two
    smallest cosine distances to the source class centroids."""
    return _pas_family(source, target, ["pas"])["pas"]


def pas_euclidean(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """PAS with the Euclidean distance between unit-normalized rows and
    centroids in place of the cosine distance."""
    return _pas_family(source, target, ["pas_euclidean"])["pas_euclidean"]


def pas_avg_pairwise(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """PAS variant where each class distance is the mean cosine distance to
    all members of the class rather than to its centroid.

    mean_j (1 - t.s_j) = 1 - t.mean_j(s_j), so the per-class raw means of
    the unit rows stand in for the centroid table.
    """
    return _pas_family(source, target, ["pas_avg_pairwise"])["pas_avg_pairwise"]


def oracle_score(source: LabeledEmbeddingSet, target: LabeledEmbeddingSet) -> ScoreResult:
    """Label-aware PAS variant: d1 is the cosine distance to the true-class
    centroid, d2 the smallest distance among the other centroids, and the
    contribution is (d2 - d1) / max(d1, d2) in [-1, 1]."""
    return _pas_family(source, target.embeddings, ["oracle"], target.labels)["oracle"]
