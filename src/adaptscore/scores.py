"""Potential-adaptability scoring: PAS, its oracle, and design variants.

The four scorers are one kernel (_pas_family), which scores any of them
together: sum the source's unit rows per class in one pass over its rows,
build C class representatives per table, then make one pass over the raw
target rows that normalizes each row, computes its distances to the
representatives, keeps the two that matter (d1, d2) and writes a
per-sample contribution for each method. The score is the mean
contribution; the per-sample values are kept as columns.

The pass runs in fixed-size row blocks on the block runner
(embed_core._run_blocks), the program's only parallelism; the block grid
and the final summation order are independent of the worker count, so
multi-threaded results are bit-identical to a sequential run.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .embed_core import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    _block_ranges,
    _centroid_table,
    _chunk_ranges,
    _class_sums,
    _gram_to_distance,
    _row_pass,
    _unit_rows,
)
from .errors import DimensionMismatch


@dataclass(frozen=True)
class PerSampleBreakdown:
    sample_index: int
    d1: float
    d2: float
    nearest_class: int
    contribution: float


class Breakdown(Sequence):
    """Read-only per-sample view over the columns of a ScoreResult.

    Items are built on access, so holding a breakdown costs no more than
    its four columns. Indexing takes negative indices and slices (a slice
    yields a list).
    """

    __slots__ = ("_columns",)

    def __init__(self, d1, d2, nearest_class, contribution):
        self._columns = (d1, d2, nearest_class, contribution)

    def __len__(self) -> int:
        return self._columns[0].shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"breakdown index {index} out of range for {len(self)} samples")
        d1, d2, nearest, contrib = self._columns
        return PerSampleBreakdown(i, float(d1[i]), float(d2[i]), int(nearest[i]), float(contrib[i]))

    def __iter__(self):
        rows = zip(*(c.tolist() for c in self._columns))
        return (PerSampleBreakdown(i, *row) for i, row in enumerate(rows))


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
    def breakdown(self) -> Breakdown:
        """Per-sample PerSampleBreakdown items as a lazy read-only sequence."""
        return Breakdown(*self.breakdown_arrays())

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
    target's rows; "oracle" also reads the target's `true_labels`.

    The source side comes first: DimensionMismatch, MissingClass, one
    serial pass that sums the source's unit rows per class (_class_sums;
    NonFiniteValue of a streamed source, then ZeroVector), then each table
    at the first method that needs it, so DegenerateClass of the unit
    centroids precedes the oracle's LabelOutOfRange.

    In the pass (embed_core._row_pass) each block unit-normalizes its rows
    into a buffer its worker thread keeps (_unit_rows), then takes one
    (block, d) @ (d, C) GEMM per table, one table at a time. Each method's
    tail walks the product in row chunks of about _CHUNK_ENTRIES entries,
    in place for the last method on the table and on a chunk copy for the
    others; it is all per row, so no method or chunk changes another's
    bits. A zero target row is held until the pass ends, so a non-finite
    value anywhere wins; then ZeroVector is raised at the lowest one.

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
    groups = [(rows, [m for m in methods if _FAMILY[m][0] == kind]) for kind, rows in tables.items()]
    block_rows = _block_ranges(n)[0][1]
    local = threading.local()

    def tail(name, lo, dist):
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

    def block(lo, raw):
        if not hasattr(local, "unit"):
            local.unit = np.empty((block_rows, target.dim))
        unit = _unit_rows(raw, lo, out=local.unit[: raw.shape[0]])
        for rows, names in groups:
            dist = unit @ rows.T
            for a, b in _chunk_ranges(raw.shape[0], dist.shape[1]):
                for name in names:  # the last method on the table overwrites the product
                    tail(name, lo + a, dist[a:b] if name == names[-1] else dist[a:b].copy())
            del dist  # before the next table's product

    # The chunk copies are not counted, like normalization's chunk temporaries.
    _row_pass(target, block, target.dim + source.num_classes)
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
