"""Potential-adaptability scoring: PAS, its oracle, and design variants.

Every scorer follows the same pipeline: unit-normalize the source, build C
class representatives, then run one block kernel over the raw target rows
that normalizes each row, computes its distances to the C representatives,
keeps the two that matter (d1, d2) and writes a per-sample contribution.
The score is the mean contribution; the per-sample values are kept as
columns.

The kernel runs in fixed-size row blocks on the block runner
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
from .errors import DimensionMismatch, LabelOutOfRange


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
    """A score and its per-sample columns, each of length n_target and
    read-only."""

    method: str
    value: float
    n_target: int
    n_source: int
    num_classes: int
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


def _check_pair(source: LabeledEmbeddingSet, target: EmbeddingSet):
    """DimensionMismatch, or MissingClass for a source that lacks a class."""
    if source.dim != target.dim:
        raise DimensionMismatch(source.dim, target.dim)
    source._check_classes()


def _block_kernel(target, rows: np.ndarray, dist_kind: str, true_labels=None):
    """d1/d2/nearest/contribution columns of the raw target rows against C
    reference rows.

    `target` is a row source (n, dim and reader()), read in one pass of
    embed_core._row_pass. Each block unit-normalizes its rows in
    cache-sized chunks (_unit_rows) into a float64 buffer that its worker
    thread keeps for the whole pass, so no normalized n x d copy exists,
    then takes one (block, d) @ (d, C) GEMM. The tail (distance transform,
    pick, d1/d2, contribution) walks the block's dot products in row chunks
    of about _CHUNK_ENTRIES entries; all of it is per row, so the chunking
    does not change a bit. `dist_kind` is "cosine" or "euclidean"
    (_gram_to_distance, between unit rows and unit reference rows). The
    nearest class is the lowest class id among minimizers (argmin returns
    the first).

    A zero row is held until the pass ends (_row_pass), so a non-finite
    value anywhere wins over it; then ZeroVector is raised at the lowest
    zero row.

    d1 is the distance to the picked class and d2 the smallest among the
    others. Without true_labels the picked class is the nearest one, so
    d1 <= d2 are the two smallest distances; with them (the oracle rule)
    it is the true class. Either way the contribution is
    (d2 - d1) / max(d1, d2), which is PAS's (d2 - d1) / d2 when d1 <= d2,
    and 0 when both are 0 (no preference).
    """
    n = target.n
    d1 = np.empty(n)
    d2 = np.empty(n)
    nearest = np.empty(n, dtype=np.int64)
    contrib = np.zeros(n)
    block_rows = _block_ranges(n)[0][1]
    local = threading.local()

    def tail(lo, dist):
        hi = lo + dist.shape[0]
        _gram_to_distance(dist, dist_kind)
        idx = np.arange(hi - lo)
        nearest[lo:hi] = pick = dist.argmin(axis=1)
        if true_labels is not None:
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
        dist = unit @ rows.T
        for a, b in _chunk_ranges(raw.shape[0], dist.shape[1]):
            tail(lo + a, dist[a:b])

    _row_pass(target, block, 8 * block_rows * (target.dim + rows.shape[0]))
    return d1, d2, nearest, contrib


def _assemble(method, columns, source: LabeledEmbeddingSet) -> ScoreResult:
    contrib = columns[3]
    n = contrib.shape[0]
    value = float(np.sum(contrib) / n)
    return ScoreResult(method, value, n, source.n, source.num_classes, *columns)


def _source_centroids(source: LabeledEmbeddingSet, target: EmbeddingSet) -> np.ndarray:
    """class_centroids of the source's unit rows, summed from the raw rows
    slice by slice (_class_sums), so no normalized copy of the source
    exists."""
    _check_pair(source, target)
    sums = _class_sums(source.embeddings.data, source.labels, source.num_classes, unit=True)
    return _centroid_table(sums).centroids


def pas(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """Mean over target samples of (d2 - d1) / d2, where d1, d2 are the two
    smallest cosine distances to the source class centroids."""
    columns = _block_kernel(target, _source_centroids(source, target), "cosine")
    return _assemble("pas", columns, source)


def pas_euclidean(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """PAS with the Euclidean distance between unit-normalized rows and
    centroids in place of the cosine distance."""
    columns = _block_kernel(target, _source_centroids(source, target), "euclidean")
    return _assemble("pas_euclidean", columns, source)


def pas_avg_pairwise(source: LabeledEmbeddingSet, target: EmbeddingSet) -> ScoreResult:
    """PAS variant where each class distance is the mean cosine distance to
    all members of the class rather than to its centroid.

    mean_j (1 - t.s_j) = 1 - t.mean_j(s_j), so the per-class raw means of
    the unit rows stand in for the centroid table.
    """
    _check_pair(source, target)
    sums = _class_sums(source.embeddings.data, source.labels, source.num_classes, unit=True)
    counts = np.bincount(source.labels, minlength=source.num_classes).astype(np.float64)
    means = sums / counts[:, None]
    columns = _block_kernel(target, means, "cosine")
    return _assemble("pas_avg_pairwise", columns, source)


def oracle_score(source: LabeledEmbeddingSet, target: LabeledEmbeddingSet) -> ScoreResult:
    """Label-aware PAS variant: d1 is the cosine distance to the true-class
    centroid, d2 the smallest distance among the other centroids, and the
    contribution is (d2 - d1) / max(d1, d2) in [-1, 1]."""
    centroids = _source_centroids(source, target.embeddings)
    labels = target.labels
    if labels.max() >= source.num_classes or labels.min() < 0:
        bad = labels[(labels < 0) | (labels >= source.num_classes)][0]
        raise LabelOutOfRange(int(bad), source.num_classes)
    columns = _block_kernel(target.embeddings, centroids, "cosine", labels)
    return _assemble("oracle", columns, source)
