"""Independent float64 references for every value the benchmark checks.

They are written from the definitions, not from the package's code: one
GEMM against the unit class-sum rows gives the PAS family and the oracle,
MMD uses the GEMM form 2 - 2 x.y on unit rows with an exact median, and the
silhouette is vectorized over a one-hot class matrix. Inputs are the
float32 file contents widened to float64, as the package loads them.
"""

from __future__ import annotations

import numpy as np

PEMB_HEADER_BYTES = 24
PLBL_HEADER_BYTES = 16


def read_pemb(path) -> np.ndarray:
    """Float32 rows of a PEMB file, read without the package's loader."""
    with open(path, "rb") as fh:
        header = fh.read(PEMB_HEADER_BYTES)
        n = int.from_bytes(header[8:16], "little")
        d = int.from_bytes(header[16:24], "little")
        return np.fromfile(fh, dtype="<f4", count=n * d).reshape(n, d)


def read_plbl(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(PLBL_HEADER_BYTES)
        n = int.from_bytes(header[8:16], "little")
        return np.fromfile(fh, dtype="<u4", count=n).astype(np.int64)


def unit_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]


def class_sums(unit_x, labels, num_classes) -> tuple[np.ndarray, np.ndarray]:
    """Per-class sums of rows (sorted by class, then reduceat) and counts."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=num_classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.add.reduceat(unit_x[order], starts, axis=0), counts


def _smallest_two(dist):
    """Argmin, smallest and second-smallest value of each row (a masked
    second minimum; ties give d2 == d1)."""
    rows = np.arange(dist.shape[0])
    nearest = dist.argmin(axis=1)
    d1 = dist[rows, nearest]
    masked = dist.copy()
    masked[rows, nearest] = np.inf
    return nearest, d1, masked.min(axis=1)


def _margin(d1, d2, denom):
    out = np.zeros_like(d1)
    nz = denom > 0.0
    out[nz] = (d2[nz] - d1[nz]) / denom[nz]
    return out


def centroid_scores(src_x, src_y, tgt_x, tgt_y=None, block=8192) -> dict:
    """Values of pas, pas_euclidean, pas_avg_pairwise and (with target
    labels) oracle, plus the per-row pas breakdown columns d1, d2, nearest
    and contribution."""
    num_classes = int(src_y.max()) + 1
    sums, counts = class_sums(unit_rows(src_x), src_y, num_classes)
    norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))
    centroids = sums / norms[:, None]
    # Mean cosine distance to a class's members is 1 - t.(sum / count), and
    # sum = centroid * norm, so one GEMM serves both scores.
    avg_scale = norms / counts

    n = tgt_x.shape[0]
    cols = {k: np.empty(n) for k in ("d1", "d2", "contribution")}
    cols["nearest"] = np.empty(n, dtype=np.int64)
    totals = {"pas": 0.0, "pas_euclidean": 0.0, "pas_avg_pairwise": 0.0, "oracle": 0.0}
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        sim = unit_rows(tgt_x[lo:hi]) @ centroids.T
        cos = np.clip(1.0 - sim, 0.0, 2.0)
        nearest, d1, d2 = _smallest_two(cos)
        contrib = _margin(d1, d2, d2)
        cols["d1"][lo:hi], cols["d2"][lo:hi] = d1, d2
        cols["nearest"][lo:hi], cols["contribution"][lo:hi] = nearest, contrib
        totals["pas"] += contrib.sum()

        _, e1, e2 = _smallest_two(np.sqrt(np.maximum(2.0 - 2.0 * sim, 0.0)))
        totals["pas_euclidean"] += _margin(e1, e2, e2).sum()

        _, a1, a2 = _smallest_two(np.clip(1.0 - sim * avg_scale, 0.0, 2.0))
        totals["pas_avg_pairwise"] += _margin(a1, a2, a2).sum()

        if tgt_y is not None:
            true = tgt_y[lo:hi]
            rows = np.arange(hi - lo)
            o1 = cos[rows, true]
            other = cos.copy()
            other[rows, true] = np.inf
            o2 = other.min(axis=1)
            totals["oracle"] += _margin(o1, o2, np.maximum(o1, o2)).sum()
    values = {k: v / n for k, v in totals.items()}
    if tgt_y is None:
        del values["oracle"]
    return {"values": values, "breakdown": cols}


def mmd(x, y) -> float:
    """Biased squared MMD with a Gaussian kernel whose bandwidth is the
    exact median of all pooled pairwise distances (diagonal included)."""
    s, t = unit_rows(x), unit_rows(y)
    pooled = np.vstack([s, t])
    sq = np.maximum(2.0 - 2.0 * (pooled @ pooled.T), 0.0)
    np.fill_diagonal(sq, 0.0)
    sigma = float(np.median(np.sqrt(sq)))
    if sigma <= 0:
        sigma = 1.0
    k = np.exp(-sq / (2.0 * sigma * sigma))
    n = s.shape[0]
    value = k[:n, :n].mean() + k[n:, n:].mean() - 2.0 * k[:n, n:].mean()
    return max(float(value), 0.0)


def silhouette(x, labels) -> float:
    """Mean cosine silhouette with self-exclusion, vectorized by class."""
    u = unit_rows(x)
    dist = np.clip(1.0 - u @ u.T, 0.0, 2.0)
    num_classes = int(labels.max()) + 1
    onehot = (labels[:, None] == np.arange(num_classes)[None, :]).astype(np.float64)
    sums = dist @ onehot
    counts = onehot.sum(axis=0)
    rows = np.arange(len(labels))
    a = (sums[rows, labels] - dist[rows, rows]) / (counts[labels] - 1.0)
    means = sums / counts
    means[rows, labels] = np.inf
    b = means.min(axis=1)
    return float(_margin(a, b, np.maximum(a, b)).mean())


def pearson(x, y) -> float:
    return float(np.corrcoef(np.asarray(x, float), np.asarray(y, float))[0, 1])


def average_ranks(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    return pearson(average_ranks(x), average_ranks(y))


def ranking(scores: dict) -> list:
    """Candidate ids by descending score, ties by id."""
    return sorted(scores, key=lambda cid: (-scores[cid], cid))
