"""Symmetric baseline distances: Gaussian-kernel MMD, proxy A-distance,
and the classical silhouette.

All baselines run on unit-normalized embeddings for consistency with the
centroid scores, so every pairwise distance comes from one GEMM through
the identity ||x - y||^2 = 2 - 2 x.y on unit rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .embed_core import EmbeddingSet, LabeledEmbeddingSet, unit_normalize
from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    SingletonClass,
    TooFewClasses,
    TooFewSamples,
)
from .scores import _block_ranges

MEDIAN_HEURISTIC = "median_heuristic"

# Entries of one silhouette distance block (block rows x n, float64): the
# row block shrinks as n grows so the block stays near 128 MB.
_SILHOUETTE_BLOCK_ENTRIES = 2**24


@dataclass(frozen=True)
class MmdConfig:
    bandwidth_policy: str = MEDIAN_HEURISTIC  # or "fixed"
    sigma: float = 1.0  # used only when bandwidth_policy == "fixed"
    max_samples_per_domain: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.bandwidth_policy not in (MEDIAN_HEURISTIC, "fixed"):
            raise ConfigInvalid(f"unknown bandwidth policy {self.bandwidth_policy!r}")
        if self.bandwidth_policy == "fixed" and not self.sigma > 0:
            raise ConfigInvalid("fixed bandwidth must be > 0")
        if self.max_samples_per_domain < 2:
            raise ConfigInvalid("max_samples_per_domain must be >= 2")


@dataclass(frozen=True)
class ProxyClassifierConfig:
    train_fraction: float = 0.5
    epochs: int = 200
    learning_rate: float = 0.01
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigInvalid("train_fraction must be in (0, 1)")
        if self.epochs < 1 or not self.learning_rate > 0 or self.l2_penalty < 0:
            raise ConfigInvalid("bad proxy classifier hyperparameters")


def _digest64(arr: np.ndarray) -> int:
    h = hashlib.blake2b(arr.tobytes(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def cdist(XA: np.ndarray, XB: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise distances between the unit rows of XA and XB from one GEMM,
    transformed in place: "cosine" is 1 - x.y clipped to [0, 2] (the PAS
    block kernel's formula), "sqeuclidean" is max(2 - 2 x.y, 0) and
    "euclidean" its square root. Rounding in 2 - 2 x.y puts the distance
    between (near-)identical rows at up to ~2e-8 instead of 0."""
    dist = XA @ XB.T
    if metric == "cosine":
        np.subtract(1.0, dist, out=dist)
        return np.clip(dist, 0.0, 2.0, out=dist)
    dist *= -2.0
    dist += 2.0
    np.maximum(dist, 0.0, out=dist)
    return np.sqrt(dist, out=dist) if metric == "euclidean" else dist


def _subsample(data: np.ndarray, cap: int, seed: int) -> np.ndarray:
    """At most `cap` rows in their original order, drawn with a seed keyed
    on the domain's own bytes so argument order cannot change the draw."""
    if data.shape[0] <= cap:
        return data
    rng = np.random.default_rng([seed, _digest64(data)])
    idx = np.sort(rng.choice(data.shape[0], size=cap, replace=False))
    return data[idx]


def _kernel_mean(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    k = cdist(x, y, "sqeuclidean")
    k *= -gamma
    return float(np.mean(np.exp(k, out=k)))


def mmd_gaussian(source: EmbeddingSet, target: EmbeddingSet, cfg: MmdConfig) -> float:
    """Biased (V-statistic) squared-MMD with kernel exp(-||x-y||^2 / 2s^2).

    Domains above cfg.max_samples_per_domain are subsampled with a seed
    keyed on each domain's bytes. The two domains are then put in a
    canonical order before any arithmetic, so the estimate is exactly
    symmetric in its arguments.
    """
    if source.dim != target.dim:
        raise DimensionMismatch(source.dim, target.dim)
    if source.n < 2 or target.n < 2:
        raise TooFewSamples(2, min(source.n, target.n))

    a = _subsample(unit_normalize(source).data, cfg.max_samples_per_domain, cfg.seed)
    b = _subsample(unit_normalize(target).data, cfg.max_samples_per_domain, cfg.seed)
    if (b.shape[0], b.tobytes()) < (a.shape[0], a.tobytes()):
        a, b = b, a

    if cfg.bandwidth_policy == "fixed":
        sigma = cfg.sigma
    else:
        pooled = np.vstack([a, b])
        # Median of the full pairwise multiset, selected in place.
        sigma = float(np.median(cdist(pooled, pooled, "euclidean"), overwrite_input=True))
        if sigma <= 0:
            sigma = 1.0

    gamma = 1.0 / (2.0 * sigma * sigma)
    value = _kernel_mean(a, a, gamma) + _kernel_mean(b, b, gamma) - 2.0 * _kernel_mean(a, b, gamma)
    return max(value, 0.0)


def _split_indices(n: int, seed_material: int) -> np.ndarray:
    """Seeded permutation for one domain, keyed on the domain's own bytes so
    argument order cannot change the split."""
    rng = np.random.default_rng([seed_material & 0xFFFFFFFF, seed_material >> 32])
    return rng.permutation(n)


def proxy_a_distance(source: EmbeddingSet, target: EmbeddingSet, cfg: ProxyClassifierConfig) -> float:
    """2 (1 - 2 e) where e is the held-out error of a linear domain
    classifier (logistic loss, full-batch gradient descent) separating
    source (label -1) from target (label +1), folded so e <= 1/2.

    The training stack is in a canonical row order and labels are +-1 with
    zero weight init, so swapping the arguments exactly negates the
    trajectory and returns the identical score.
    """
    if source.dim != target.dim:
        raise DimensionMismatch(source.dim, target.dim)
    if source.n < 4 or target.n < 4:
        raise TooFewSamples(4, min(source.n, target.n))

    s = unit_normalize(source).data
    t = unit_normalize(target).data

    def split(data):
        perm = _split_indices(data.shape[0], cfg.seed ^ _digest64(data))
        k = int(round(cfg.train_fraction * data.shape[0]))
        k = min(max(k, 1), data.shape[0] - 1)
        return data[perm[:k]], data[perm[k:]]

    s_train, s_test = split(s)
    t_train, t_test = split(t)

    # Canonical stacking order (independent of which argument is source).
    first_is_source = (s.shape[0], s.tobytes()) <= (t.shape[0], t.tobytes())
    if first_is_source:
        x_train = np.vstack([s_train, t_train])
        y_train = np.concatenate([-np.ones(len(s_train)), np.ones(len(t_train))])
        x_test = np.vstack([s_test, t_test])
        y_test = np.concatenate([-np.ones(len(s_test)), np.ones(len(t_test))])
    else:
        x_train = np.vstack([t_train, s_train])
        y_train = np.concatenate([np.ones(len(t_train)), -np.ones(len(s_train))])
        x_test = np.vstack([t_test, s_test])
        y_test = np.concatenate([np.ones(len(t_test)), -np.ones(len(s_test))])

    xb = np.hstack([x_train, np.ones((x_train.shape[0], 1))])
    w = np.zeros(xb.shape[1])
    n = xb.shape[0]
    for _ in range(cfg.epochs):
        z = xb @ w
        # d/dw mean log(1 + exp(-y z)) = -X^T (y * sigmoid(-y z)) / n
        yz = y_train * z
        sig = 1.0 / (1.0 + np.exp(np.clip(yz, -500, 500)))
        grad = -(xb.T @ (y_train * sig)) / n + cfg.l2_penalty * w
        w = w - cfg.learning_rate * grad

    xt = np.hstack([x_test, np.ones((x_test.shape[0], 1))])
    pred = np.where(xt @ w > 0.0, 1.0, -1.0)
    err = float(np.mean(pred != y_test))
    err = min(err, 1.0 - err)
    return 2.0 * (1.0 - 2.0 * err)


def silhouette(data: LabeledEmbeddingSet, metric: str = "cosine") -> float:
    """Classical mean silhouette (b - a) / max(a, b) with self-exclusion.

    metric is "cosine" or "euclidean", both between unit-normalized rows.
    Each block of rows takes its distances to all n rows and their class
    sums. The block has at most _SILHOUETTE_BLOCK_ENTRIES // n rows, so
    its memory stays bounded as n grows instead of reaching n x n.
    """
    if metric not in ("cosine", "euclidean"):
        raise ConfigInvalid(f"unknown metric {metric!r}")
    if data.num_classes < 2:
        raise TooFewClasses(data.num_classes)
    counts = np.bincount(data.labels, minlength=data.num_classes)
    if (counts < 2).any():
        raise SingletonClass(int(np.argmax(counts < 2)))

    x = unit_normalize(data.embeddings).data
    labels = data.labels
    onehot = np.zeros((data.n, data.num_classes))
    onehot[np.arange(data.n), labels] = 1.0
    scores = np.zeros(data.n)
    for lo, hi in _block_ranges(data.n, _SILHOUETTE_BLOCK_ENTRIES // data.n):
        rows = np.arange(hi - lo)
        own = labels[lo:hi]
        dist = cdist(x[lo:hi], x, metric)
        sums = dist @ onehot
        # The own-class mean leaves out the row's distance to itself.
        a = (sums[rows, own] - dist[rows, lo + rows]) / (counts[own] - 1)
        sums /= counts
        sums[rows, own] = np.inf
        b = sums.min(axis=1)
        denom = np.maximum(a, b)
        np.divide(b - a, denom, out=scores[lo:hi], where=denom != 0.0)
    return float(scores.mean())
