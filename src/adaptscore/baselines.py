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

from .embed_core import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    _Take,
    _block_ranges,
    _class_sums,
    _gram_to_distance,
    _row_pass,
    _run_blocks,
    _table_pass,
    _unit_rows,
)
from .errors import ConfigInvalid, DimensionMismatch, SingletonClass, TooFewSamples, check_fields

# Rows of one MMD pairwise block (rows x pooled n, float64): 20 MB at the
# default cap's 20,000 pooled rows.
_MMD_BLOCK_ROWS = 128
# Bytes of a whole walk's blocks (about n^2 / 2 float64 values, so pooled
# samples up to about 4,000 rows) that the default-sigma median walk keeps
# for the kernel sums, which then take no second walk.
_KEPT_BYTES = 64 << 20
# First-level median buckets are floor(s * 2**_BUCKET_BITS) over s in [0, 4].
_BUCKET_BITS = 14
# x.x of a unit row rounds by at most about d 2**-52, which is <= 2**-40 for
# d <= 4096, so a duplicate pair's squared distance 2 - 2 x.x can land a few
# ulp above 0. A selected median squared distance at or below this is 0.
_DUPLICATE_SQ = 2.0**-40

# The L2 penalty of the proxy A-distance probe.
L2_PENALTY = 1e-4


@dataclass(frozen=True)
class MmdConfig:
    sigma: float | None = None  # None: the median heuristic
    max_samples_per_domain: int = 10_000
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("max_samples_per_domain", "seed"), () if self.sigma is None else ("sigma",))
        if self.sigma is not None and not self.sigma > 0:
            raise ConfigInvalid("sigma must be > 0")
        if self.max_samples_per_domain < 2:
            raise ConfigInvalid("max_samples_per_domain must be >= 2")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")


@dataclass(frozen=True)
class ProxyClassifierConfig:
    epochs: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_fields(self, ("epochs", "seed"), ("learning_rate",))
        if self.epochs < 1 or not self.learning_rate > 0:
            raise ConfigInvalid("bad proxy classifier hyperparameters")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")


def cdist(XA: np.ndarray, XB: np.ndarray, metric: str) -> np.ndarray:
    """Pairwise distances between the unit rows of XA and XB from one GEMM,
    transformed in place (_gram_to_distance): "cosine" is 1 - x.y clipped
    to [0, 2] (the PAS block kernel's formula), "sqeuclidean" is
    max(2 - 2 x.y, 0) and "euclidean" its square root. MMD's walks
    (_upper_blocks) and window sample (_window) take every squared
    distance from it.

    Limit of the GEMM form: x.y of two equal unit rows rounds to within a
    few ulp of 1, so the squared distance between duplicate rows at
    different positions comes out as a multiple of 2**-52 up to ~1e-15,
    and the Euclidean distance up to ~2e-8 instead of 0.
    """
    return _gram_to_distance(XA @ XB.T, metric)


def _unit_key(e) -> int:
    """blake2b-64 of the bytes of the unit rows of the row source `e`,
    hashed in row order by one serial pass (_row_pass) that normalizes a
    block at a time, so one float64 block exists at once. Raises
    ZeroVector at the lowest zero row. Its pass reads every row, also the
    ones that a capped draw's view (_pooled_sample) skips."""
    key = hashlib.blake2b(digest_size=8)
    _row_pass(e, lambda lo, raw: key.update(_unit_rows(raw, lo)))
    return int.from_bytes(key.digest(), "little")


def _order_halves(p: np.ndarray, h: int) -> None:
    """Swap the two h-row halves of p when the bytes of the second sort
    before those of the first. Both are compared and swapped one
    _MMD_BLOCK_ROWS block at a time, so no copy of either half exists."""
    ranges = _block_ranges(h, _MMD_BLOCK_ROWS)
    for lo, hi in ranges:
        first, second = p[lo:hi].tobytes(), p[h + lo : h + hi].tobytes()
        if first != second:
            break
    if second < first:
        for lo, hi in ranges:
            block = p[lo:hi].copy()
            p[lo:hi] = p[h + lo : h + hi]
            p[h + lo : h + hi] = block


def _pooled_sample(source, target, cap: int, seed: int, least: int):
    """(p, na): the unit rows of both domains, each a row source, in the
    two halves of one float64 matrix p whose first na rows are the smaller
    half. Above `cap` rows a domain gives a view (_Take) of `cap` rows in
    their original order, drawn with a seed keyed on its unit rows' digest
    (_unit_key) so argument order cannot change the draw. One pass
    (_row_pass) over the domain or its view normalizes each block straight
    into its rows of p; _unit_rows is per row, so they are the bits of the
    whole matrix's unit rows. Equal halves are ordered by their bytes
    (_order_halves), so p does not depend on which domain is the source. A
    domain costs its drawn rows in p plus the blocks of its passes.

    Raises DimensionMismatch, TooFewSamples below `least` rows per domain,
    and ZeroVector at the lowest zero row of the source before any of the
    target's; within a domain a non-finite value wins (_row_pass), and the
    key pass reads every row, drawn or not.
    """
    if source.dim != target.dim:
        raise DimensionMismatch(source.dim, target.dim)
    if source.n < least or target.n < least:
        raise TooFewSamples(least, min(source.n, target.n))
    ns, nt = min(source.n, cap), min(target.n, cap)
    p = np.empty((ns + nt, source.dim))
    halves = (p[:ns], p[ns:]) if ns <= nt else (p[nt:], p[:nt])
    for e, half in zip((source, target), halves):
        if e.n > cap:
            rng = np.random.default_rng([seed, _unit_key(e)])
            e = _Take(e, np.sort(rng.choice(e.n, size=cap, replace=False)))
        _row_pass(e, lambda lo, raw: _unit_rows(raw, lo, out=half[lo : lo + raw.shape[0]]), e.dim)
    if ns == nt:
        _order_halves(p, ns)
    return p, min(ns, nt)


def _upper_blocks(p: np.ndarray, reduce):
    """reduce(lo, s) over the row blocks of the squared distances between
    the rows of p, yielded in block order by the block runner (_run_blocks):
    s[r, c] = max(2 - 2 p[lo + r].p[lo + c], 0) for c > r, and +inf on and
    below the diagonal, so each pair of rows appears once over all blocks.
    reduce may overwrite s and should return something small, or s itself
    when its caller keeps the walk (_within); a block it does not return
    lives only while its reduce runs, within the runner's flight budget.

    Each block is one product p[lo:hi] @ p[lo:].T; only the last one
    multiplies a block by its own transpose, so no product of the whole
    pooled set with itself is formed.
    """
    ranges = _block_ranges(p.shape[0], _MMD_BLOCK_ROWS)
    lower = np.tri(ranges[0][1], dtype=bool)

    def block(lo, hi):
        s = cdist(p[lo:hi], p[lo:], "sqeuclidean")
        h = hi - lo
        s[:, :h][lower[:h, :h]] = np.inf
        return reduce(lo, s)

    return _run_blocks(block, ranges, 8 * p.shape[0])


def _bucket_counts(p: np.ndarray, lo: float, scale: float, buckets: int) -> np.ndarray:
    """Counts of the pairwise squared distances s of p per bucket
    floor((s - lo) * scale) in [0, buckets); s outside is not counted.

    scale is a power of two and s - lo is exact for s in range (lo is 0
    or at least the bucket range), so the bucket edges are exact.
    """

    def count(_, s):
        s -= lo
        s *= scale
        np.floor(s, out=s)
        np.clip(s, -1.0, buckets, out=s)
        s += 1.0
        return np.bincount(s.astype(np.intp).ravel(), minlength=buckets + 2)[1:-1]

    return sum(_upper_blocks(p, count), np.zeros(buckets, dtype=np.int64))


def _within(p: np.ndarray, ranks, lo: float, hi: float, kept: list | None = None):
    """The values at `ranks` (ascending; one, or two adjacent) among the
    pairwise squared distances of p, from one walk that counts those below
    lo and copies those in [lo, hi) into a buffer of _MMD_BLOCK_ROWS * n
    values. None, as soon as the walk shows it, if the ranks are not inside
    or the buffer would overflow.

    Given a list `kept`, each block's reduce also returns its distance
    block, which joins `kept` in block order, so the whole walk stays in
    memory for the caller; on None the list is cleared at once. Without
    it a block lives only while its reduce runs."""

    def split(_, s):
        under = s < lo
        inside = s < hi
        inside ^= under  # s < lo implies s < hi
        return np.count_nonzero(under), s[inside], None if kept is None else s

    buf = np.empty(_MMD_BLOCK_ROWS * p.shape[0])
    below = filled = 0
    for count, values, block in _upper_blocks(p, split):
        below += count
        if below > ranks[0] or filled + values.shape[0] > buf.shape[0]:
            break  # closes the walk, cancelling the blocks not yet started
        buf[filled : filled + values.shape[0]] = values
        filled += values.shape[0]
        if kept is not None:
            kept.append(block)
    else:
        at = np.subtract(ranks, below)
        if at[-1] < filled:
            buf[:filled].partition(at)
            return list(buf[at])
    if kept is not None:
        kept.clear()
    return None


def _select(p: np.ndarray, ranks, below=0, lo=0.0, scale=2.0**_BUCKET_BITS, buckets=4 * 2**_BUCKET_BITS + 1):
    """_within's values at `ranks` when `below` values lie under lo and the
    ranks' in [lo, lo + buckets / scale). One counting pass finds their
    bucket(s); _within reads them if they fit its buffer, else each rank's
    bucket is split into 2**_BUCKET_BITS finer ones (once for both ranks
    when they share a bucket). Every s is a multiple of 2**-52 and every lo
    one of 2**-42, so a bucket narrower than 2**-52 holds at most the one
    value lo + b / scale, read from the counts."""
    counts = _bucket_counts(p, lo, scale, buckets)
    ends = np.cumsum(counts)
    before = ends - counts
    first, last = np.searchsorted(ends, np.subtract([ranks[0], ranks[-1]], below), side="right")
    if scale > 2.0**52:
        return [lo + b / scale for _, b in zip(ranks, (first, last))]
    if ends[last] - before[first] <= _MMD_BLOCK_ROWS * p.shape[0]:
        return _within(p, ranks, lo + first / scale, lo + (last + 1) / scale)
    finer = scale * 2.0**_BUCKET_BITS, 2**_BUCKET_BITS
    if first == last:
        return _select(p, ranks, below + before[first], lo + first / scale, *finer)
    return [
        _select(p, [r], below + before[b], lo + b / scale, *finer)[0]
        for r, b in zip(ranks, (first, last))
    ]


def _window(p: np.ndarray, ranks) -> tuple[float, float]:
    """Edges [lo, hi) of a window of pairwise squared distances of p that
    likely holds the values at `ranks` and about half of _MMD_BLOCK_ROWS * n
    values.

    The edges are quantiles of the squared distances from _MMD_BLOCK_ROWS
    evenly spaced rows to all other rows (one block product, a call of the
    block runner), at the ranks' fractions of the n (n - 1) / 2 values,
    widened by a quarter of _MMD_BLOCK_ROWS * n values on each side. The
    sample only places the window; a window that misses the ranks costs a
    fallback to the bucket counts (_select), never a wrong value.
    """
    n = p.shape[0]
    rows = np.linspace(0, n - 1, min(_MMD_BLOCK_ROWS, n)).astype(np.intp)
    [sample] = _run_blocks(lambda *_: cdist(p[rows], p, "sqeuclidean").ravel(), [(0, 1)], None)
    sample[np.arange(rows.shape[0]) * n + rows] = np.inf  # self-pairs sort last
    size = rows.shape[0] * (n - 1)
    half = _MMD_BLOCK_ROWS * n / 4  # window values on each side of the ranks
    edges = np.array([ranks[0] - half, ranks[-1] + 1 + half]) / (n * (n - 1) / 2)
    at = np.clip((edges * size).astype(np.intp), 0, size - 1)
    sample.partition(at)
    return sample[at[0]], np.nextafter(sample[at[1]], np.inf)


def _select_windowed(p: np.ndarray, ranks, kept: list | None = None):
    """_within's values at `ranks`, in one walk of the triangle over a
    sampled window (_window) in the usual case, which fills `kept` when
    given, and by _select's counting passes, which keep nothing, when the
    window misses the ranks or overflows."""
    return _within(p, ranks, *_window(p, ranks), kept) or _select(p, ranks)


def mmd_gaussian(source: EmbeddingSet, target: EmbeddingSet, cfg: MmdConfig) -> float:
    """Biased (V-statistic) squared-MMD with kernel exp(-||x-y||^2 / 2s^2).

    Either domain may be any row source, such as a streamed
    formats.PembRows. A domain above cfg.max_samples_per_domain is read
    as a view (_Take) of rows drawn with a seed keyed on its unit-row
    digest, into one pooled matrix in a canonical order (_pooled_sample),
    so the estimate is exactly symmetric in its arguments.

    The block runner walks the pooled rows in row blocks over the upper
    triangle of their pairwise squared distances s = max(2 - 2 x.y, 0),
    so memory is O(workers x block x n) within the runner's byte budget,
    never n x n; each block's kernel sums are added in block order. When
    the whole walk's blocks fit _KEPT_BYTES (64 MiB, pooled samples up to
    about 4,000 rows), the median's windowed walk keeps its distance
    blocks, up to those 64 MiB, and the kernel sums run over them in
    place, each dropped once summed, with the bits of a second walk; above
    the ceiling, on a window miss or with cfg.sigma set, the kernel sums
    take a walk of their own. The
    diagonal of the pooled matrix is taken as exactly 0 and every
    off-diagonal value appears twice, so the median heuristic's sigma is
    the exact median of all n^2 pairwise Euclidean distances (np.median's
    rule), never sorted: one walk (_within) reads it from a sampled window
    (_select_windowed), or, when that misses, from the range that bucket
    counts place (_select). Duplicate rows at different positions keep the
    GEMM form's rounding (see cdist), but a median that is only such
    rounding counts as 0, so sigma falls back to 1 as it does for an exact
    0. cfg.sigma, when set, replaces the median heuristic.
    """
    p, na = _pooled_sample(source, target, cfg.max_samples_per_domain, cfg.seed, 2)
    n = p.shape[0]
    nb = n - na
    ranges = _block_ranges(n, _MMD_BLOCK_ROWS)  # the walks' blocks (_upper_blocks)

    sigma, kept = cfg.sigma, None
    if sigma is None:
        kept = [] if 8 * sum((hi - lo) * (n - lo) for lo, hi in ranges) <= _KEPT_BYTES else None
        # Middle positions of the n^2 multiset (n zeros, then each
        # strict-upper value twice) as ranks among the strict-upper values.
        ranks = sorted({((n * n - 1) // 2 - n) // 2, (n * n // 2 - n) // 2})
        middle = np.sqrt([0.0 if v <= _DUPLICATE_SQ else v for v in _select_windowed(p, ranks, kept)])
        sigma = float(middle[0] if len(middle) == 1 else (middle[0] + middle[1]) / 2)
        if sigma <= 0:
            sigma = 1.0

    gamma = 1.0 / (2.0 * sigma * sigma)

    def kernel_sums(lo, s):
        s *= -gamma
        np.exp(s, out=s)
        cols = max(na - lo, 0)  # the block's columns in a
        rows = min(cols, s.shape[0])  # and its rows in a
        a, b = s[:rows], s[rows:]
        return float(a[:, :cols].sum()), float(a[:, cols:].sum()), float(b[:, cols:].sum())

    if kept:  # the median walk's blocks, each dropped once summed
        blocks = dict(zip([lo for lo, _ in ranges], kept))
        kept.clear()
        sums = _run_blocks(lambda lo, _: kernel_sums(lo, blocks.pop(lo)), ranges, 8 * n)
    else:
        sums = _upper_blocks(p, kernel_sums)
    aa = bb = ab = 0.0
    for block_aa, block_ab, block_bb in sums:  # added in block order
        aa += block_aa
        ab += block_ab
        bb += block_bb
    value = (2.0 * aa + na) / (na * na) + (2.0 * bb + nb) / (nb * nb) - 2.0 * ab / (na * nb)
    return max(value, 0.0)


def proxy_a_distance(source: EmbeddingSet, target: EmbeddingSet, cfg: ProxyClassifierConfig) -> float:
    """2 (1 - 2 e) where e is the held-out error of a linear domain
    classifier (logistic loss, full-batch gradient descent) separating two
    equal-size samples, folded so e <= 1/2.

    As in Ben-David et al., both samples have m = min(n_s, n_t) unit rows,
    drawn from the two row sources by MMD's sampler (_pooled_sample); a
    probe that calls every row one domain then has error 1/2 and scores 0.
    The first half of the pooled matrix is labeled -1 and the second +1, so
    every step depends on the pooled matrix alone and swapping the
    arguments returns the identical score. One permutation seeded with
    cfg.seed picks the same m // 2 training positions in both halves; the
    rest are held out. The probe trains and predicts in one call of the
    block runner, so its bits do not depend on the BLAS thread count.
    Memory is the pooled matrix plus one copy of the training rows.
    """
    m = min(source.n, target.n)
    p, _ = _pooled_sample(source, target, m, cfg.seed, 4)
    perm = np.random.default_rng(cfg.seed).permutation(m)
    train, held = perm[: m // 2], perm[m // 2 :]

    def probe(*_):  # trains, then predicts every pooled row
        x = p[np.concatenate([train, m + train])]
        y = np.repeat([-1.0, 1.0], m // 2)
        w, b = np.zeros(p.shape[1]), 0.0
        for _ in range(cfg.epochs):
            # d/dw mean log(1 + exp(-y z)) = -X^T (y * sigmoid(-y z)) / n
            g = y / (1.0 + np.exp(np.clip(y * (x @ w + b), -500, 500)))
            w = w - cfg.learning_rate * (L2_PENALTY * w - x.T @ g / y.shape[0])
            b = b - cfg.learning_rate * (L2_PENALTY * b - g.sum() / y.shape[0])
        return p @ w + b > 0.0

    [positive] = _run_blocks(probe, [(0, 1)], None)
    wrong = np.count_nonzero(positive[held]) + np.count_nonzero(~positive[m + held])
    err = wrong / (2 * held.shape[0])
    err = min(err, 1.0 - err)
    return 2.0 * (1.0 - 2.0 * err)


def silhouette(data: LabeledEmbeddingSet) -> float:
    """Classical mean silhouette (b - a) / max(a, b) with self-exclusion,
    under the cosine distance 1 - x.y between unit-normalized rows.

    `data.embeddings` is any row source: _class_sums sums its unit rows per
    class, and the block kernel (_table_pass) gives each row's sums of
    distances to every class, n_c - x.S_c = sum_{j in c} (1 - x.s_j), from
    its product with those sums. a and b are clipped to [0, 2], as
    _gram_to_distance clips PAS distances: when classes share directions,
    rounding can leave them below 0 and (b - a) / max(a, b) unbounded.
    """
    data._check_classes()
    counts = np.bincount(data.labels, minlength=data.num_classes)
    if (counts < 2).any():
        raise SingletonClass(int(np.argmax(counts < 2)))
    scores = np.zeros(data.n)

    def tail(lo, unit, sums):
        hi = lo + unit.shape[0]
        rows, own = np.arange(hi - lo), data.labels[lo:hi]
        np.subtract(counts, sums, out=sums)
        self_dist = 1.0 - np.einsum("ij,ij->i", unit, unit)
        # The own-class mean leaves out the row's distance to itself.
        a = np.clip((sums[rows, own] - self_dist) / (counts[own] - 1), 0.0, 2.0)
        sums /= counts
        sums[rows, own] = np.inf
        b = np.clip(sums.min(axis=1), 0.0, 2.0)
        denom = np.maximum(a, b)
        np.divide(b - a, denom, out=scores[lo:hi], where=denom != 0.0)

    _table_pass(data.embeddings, [(_class_sums(data.embeddings, data.labels, data.num_classes), [tail])])
    return float(scores.mean())
