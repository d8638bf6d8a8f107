"""Correlation statistics, candidate ranking, and the subsample-robustness
study."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .embed_core import EmbeddingSet, LabeledEmbeddingSet
from .errors import ConstantInput, LengthMismatch, TooFewSamples
from .scores import pas


@dataclass
class SubsampleStudyResult:
    fractions: list
    candidate_ids: list
    # scores[f_idx][candidate_idx] is the list of per-repeat scores
    scores: list
    # rankings[f_idx][repeat] is an ordered candidate-id list
    rankings: list
    full_ranking: list
    # rank_match_fraction[f_idx]: share of repeats matching the full ranking
    rank_match_fraction: list
    rank_stable: list  # all repeats match


def _validated_xy(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError(f"expected two 1-D inputs, got shapes {x.shape} and {y.shape}")
    if x.shape != y.shape:
        raise LengthMismatch(x.shape[0], y.shape[0])
    if x.shape[0] < 2:
        raise TooFewSamples(2, x.shape[0])
    if np.ptp(x) == 0.0 and np.ptp(y) == 0.0:
        raise ConstantInput()
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _validated_xy(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        # One side constant: correlation undefined; report 0 like a
        # regression slope of zero evidence.
        return 0.0
    return float(np.sum(xc * yc) / denom)


def _average_ranks(x) -> np.ndarray:
    """1-based ranks of a 1-D array, tied values sharing the mean of their
    ranks (scipy.stats.rankdata's "average" method, NaN propagating)."""
    x = np.asarray(x)
    if np.isnan(x).any():
        return np.full(x.shape[0], np.nan)
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], x.shape[0])
    group = np.repeat(np.arange(starts.shape[0]), ends - starts)
    ranks = np.empty(x.shape[0])
    ranks[order] = ((starts + ends + 1) / 2.0)[group]
    return ranks


def spearman(x, y) -> float:
    """Pearson correlation of average-rank vectors."""
    x, y = _validated_xy(x, y)
    return pearson(_average_ranks(x), _average_ranks(y))


def rank_candidates(scores: dict) -> list:
    """The ids of one method's {candidate_id: score} sorted by descending
    score, ties broken by lexicographic id. The head is the selection."""
    return sorted(scores, key=lambda c: (-scores[c], c))


def derive_seed(base_seed: int, fraction: float, repeat: int, candidate_index: int) -> int:
    """Reproducible per-cell seed: base_seed XOR blake2b-64 of the canonical
    string "subsample:<fraction-float64-hex>:<repeat>:<candidate_index>".

    This formula is part of the external contract so studies reproduce
    across machines.
    """
    key = f"subsample:{float(fraction).hex()}:{repeat}:{candidate_index}".encode()
    h = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return (base_seed ^ h) & 0xFFFFFFFFFFFFFFFF


def _stratified_subsample(source: LabeledEmbeddingSet, fraction: float, rng) -> LabeledEmbeddingSet:
    keep = []
    for c in range(source.num_classes):
        members = np.flatnonzero(source.labels == c)
        k = max(1, int(round(fraction * members.shape[0])))
        keep.append(rng.choice(members, size=k, replace=False))
    idx = np.sort(np.concatenate(keep))
    return LabeledEmbeddingSet(
        EmbeddingSet(source.embeddings.data[idx]), source.labels[idx], source.num_classes
    )


def _uniform_subsample(target: EmbeddingSet, fraction: float, rng) -> EmbeddingSet:
    k = max(1, int(round(fraction * target.n)))
    idx = np.sort(rng.choice(target.n, size=k, replace=False))
    return EmbeddingSet(target.data[idx])


def _check_study(fractions, repeats: int) -> list:
    """`fractions` as floats; ValueError unless they parse and ascend within
    (0, 1] and `repeats` is at least 1."""
    fractions = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fractions) or fractions != sorted(fractions):
        raise ValueError("fractions must be ascending values in (0, 1]")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return fractions


def subsample_study(
    sources,
    target: EmbeddingSet,
    fractions,
    repeats: int,
    base_seed: int,
    candidate_ids=None,
) -> SubsampleStudyResult:
    """PAS stability under joint source/target subsampling.

    Fraction 1.0 bypasses the sampling path entirely, so its row is
    bit-identical to direct scoring. Stratified source sampling keeps
    max(1, round(f * n_c)) <= n_c rows of every class, so a subsample
    never loses a class.
    """
    fractions = _check_study(fractions, repeats)
    if candidate_ids is None:
        candidate_ids = [f"candidate_{i}" for i in range(len(sources))]

    full_scores = [pas(src, target).value for src in sources]
    full_ranking = rank_candidates(dict(zip(candidate_ids, full_scores)))

    def repeat_scores(f, r):
        """The candidates' scores of repeat r at fraction f."""
        if f == 1.0:
            return full_scores
        out = []
        for ci, src in enumerate(sources):
            rng = np.random.default_rng(derive_seed(base_seed, f, r, ci))
            sub_src = _stratified_subsample(src, f, rng)
            out.append(pas(sub_src, _uniform_subsample(target, f, rng)).value)
        return out

    scores, rankings = [], []
    for f in fractions:
        repeat_rows = [repeat_scores(f, r) for r in range(repeats)]
        scores.append([list(column) for column in zip(*repeat_rows)])
        rankings.append([rank_candidates(dict(zip(candidate_ids, row))) for row in repeat_rows])
    match_fraction = [sum(r == full_ranking for r in f_rankings) / repeats for f_rankings in rankings]

    return SubsampleStudyResult(
        fractions=fractions,
        candidate_ids=list(candidate_ids),
        scores=scores,
        rankings=rankings,
        full_ranking=full_ranking,
        rank_match_fraction=match_fraction,
        rank_stable=[m == 1.0 for m in match_fraction],
    )
