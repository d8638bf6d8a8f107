"""The subsample-robustness study."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Nothing here calls pearson or spearman: perfbench/test_perfbench.py imports
# them from this module.
from .corr import pearson, rank_candidates, spearman
from .embed_core import LabeledEmbeddingSet, _Take
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


def derive_seed(base_seed: int, fraction: float, repeat: int, candidate_index: int) -> int:
    """Reproducible per-cell seed: base_seed XOR blake2b-64 of the canonical
    string "subsample:<fraction-float64-hex>:<repeat>:<candidate_index>".

    This formula is part of the external contract so studies reproduce
    across machines.
    """
    key = f"subsample:{float(fraction).hex()}:{repeat}:{candidate_index}".encode()
    h = int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")
    return (base_seed ^ h) & 0xFFFFFFFFFFFFFFFF


def _stratified_subsample(source, class_rows, fraction: float, rng) -> LabeledEmbeddingSet:
    keep = []
    for members in class_rows:  # the ascending rows of each class
        k = max(1, int(round(fraction * members.shape[0])))
        keep.append(rng.choice(members, size=k, replace=False))
    idx = np.sort(np.concatenate(keep))
    return LabeledEmbeddingSet(_Take(source.embeddings, idx), source.labels[idx], source.num_classes)


def _uniform_subsample(target, fraction: float, rng) -> _Take:
    k = max(1, int(round(fraction * target.n)))
    return _Take(target, np.sort(rng.choice(target.n, size=k, replace=False)))


def _check_study(fractions, repeats: int) -> list:
    """`fractions` as floats; ValueError unless they parse and strictly
    ascend within (0, 1] and `repeats` is at least 1."""
    fractions = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fractions) or any(a >= b for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly ascending values in (0, 1]")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    return fractions


def subsample_study(
    sources,
    target,
    fractions,
    repeats: int,
    base_seed: int,
    candidate_ids=None,
) -> SubsampleStudyResult:
    """PAS stability under joint subsampling of row sources: the `target`
    and the embeddings of the LabeledEmbeddingSet `sources`.

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
    class_rows = [[np.flatnonzero(src.labels == c) for c in range(src.num_classes)] for src in sources]

    def repeat_scores(f, r):
        """The candidates' scores of repeat r at fraction f."""
        if f == 1.0:
            return full_scores
        out = []
        for ci, src in enumerate(sources):
            rng = np.random.default_rng(derive_seed(base_seed, f, r, ci))
            sub_src = _stratified_subsample(src, class_rows[ci], f, rng)
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
