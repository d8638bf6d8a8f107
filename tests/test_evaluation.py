import math

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    evaluation,
    pas,
    pearson,
    rank_candidates,
    spearman,
    subsample_study,
)
from adaptscore.corr import _average_ranks
from adaptscore.errors import ConstantInput, LengthMismatch, TooFewSamples
from adaptscore.evaluation import derive_seed
from conftest import random_labeled
from reference_tables import OFFICE_31_RESNET50, OFFICE_HOME_RESNET50, flat


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_antilinear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_reference_row(self):
        x, y = flat(OFFICE_31_RESNET50)
        assert pearson(x, y) == pytest.approx(0.73, abs=0.01)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson([1, 2], [1, 2, 3])

    @pytest.mark.parametrize("x, y", [
        (1.0, 2.0),
        (np.eye(2), np.eye(2)),
        ([1, 2, 3], [[1, 2, 3]]),
        ([[1, 2, 3]], [1, 2, 3]),
    ], ids=["scalars", "matrices", "row_matrix_y", "row_matrix_x"])
    def test_input_that_is_not_1d(self, x, y):
        for corr in (pearson, spearman):
            with pytest.raises(ValueError, match="1-D") as err:
                corr(x, y)
            assert not isinstance(err.value, LengthMismatch)

    def test_length_mismatch_names_both_lengths(self):
        for corr in (pearson, spearman):
            with pytest.raises(LengthMismatch) as err:
                corr([1, 2, 3], [1, 2])
            assert (err.value.len_x, err.value.len_y) == (3, 2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_pairs(self, n):
        for corr in (pearson, spearman):
            with pytest.raises(TooFewSamples) as err:
                corr([1.0] * n, [2.0] * n)
            assert (err.value.needed, err.value.got) == (2, n)

    def test_constant_input(self):
        with pytest.raises(ConstantInput):
            pearson([1, 1, 1], [2, 2, 2])

    def test_one_constant_side_is_zero(self):
        assert pearson([1, 2, 3], [5, 5, 5]) == 0.0
        assert pearson([5, 5, 5], [1, 2, 3]) == 0.0

    def test_symmetric(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert pearson(x, y) == pytest.approx(pearson(y, x), abs=1e-12)


class TestSpearman:
    def test_monotone_transform_gives_one(self, rng):
        x = rng.standard_normal(20)
        y = np.exp(x)
        assert spearman(x, y) == pytest.approx(1.0)

    def test_reference_rows(self):
        x31, y31 = flat(OFFICE_31_RESNET50)
        assert spearman(x31, y31) == pytest.approx(0.66, abs=0.01)
        xoh, yoh = flat(OFFICE_HOME_RESNET50)
        assert spearman(xoh, yoh) == pytest.approx(0.82, abs=0.01)

    def test_monotone_invariance_exact(self, rng):
        x = rng.standard_normal(12)
        y = rng.standard_normal(12)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == base
        assert spearman(x, 3 * y + 10) == base

    def test_symmetric(self, rng):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-12)

    def test_average_ranks_equal_scipy_rankdata(self, rng):
        from scipy.stats import rankdata

        for _ in range(300):
            x = rng.integers(0, rng.integers(1, 6), size=rng.integers(1, 40))
            np.testing.assert_array_equal(_average_ranks(x), rankdata(x), strict=True)
            xf = x.astype(np.float64)
            np.testing.assert_array_equal(_average_ranks(xf), rankdata(xf), strict=True)
        with_nan = np.array([2.0, np.nan, 1.0, 2.0])
        np.testing.assert_array_equal(_average_ranks(with_nan), rankdata(with_nan))
        zeros_and_infs = np.array([np.inf, 0.0, -np.inf, -0.0, 1.0, np.inf, -np.inf, 0.0, -0.0])
        np.testing.assert_array_equal(_average_ranks(zeros_and_infs), rankdata(zeros_and_infs), strict=True)


class TestRankCandidates:
    def test_selects_highest(self):
        assert rank_candidates({"D": 0.265, "W": 0.239}) == ["D", "W"]
        assert rank_candidates({"W": 0.239, "D": 0.265}) == ["D", "W"]

    def test_lexicographic_tie_break(self):
        assert rank_candidates({"b": 0.5, "a": 0.5}) == ["a", "b"]

    def test_single_candidate(self):
        assert rank_candidates({"only": 0.1}) == ["only"]

    def test_increasing_transform_invariance(self, rng):
        scores = rng.uniform(0, 1, size=8)
        ids = [f"c{i}" for i in range(8)]
        base = rank_candidates(dict(zip(ids, scores)))
        transformed = rank_candidates({i: np.exp(3 * s) for i, s in zip(ids, scores)})
        assert base == transformed


def _numpy_pearson(x, y):
    """pearson in numpy's float64 arithmetic, as the package computed it
    before it moved to the standard library: the reference."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        if np.ptp(x) == 0.0 and np.ptp(y) == 0.0:
            raise ConstantInput()
        xc = x - x.mean()
        yc = y - y.mean()
        denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
        if denom == 0.0:
            return 0.0
        return float(np.sum(xc * yc) / denom)


def _numpy_spearman(x, y):
    """spearman's numpy reference: _numpy_pearson of the average ranks."""

    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        if np.isnan(v).any():
            return np.full(v.shape[0], np.nan)
        _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[group]

    _numpy_pearson(x, y)  # ConstantInput on the values, as spearman checks them
    return _numpy_pearson(ranks(x), ranks(y))


def _outcome(corr, x, y):
    """corr(x, y), or ConstantInput if it raised that."""
    try:
        return corr(x, y)
    except ConstantInput:
        return ConstantInput


class TestStdlibStatistics:
    """pearson and spearman sum with math.fsum; numpy's float64 sums agree
    with them within 1e-12 and give the same kind of result for NaN and
    infinite inputs."""

    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "ties"])
    @pytest.mark.parametrize("n", [2, 3, 10, 57, 250, 1000])
    def test_matches_numpy_arithmetic(self, n, ties):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        y = 0.5 * x + rng.standard_normal(n)
        if ties:
            x = rng.integers(0, max(2, n // 4), n).astype(np.float64)
            y = np.round(y, 1)
        for xs, ys in ((x.tolist(), y.tolist()), (x, y), (x.astype(np.float32), y.astype(np.float32))):
            assert pearson(xs, ys) == pytest.approx(_numpy_pearson(xs, ys), abs=1e-12)
            assert spearman(xs, ys) == pytest.approx(_numpy_spearman(xs, ys), abs=1e-12)

    @pytest.mark.parametrize("x, y", [
        ([0.3, math.nan, 0.1, 0.9], [60.0, 52.5, 55.0, 80.0]),
        ([0.3, math.inf, 0.1, 0.9], [60.0, 52.5, 55.0, 80.0]),
        ([-math.inf, 0.3, math.inf, 0.9], [60.0, 52.5, 55.0, 80.0]),
        ([1.7e308, 1.6e308, 1.5e308, 1e308], [60.0, 52.5, 55.0, 80.0]),
        ([math.nan] * 4, [1.0] * 4),
        ([math.inf] * 4, [1.0] * 4),
        ([1.0] * 4, [-math.inf] * 4),
    ], ids=["nan", "inf", "both-infinities", "overflow", "nan-side", "inf-side", "-inf-side"])
    def test_non_finite_like_numpy(self, x, y):
        """A NaN or an infinity, or a sum beyond the float range, makes
        pearson NaN, never ConstantInput: numpy's ptp of such a side is NaN
        or infinite. spearman gives what numpy's ranks gave; infinities rank
        like other values, so equal ones have constant ranks."""
        assert math.isnan(pearson(x, y)) and math.isnan(_numpy_pearson(x, y))
        got, want = (_outcome(corr, x, y) for corr in (spearman, _numpy_spearman))
        assert (got is ConstantInput) == (want is ConstantInput)
        if want is not ConstantInput:
            assert got == pytest.approx(want, abs=1e-12, nan_ok=True)


class TestSubsampleStudy:
    def test_fraction_one_bit_identical(self, rng):
        sources = [random_labeled(rng, n_per_class=30, num_classes=4, dim=6) for _ in range(2)]
        target = EmbeddingSet(rng.standard_normal((80, 6)))
        direct = [pas(s, target).value for s in sources]
        res = subsample_study(sources, target, [1.0], repeats=3, base_seed=9)
        for ci, v in enumerate(direct):
            assert all(x == v for x in res.scores[0][ci])
        assert res.rank_stable[0]

    def test_rankings_recorded_per_repeat(self, rng):
        sources = [random_labeled(rng, n_per_class=40, num_classes=4, dim=6, spread=sp)
                   for sp in (0.1, 0.6)]
        target = EmbeddingSet(rng.standard_normal((100, 6)))
        res = subsample_study(sources, target, [0.5, 1.0], repeats=4, base_seed=3)
        assert len(res.rankings[0]) == 4
        assert all(sorted(r) == sorted(res.candidate_ids) for r in res.rankings[0])

    def test_tables_are_indexed_by_fraction_candidate_and_repeat(self, rng):
        sources = [random_labeled(rng, n_per_class=20, num_classes=3, dim=5, spread=sp)
                   for sp in (0.2, 0.5, 0.8)]
        target = EmbeddingSet(rng.standard_normal((60, 5)))
        res = subsample_study(sources, target, [0.3, 0.6, 1.0], repeats=3, base_seed=5,
                              candidate_ids=["a", "b", "c"])
        for fi in range(3):
            assert [len(row) for row in res.scores[fi]] == [3, 3, 3]
            for r in range(3):
                scores = {c: res.scores[fi][ci][r] for ci, c in enumerate("abc")}
                assert res.rankings[fi][r] == rank_candidates(scores)
            matches = sum(ranking == res.full_ranking for ranking in res.rankings[fi])
            assert res.rank_match_fraction[fi] == matches / 3
            assert res.rank_stable[fi] == (matches == 3)

    def test_bad_fractions(self, rng):
        sources = [random_labeled(rng)]
        target = EmbeddingSet(rng.standard_normal((10, 8)))
        with pytest.raises(ValueError):
            subsample_study(sources, target, [0.5, 0.1], repeats=1, base_seed=0)
        with pytest.raises(ValueError):
            subsample_study(sources, target, [0.0, 1.0], repeats=1, base_seed=0)
        with pytest.raises(ValueError, match="strictly ascending"):
            subsample_study(sources, target, [0.5, 0.5], repeats=1, base_seed=0)

    @pytest.mark.parametrize(
        "ids, repeats, error",
        [(["a", "b"], 1, "candidate_ids"), (["a", "b", "c", "d"], 1, "candidate_ids"),
         (["a", "a", "b"], 1, "candidate_ids"), (["a", "b", "c"], 2.5, "repeats"),
         (["a", "b", "c"], True, "repeats"), (["a", "b", "c"], "2", "repeats")],
        ids=["too-few-ids", "too-many-ids", "repeated-id", "fractional-repeats", "bool-repeats", "str-repeats"],
    )
    def test_bad_arguments_raise_before_any_score(self, rng, monkeypatch, ids, repeats, error):
        """Three sources: ids that do not name each once, or repeats that
        is not an integer (a bool is not one), raise before any score."""
        sources = [random_labeled(rng, n_per_class=10, num_classes=3, dim=5) for _ in range(3)]
        target = EmbeddingSet(rng.standard_normal((30, 5)))
        calls = []
        monkeypatch.setattr(evaluation, "pas", lambda *a: calls.append(a))
        with pytest.raises(ValueError, match=error):
            subsample_study(sources, target, [0.5, 1.0], repeats=repeats, base_seed=0, candidate_ids=ids)
        assert calls == []

    def test_reproducible(self, rng):
        sources = [random_labeled(rng, n_per_class=25, num_classes=3, dim=5)]
        target = EmbeddingSet(rng.standard_normal((50, 5)))
        a = subsample_study(sources, target, [0.4], repeats=3, base_seed=17)
        b = subsample_study(sources, target, [0.4], repeats=3, base_seed=17)
        assert a.scores == b.scores


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        s1 = derive_seed(42, 0.25, 3, 1)
        assert s1 == derive_seed(42, 0.25, 3, 1)
        assert s1 != derive_seed(42, 0.25, 3, 2)
        assert s1 != derive_seed(42, 0.25, 4, 1)
        assert s1 != derive_seed(42, 0.5, 3, 1)
        assert 0 <= s1 < 2**64
