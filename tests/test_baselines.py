import math

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    MmdConfig,
    ProxyClassifierConfig,
    mmd_gaussian,
    proxy_a_distance,
    silhouette,
)
from adaptscore import baselines, scores
from adaptscore.embed_core import unit_normalize
from adaptscore.errors import (
    ConfigInvalid,
    DimensionMismatch,
    SingletonClass,
    TooFewClasses,
    TooFewSamples,
)
from conftest import random_labeled, random_orthogonal


def brute_force_mmd(x, y, sigma):
    """Direct triple-sum of the V-statistic estimator."""
    def k(u, v):
        return math.exp(-float(np.sum((u - v) ** 2)) / (2 * sigma * sigma))

    m, n = len(x), len(y)
    xx = sum(k(x[i], x[j]) for i in range(m) for j in range(m)) / (m * m)
    yy = sum(k(y[i], y[j]) for i in range(n) for j in range(n)) / (n * n)
    xy = sum(k(x[i], y[j]) for i in range(m) for j in range(n)) / (m * n)
    return xx + yy - 2 * xy


def loop_silhouette(data, metric):
    """The per-sample loop over a dense n x n matrix that the blockwise
    silhouette replaced."""
    from scipy.spatial.distance import cdist

    x = unit_normalize(data.embeddings).data
    if metric == "cosine":
        dist = np.clip(1.0 - x @ x.T, 0.0, 2.0)
    else:
        dist = cdist(x, x, "euclidean")
    labels = data.labels
    per_sample = np.empty(data.n)
    for i in range(data.n):
        same = labels == labels[i]
        a = (dist[i, same].sum() - dist[i, i]) / (same.sum() - 1)
        b = np.inf
        for c in range(data.num_classes):
            if c == labels[i]:
                continue
            b = min(b, dist[i, labels == c].mean())
        denom = max(a, b)
        per_sample[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(per_sample.mean())


@pytest.mark.parametrize("metric", ["cosine", "sqeuclidean", "euclidean"])
def test_cdist_matches_scipy_on_unit_rows(rng, metric):
    from scipy.spatial.distance import cdist

    xa = unit_normalize(EmbeddingSet(rng.standard_normal((40, 16)))).data
    xb = unit_normalize(EmbeddingSet(rng.standard_normal((25, 16)))).data
    np.testing.assert_allclose(baselines.cdist(xa, xb, metric), cdist(xa, xb, metric), rtol=0, atol=1e-12)


class TestMmd:
    def test_identical_sets_zero(self, rng):
        x = rng.standard_normal((10, 4))
        e = EmbeddingSet(x)
        assert mmd_gaussian(e, EmbeddingSet(x.copy()), MmdConfig()) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_closed_form(self):
        # duplicated unit rows reproduce the singleton closed form
        # 2 (1 - exp(-1)) for orthogonal vectors at sigma = 1
        s = EmbeddingSet([[1.0, 0.0], [1.0, 0.0]])
        t = EmbeddingSet([[0.0, 1.0], [0.0, 1.0]])
        v = mmd_gaussian(s, t, MmdConfig("fixed", sigma=1.0))
        assert v == pytest.approx(2 - 2 * math.exp(-1), abs=1e-9)

    def test_symmetry_exact(self, rng):
        for i in range(25):
            s = EmbeddingSet(rng.standard_normal((rng.integers(2, 15), 5)))
            t = EmbeddingSet(rng.standard_normal((rng.integers(2, 15), 5)))
            cfg = MmdConfig(seed=i)
            assert mmd_gaussian(s, t, cfg) == mmd_gaussian(t, s, cfg)

    @pytest.mark.parametrize("rows, cap", [(300, 10_000), (120, 90)])
    def test_symmetry_exact_with_hundreds_of_rows(self, rng, rows, cap):
        # Above the cap each domain's draw must not depend on its position.
        for i in range(4):
            s = EmbeddingSet(rng.standard_normal((rows + 7 * i, 24)))
            t = EmbeddingSet(rng.standard_normal((rows, 24)) + 0.2)
            cfg = MmdConfig(max_samples_per_domain=cap, seed=i)
            assert mmd_gaussian(s, t, cfg) == mmd_gaussian(t, s, cfg)

    def test_nonnegative(self, rng):
        for i in range(25):
            s = EmbeddingSet(rng.standard_normal((8, 3)))
            t = EmbeddingSet(rng.standard_normal((9, 3)))
            assert mmd_gaussian(s, t, MmdConfig(seed=i)) >= 0.0

    def test_matches_brute_force(self, rng):
        from adaptscore.embed_core import unit_normalize
        from scipy.spatial.distance import cdist

        for _ in range(5):
            s = EmbeddingSet(rng.standard_normal((12, 4)))
            t = EmbeddingSet(rng.standard_normal((9, 4)))
            su = unit_normalize(s).data
            tu = unit_normalize(t).data
            pooled = np.vstack([su, tu])
            sigma = float(np.median(cdist(pooled, pooled, "euclidean")))
            fast = mmd_gaussian(s, t, MmdConfig())
            slow = brute_force_mmd(su, tu, sigma)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_subsample_cap_deterministic(self, rng):
        s = EmbeddingSet(rng.standard_normal((50, 4)))
        t = EmbeddingSet(rng.standard_normal((60, 4)))
        cfg = MmdConfig(max_samples_per_domain=20, seed=7)
        assert mmd_gaussian(s, t, cfg) == mmd_gaussian(s, t, cfg)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            mmd_gaussian(EmbeddingSet([[1.0, 0.0]]), EmbeddingSet([[0.0, 1.0], [0.0, 1.0]]), MmdConfig())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mmd_gaussian(
                EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]),
                EmbeddingSet([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                MmdConfig(),
            )

    def test_bad_config(self):
        with pytest.raises(ConfigInvalid):
            MmdConfig("fixed", sigma=0.0)
        with pytest.raises(ConfigInvalid):
            MmdConfig(max_samples_per_domain=1)


class TestProxyADistance:
    def test_separable_near_two(self, rng):
        d = 16
        c1 = np.eye(d)[0]
        c2 = np.eye(d)[1]
        s = EmbeddingSet(c1 + 0.01 * rng.standard_normal((80, d)))
        t = EmbeddingSet(c2 + 0.01 * rng.standard_normal((80, d)))
        assert proxy_a_distance(s, t, ProxyClassifierConfig(seed=0)) == pytest.approx(2.0, abs=0.05)

    def test_identical_distribution_near_zero(self):
        d = 16
        c = np.eye(d)[0]
        vals = []
        for seed in range(10):
            r = np.random.default_rng(seed)
            x = c + 0.3 * r.standard_normal((200, d))
            vals.append(
                proxy_a_distance(
                    EmbeddingSet(x[:100]), EmbeddingSet(x[100:]), ProxyClassifierConfig(seed=seed)
                )
            )
        assert np.mean(vals) <= 0.2

    def test_swap_identical(self, rng):
        s = EmbeddingSet(rng.standard_normal((30, 6)))
        t = EmbeddingSet(rng.standard_normal((40, 6)) + 0.5)
        cfg = ProxyClassifierConfig(seed=11)
        assert proxy_a_distance(s, t, cfg) == proxy_a_distance(t, s, cfg)

    def test_range(self, rng):
        for i in range(20):
            s = EmbeddingSet(rng.standard_normal((12, 4)))
            t = EmbeddingSet(rng.standard_normal((12, 4)) + rng.uniform(0, 2))
            v = proxy_a_distance(s, t, ProxyClassifierConfig(seed=i))
            assert 0.0 <= v <= 2.0

    def test_monotone_on_shift_family(self):
        from adaptscore import SynthConfig, generate_pair

        lo, hi = [], []
        for seed in range(10):
            cfg0 = SynthConfig(5, 16, 40, 40, intra_spread=0.3, shift=0.0, seed=seed)
            cfg1 = SynthConfig(5, 16, 40, 40, intra_spread=0.3, shift=1.2, seed=seed)
            s0, t0 = generate_pair(cfg0)
            s1, t1 = generate_pair(cfg1)
            pc = ProxyClassifierConfig(seed=seed)
            lo.append(proxy_a_distance(s0.embeddings, t0.embeddings, pc))
            hi.append(proxy_a_distance(s1.embeddings, t1.embeddings, pc))
        assert np.mean(lo) < np.mean(hi)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            proxy_a_distance(
                EmbeddingSet([[1.0, 0.0]] * 3), EmbeddingSet([[0.0, 1.0]] * 8), ProxyClassifierConfig()
            )


class TestSilhouette:
    def test_tight_separated_clusters(self, rng):
        d = 8
        rows = np.vstack(
            [
                np.eye(d)[0] + 0.01 * rng.standard_normal((10, d)),
                np.eye(d)[1] + 0.01 * rng.standard_normal((10, d)),
            ]
        )
        data = LabeledEmbeddingSet(EmbeddingSet(rows), [0] * 10 + [1] * 10, 2)
        assert silhouette(data, "cosine") > 0.9

    def test_interleaved_identical_clusters(self, rng):
        x = rng.standard_normal((10, 5))
        data = LabeledEmbeddingSet(
            EmbeddingSet(np.vstack([x, x])), [0] * 10 + [1] * 10, 2
        )
        assert silhouette(data, "cosine") <= 0.0

    def test_range(self, rng):
        for _ in range(10):
            data = random_labeled(rng, n_per_class=8, num_classes=3, dim=5, spread=1.0)
            for metric in ("cosine", "euclidean"):
                assert -1.0 <= silhouette(data, metric) <= 1.0

    def test_orthogonal_invariance_cosine(self, rng):
        data = random_labeled(rng, dim=6)
        base = silhouette(data, "cosine")
        q = random_orthogonal(rng, 6)
        rotated = LabeledEmbeddingSet(
            EmbeddingSet(data.embeddings.data @ q.T), data.labels, data.num_classes
        )
        assert silhouette(rotated, "cosine") == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_blocks_match_per_sample_loop(self, rng, monkeypatch, metric):
        monkeypatch.setattr(scores, "_BLOCK_ROWS", 7)
        for spread in (0.3, 1.5):
            data = random_labeled(rng, n_per_class=9, num_classes=4, dim=6, spread=spread)
            want = loop_silhouette(data, metric)
            # 7-row blocks, then 3-row blocks from a 108-entry budget at n = 36
            for budget in (baselines._SILHOUETTE_BLOCK_ENTRIES, 3 * data.n):
                monkeypatch.setattr(baselines, "_SILHOUETTE_BLOCK_ENTRIES", budget)
                assert silhouette(data, metric) == pytest.approx(want, abs=1e-12)

    def test_singleton_class(self):
        data = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]), [0, 0, 1], 2
        )
        with pytest.raises(SingletonClass):
            silhouette(data)

    def test_unknown_metric(self, rng):
        with pytest.raises(ConfigInvalid):
            silhouette(random_labeled(rng), "manhattan")
