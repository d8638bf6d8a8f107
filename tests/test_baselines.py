import hashlib
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
from adaptscore import baselines, embed_core
from adaptscore.embed_core import _unit_rows
from adaptscore.errors import (
    ConfigInvalid,
    DimensionMismatch,
    SingletonClass,
    TooFewClasses,
    TooFewSamples,
    ZeroVector,
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


def loop_silhouette(data):
    """The per-sample loop over a dense n x n cosine distance matrix that
    the blockwise silhouette replaced."""
    x = _unit_rows(data.embeddings.data)
    dist = np.clip(1.0 - x @ x.T, 0.0, 2.0)
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

    xa = _unit_rows(rng.standard_normal((40, 16)))
    xb = _unit_rows(rng.standard_normal((25, 16)))
    np.testing.assert_allclose(baselines.cdist(xa, xb, metric), cdist(xa, xb, metric), rtol=0, atol=1e-12)


class TestCdist:
    """Worked examples of the one pairwise primitive on unit rows."""

    @pytest.mark.parametrize(
        "u,v,expected",
        [((1, 0), (1, 0), 0.0), ((1, 0), (0, 1), 1.0), ((1, 0), (-1, 0), 2.0)],
    )
    def test_cosine_examples(self, u, v, expected):
        got = baselines.cdist(np.array([u], float), np.array([v], float), "cosine")
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "u,v,expected",
        [((1, 0), (1, 0), 0.0), ((1, 0), (0, 1), np.sqrt(2)), ((0, 1), (0, -1), 2.0)],
    )
    def test_euclidean_examples(self, u, v, expected):
        a, b = np.array([u], float), np.array([v], float)
        assert baselines.cdist(a, b, "euclidean")[0, 0] == pytest.approx(expected, abs=1e-12)
        assert baselines.cdist(a, b, "sqeuclidean")[0, 0] == pytest.approx(expected**2, abs=1e-12)

    # The Euclidean self distance is the square root of a squared distance
    # that may round to ~1e-15 (see cdist's docstring), so up to ~3e-8.
    @pytest.mark.parametrize("metric, self_atol", [("cosine", 1e-12), ("sqeuclidean", 1e-12), ("euclidean", 1e-7)])
    def test_symmetric_and_self_zero(self, rng, metric, self_atol):
        xa = _unit_rows(rng.standard_normal((12, 5)))
        xb = _unit_rows(rng.standard_normal((9, 5)))
        np.testing.assert_allclose(
            baselines.cdist(xa, xb, metric), baselines.cdist(xb, xa, metric).T, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(np.diag(baselines.cdist(xa, xa, metric)), 0.0, rtol=0, atol=self_atol)


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
        v = mmd_gaussian(s, t, MmdConfig(sigma=1.0))
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
        from scipy.spatial.distance import cdist

        for _ in range(5):
            s = EmbeddingSet(rng.standard_normal((12, 4)))
            t = EmbeddingSet(rng.standard_normal((9, 4)))
            su = _unit_rows(s.data)
            tu = _unit_rows(t.data)
            pooled = np.vstack([su, tu])
            sigma = float(np.median(cdist(pooled, pooled, "euclidean")))
            fast = mmd_gaussian(s, t, MmdConfig())
            slow = brute_force_mmd(su, tu, sigma)
            assert fast == pytest.approx(slow, abs=1e-12)

    @staticmethod
    def canonical_draws(s, t, cfg):
        """The unit rows of the documented subsample formula's draws, in
        canonical (rows, unit-row bytes) order."""

        def draw(e):
            unit = _unit_rows(e.data)
            cap = cfg.max_samples_per_domain
            if unit.shape[0] <= cap:
                return unit
            digest = hashlib.blake2b(unit.tobytes(), digest_size=8).digest()
            gen = np.random.default_rng([cfg.seed, int.from_bytes(digest, "little")])
            return unit[np.sort(gen.choice(unit.shape[0], size=cap, replace=False))]

        a, b = draw(s), draw(t)
        if (b.shape[0], b.tobytes()) < (a.shape[0], a.tobytes()):
            a, b = b, a
        return a, b

    def reference(self, s, t, cfg):
        """brute_force_mmd on the canonical draws at the fixed sigma or
        scipy's median."""
        from scipy.spatial.distance import cdist

        a, b = self.canonical_draws(s, t, cfg)
        sigma = cfg.sigma
        if sigma is None:
            pooled = np.vstack([a, b])
            sigma = float(np.median(cdist(pooled, pooled, "euclidean"))) or 1.0
        return brute_force_mmd(a, b, sigma)

    @pytest.mark.parametrize(
        "ns, nt, cfg",
        [
            (12, 9, MmdConfig()),  # pooled n odd: one middle element
            (12, 10, MmdConfig()),  # even: the mean of two
            (3, 30, MmdConfig()),  # a ends inside the first 7-row block
            (16, 23, MmdConfig(sigma=0.6)),
            (23, 31, MmdConfig(max_samples_per_domain=10, seed=4)),  # above the cap
            (31, 8, MmdConfig(max_samples_per_domain=9, seed=1)),
        ],
    )
    def test_blocks_match_brute_force(self, rng, monkeypatch, ns, nt, cfg):
        # 7-row blocks straddle the boundary between the two domains.
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        for dup in (False, True):
            x = rng.standard_normal((ns, 5))
            y = rng.standard_normal((nt, 5)) + 0.3
            if dup:  # duplicated rows inside and across the domains
                x[1::3] = x[0]
                y[::4] = x[0]
            s, t = EmbeddingSet(x), EmbeddingSet(y)
            want = self.reference(s, t, cfg)
            assert mmd_gaussian(s, t, cfg) == pytest.approx(want, abs=1e-12)
            assert mmd_gaussian(t, s, cfg) == pytest.approx(want, abs=1e-12)

    def test_median_selection_refines_large_buckets(self, rng, monkeypatch):
        # A tight cluster puts most squared distances in one first-level
        # bucket; with a small gather cap the selection must split it and
        # still return exactly the sorted values at the middle ranks.
        calls = []
        counts = baselines._bucket_counts
        monkeypatch.setattr(baselines, "_bucket_counts", lambda *a: calls.append(a) or counts(*a))
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 1)  # a 30-value gather cap
        x = rng.standard_normal((30, 4))
        x[5:] = x[0] + 1e-5 * rng.standard_normal((25, 4))
        x[20:24] = x[0]
        p = _unit_rows(x)
        values = np.sort(np.concatenate(list(baselines._upper_blocks(p, lambda _, s: s[np.isfinite(s)]))))
        assert values.shape[0] == 30 * 29 // 2
        assert np.count_nonzero(values < 2.0**-14) == 325  # [324, 325] straddles its end
        for ranks in ([100], [217, 218], [0, 1], [324, 325]):
            calls.clear()
            assert baselines._select(p, ranks) == list(values[ranks])
            assert len(calls) > 1
            assert baselines._select_windowed(p, ranks) == list(values[ranks])
        assert baselines._select(p, [434]) == [values[-1]]

    def test_finest_buckets_read_values_from_counts(self, rng, monkeypatch):
        # 40 identical rows give 780 pairs within a few ulp of 0, more than
        # the 45-value buffer holds even in one 2**-42 bucket. Their ranks
        # come from the 2**-56 bucket counts alone: every walk counts, none
        # copies values.
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 1)
        x = rng.standard_normal((45, 6))
        x[:40] = x[0]
        p = _unit_rows(x)
        values = np.sort(np.concatenate(list(baselines._upper_blocks(p, lambda _, s: s[np.isfinite(s)]))))
        assert values[779] < 2.0**-42 <= values[780]
        scales, walks = [], []
        counts = baselines._bucket_counts
        monkeypatch.setattr(baselines, "_bucket_counts", lambda *a: scales.append(a[2]) or counts(*a))
        upper = baselines._upper_blocks
        monkeypatch.setattr(baselines, "_upper_blocks", lambda p, reduce: walks.append(reduce) or upper(p, reduce))
        for ranks in ([0], [100], [389, 390], [779]):
            scales.clear()
            walks.clear()
            got = baselines._select(p, ranks)
            assert [v.tobytes() for v in got] == [v.tobytes() for v in values[ranks]], ranks
            assert scales[-1] == 2.0**56
            assert len(walks) == len(scales), ranks  # no _within walk

    def test_adjacent_ranks_in_one_bucket_share_its_walks(self, rng, monkeypatch):
        # Ranks 389 and 390 of the 40-identical-row case fall in the same
        # over-full bucket at every level, so each finer counting pass runs
        # once for both: 4 walks, as for one rank alone.
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 1)
        x = rng.standard_normal((45, 6))
        x[:40] = x[0]
        p = _unit_rows(x)
        values = np.sort(np.concatenate(list(baselines._upper_blocks(p, lambda _, s: s[np.isfinite(s)]))))
        walks = []
        counts = baselines._bucket_counts
        monkeypatch.setattr(baselines, "_bucket_counts", lambda *a: walks.append(a[1:]) or counts(*a))
        got = baselines._select(p, [389, 390])
        assert [v.tobytes() for v in got] == [v.tobytes() for v in values[[389, 390]]]
        assert len(walks) == 4, walks
        walks.clear()
        baselines._select(p, [389])
        assert len(walks) == 4, walks

    @staticmethod
    def pooled_cases(rng, d, sizes):
        """Unit rows of pooled sets of the given sizes: independent rows,
        rows duplicated across the two halves, and tight clusters."""
        for n in sizes:
            x = rng.standard_normal((n, d))
            yield _unit_rows(x)
            y = x.copy()
            y[n // 2 :: 3] = y[0]
            y[1 : n // 2 : 5] = y[n - 1]
            yield _unit_rows(y)
            y = x.copy()
            y[: n // 2] = x[0] + 1e-6 * x[: n // 2]
            y[n // 2 :] = x[1] + 1e-3 * x[n // 2 :]
            yield _unit_rows(y)

    @pytest.mark.parametrize("block_rows, sizes", [
        (128, (4, 5, 129, 600, 1_999, 2_000)),
        (7, (4, 9, 50, 301)),
        (1, (5, 6, 40)),
    ])
    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_windowed_median_matches_bucket_counts(self, rng, monkeypatch, block_rows, sizes, d):
        # Bit for bit, hit or miss: d = 1 leaves only the squared distances
        # 0 and 4, so its windows overflow or miss and fall back.
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", block_rows)
        sizes = [n for n in sizes if d > 1 or n <= 600]  # d = 1 refines its buckets slowly
        for p in self.pooled_cases(rng, d, sizes):
            n = p.shape[0]
            middle = sorted({((n * n - 1) // 2 - n) // 2, (n * n // 2 - n) // 2})
            for ranks in middle, [0], [n * (n - 1) // 2 - 1]:
                want = baselines._select(p, ranks)
                got = baselines._select_windowed(p, ranks)
                assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (n, ranks)
                if n <= 50:  # and both against the sorted values
                    walked = baselines._upper_blocks(p, lambda _, s: s[np.isfinite(s)])
                    values = np.sort(np.concatenate(list(walked)))
                    assert [v.tobytes() for v in want] == [v.tobytes() for v in values[ranks]], (n, ranks)

    @pytest.mark.parametrize("window", ["above", "below", "overflow"])
    def test_windowed_median_falls_back_exactly(self, rng, monkeypatch, window):
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 7)  # a 7 n value buffer
        p = _unit_rows(rng.standard_normal((200, 5)))
        values = np.sort(np.concatenate(list(baselines._upper_blocks(p, lambda _, s: s[np.isfinite(s)]))))
        ranks = [9_949, 9_950]
        edges = {
            "above": (values[9_960], values[9_990]),  # values below it pass rank 9,949
            "below": (values[9_900], values[9_940]),  # it ends before rank 9,950
            "overflow": (-np.inf, np.finfo(np.float64).max),  # all 19,900 values
        }[window]
        monkeypatch.setattr(baselines, "_window", lambda *_: edges)
        calls = []
        select = baselines._select
        monkeypatch.setattr(baselines, "_select", lambda *a: calls.append(a) or select(*a))
        assert baselines._select_windowed(p, ranks) == list(values[ranks])
        assert len(calls) == 1

    def test_window_walk_early_exit_cancels_later_blocks(self, rng, monkeypatch):
        # An empty window above every value: the values below it pass the
        # rank in the first block, so the walk stops there. Besides that
        # block only the ones in flight (one per worker) may have run.
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 4)  # 50 blocks
        monkeypatch.setattr(baselines, "_window", lambda *_: (np.inf, np.inf))
        monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
        p = _unit_rows(rng.standard_normal((200, 5)))
        walks = []
        upper = baselines._upper_blocks

        def spy(p, reduce):
            seen = []
            walks.append(seen)
            return upper(p, lambda lo, s: seen.append(lo) or reduce(lo, s))

        monkeypatch.setattr(baselines, "_upper_blocks", spy)
        want = baselines._select(p, [10])
        walks.clear()
        assert baselines._select_windowed(p, [10]) == want
        assert 0 in walks[0] and len(walks[0]) <= 3
        assert len(walks) > 1 and all(len(w) == 50 for w in walks[1:])  # _select's passes

    @pytest.mark.parametrize("ns, nt, cap", [(40, 40, 100), (40, 40, 30), (25, 40, 100), (40, 25, 30)])
    def test_pooled_rows_in_canonical_order(self, rng, monkeypatch, ns, nt, cap):
        # The pooled matrix is the canonical (rows, unit-row bytes) order of
        # the reference draws, whichever argument comes first.
        monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 7)  # compare and swap in 7-row blocks
        pooled = []
        upper = baselines._upper_blocks
        monkeypatch.setattr(baselines, "_upper_blocks", lambda p, reduce: pooled.append(p.copy()) or upper(p, reduce))
        x = rng.standard_normal((ns, 5))
        y = rng.standard_normal((nt, 5))
        y[:10] = x[:10]  # the halves agree in their first blocks
        cfg = MmdConfig(max_samples_per_domain=cap, seed=2)
        for s, t in ((x, y), (y, x)):
            mmd_gaussian(EmbeddingSet(s), EmbeddingSet(t), cfg)
        a, b = self.canonical_draws(EmbeddingSet(x), EmbeddingSet(y), cfg)
        for p in pooled:
            assert p.tobytes() == np.vstack([a, b]).tobytes()

    def test_median_takes_one_walk(self, rng, monkeypatch):
        # One walk selects the median and one sums the kernel.
        walks = []
        upper = baselines._upper_blocks
        monkeypatch.setattr(baselines, "_upper_blocks", lambda p, reduce: walks.append(p.shape) or upper(p, reduce))
        s = EmbeddingSet(rng.standard_normal((700, 32)))
        t = EmbeddingSet(rng.standard_normal((500, 32)) + 0.1)
        mmd_gaussian(s, t, MmdConfig())
        assert walks == [(1_200, 32)] * 2

    @pytest.mark.parametrize("cap", [10_000, 40])
    def test_symmetry_and_workers_exact(self, rng, monkeypatch, cap):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        s = EmbeddingSet(rng.standard_normal((60, 6)).astype(np.float32))
        t = EmbeddingSet(rng.standard_normal((45, 6)) + 0.1)
        cfg = MmdConfig(max_samples_per_domain=cap, seed=3)
        seen = set()
        for threads in ("1", "2"):
            monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
            seen |= {mmd_gaussian(s, t, cfg), mmd_gaussian(t, s, cfg)}
        assert len(seen) == 1

    def test_zero_row_above_cap_reported_at_lowest_index(self, monkeypatch):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        x = np.ones((40, 3))
        x[[17, 30]] = 0.0
        y = np.ones((5, 3))
        for _ in range(2):  # the source is normalized first, into the second half
            with pytest.raises(ZeroVector) as err:
                mmd_gaussian(EmbeddingSet(x), EmbeddingSet(y), MmdConfig(max_samples_per_domain=8))
            assert err.value.row_index == 17
            y[1] = 0.0

    def test_pooled_memory_is_blockwise(self, rng, monkeypatch):
        # The dense n x n form of the pooled set would take 288 MB here.
        # A block and its masks live in each worker (15.5 MB at one worker
        # and 23.0 MB at two, against a 6.1 MB block), and eight workers
        # under a two-block budget hold no more than two.
        import tracemalloc

        s = EmbeddingSet(rng.standard_normal((3000, 32)))
        t = EmbeddingSet(rng.standard_normal((3001, 32)) + 0.1)
        pooled = s.n + t.n
        block = baselines._MMD_BLOCK_ROWS * pooled * 8
        for threads, budget in (("1", None), ("2", None), ("8", 2 * block)):
            monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
            if budget:
                monkeypatch.setattr(embed_core, "_FLIGHT_BYTES", budget)
            tracemalloc.start()
            try:
                mmd_gaussian(s, t, MmdConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * block + 4 * pooled * 32 * 8, threads

    def test_fixed_sigma_walk_holds_one_block(self, rng, monkeypatch):
        # Each kernel-sum block is reduced to its three sums and dropped in
        # its worker, so one block per worker is alive: two blocks at once
        # took 13.7 MB here, one block is 6.1 MB. Eight workers under a
        # two-block budget hold two.
        import tracemalloc

        s = EmbeddingSet(rng.standard_normal((3000, 32)))
        t = EmbeddingSet(rng.standard_normal((3001, 32)) + 0.1)
        pooled = s.n + t.n
        block = baselines._MMD_BLOCK_ROWS * pooled * 8
        for threads, budget, blocks in (("1", None, 1.5), ("2", None, 2.5), ("8", 2 * block, 2.5)):
            monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
            if budget:
                monkeypatch.setattr(embed_core, "_FLIGHT_BYTES", budget)
            tracemalloc.start()
            try:
                mmd_gaussian(s, t, MmdConfig(sigma=1.0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < blocks * block + pooled * 32 * 8, threads

    def test_duplicated_rows_median_falls_back_to_unit_sigma(self):
        # Every middle pair is a duplicate; the GEMM rounds its x.x a few
        # ulp below 1, which once set sigma near 2e-8 on 7 of these pairs.
        rng = np.random.default_rng(1)
        for d in (3, 64, 512):
            for _ in range(6):
                u, v = rng.standard_normal((2, d))
                s, t = EmbeddingSet(np.tile(u, (300, 1))), EmbeddingSet(np.tile(v, (100, 1)))
                want = mmd_gaussian(s, t, MmdConfig(sigma=1.0))
                assert mmd_gaussian(s, t, MmdConfig()).hex() == want.hex(), d

    def test_pooled_rows_are_built_in_place(self, rng, monkeypatch):
        # Equal row counts order the domains by their unit-row bytes, block
        # by block in the pooled matrix: no copy of a domain or of its bytes.
        # The walks' blocks in flight come on top, one 6.1 MB block per
        # worker, so the worker count is pinned.
        import tracemalloc

        s = EmbeddingSet(rng.standard_normal((3000, 1024), dtype=np.float32))
        t = EmbeddingSet(rng.standard_normal((3000, 1024), dtype=np.float32) + 0.1)
        for threads in ("1", "2"):
            monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
            tracemalloc.start()
            try:
                mmd_gaussian(s, t, MmdConfig())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * (s.n + t.n) * 1024 * 8, threads

    def test_cap_draw_keeps_no_normalized_copy(self, rng):
        import tracemalloc

        big = EmbeddingSet(rng.standard_normal((100_000, 16)).astype(np.float32))
        small = EmbeddingSet(rng.standard_normal((50, 16)))
        tracemalloc.start()
        try:
            mmd_gaussian(big, small, MmdConfig(max_samples_per_domain=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.n * big.dim * 8 / 2

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
            MmdConfig(sigma=0.0)
        with pytest.raises(ConfigInvalid):
            MmdConfig(max_samples_per_domain=1)
        with pytest.raises(ConfigInvalid):
            MmdConfig(seed=-1)

    @pytest.mark.parametrize("bad", [
        {"sigma": float("inf")}, {"sigma": float("nan")}, {"sigma": True}, {"sigma": "1"},
        {"max_samples_per_domain": 2.5}, {"max_samples_per_domain": 100.0},
        {"max_samples_per_domain": True}, {"seed": 1.5}, {"seed": False}, {"seed": None},
    ])
    def test_non_finite_or_non_integer_config(self, bad):
        with pytest.raises(ConfigInvalid):
            MmdConfig(**bad)

    def test_integer_like_config_accepted(self):
        cfg = MmdConfig(sigma=2, max_samples_per_domain=np.int64(50), seed=np.uint8(3))
        assert (cfg.sigma, cfg.max_samples_per_domain, cfg.seed) == (2, 50, 3)


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

    def test_swap_identical_at_equal_rows(self, rng):
        # Both samples have min(n_s, n_t) rows, so the bytes of the two
        # unit-row halves decide their order (_order_halves); the source
        # half comes first, then second, below.
        firsts = set()
        for seed in range(8):
            s = EmbeddingSet(rng.standard_normal((40, 6)))
            t = EmbeddingSet(rng.standard_normal((40, 6)) + 0.3)
            firsts.add(_unit_rows(s.data).tobytes() < _unit_rows(t.data).tobytes())
            cfg = ProxyClassifierConfig(seed=seed, learning_rate=0.5)
            assert proxy_a_distance(s, t, cfg) == proxy_a_distance(t, s, cfg)
        assert firsts == {True, False}

    def test_unbalanced_domains(self):
        # 2,800 against 800 rows: a probe that calls every held-out row
        # "target" once scored 2 (1 - 2 * 400 / 1,800) = 1.111 here.
        d = 16
        iid, separable = [], []
        for seed in range(5):
            r = np.random.default_rng(seed)
            x = np.eye(d)[0] + 0.3 * r.standard_normal((3_600, d))
            cfg = ProxyClassifierConfig(seed=seed)
            iid.append(proxy_a_distance(EmbeddingSet(x[:2_800]), EmbeddingSet(x[2_800:]), cfg))
            far = EmbeddingSet(np.eye(d)[1] + 0.01 * r.standard_normal((800, d)))
            near = EmbeddingSet(np.eye(d)[0] + 0.01 * r.standard_normal((2_800, d)))
            separable.append(proxy_a_distance(near, far, cfg))
        assert np.mean(iid) <= 0.2
        assert separable == pytest.approx([2.0] * 5, abs=0.05)

    def test_lowest_source_zero_row_raised_before_target_rows(self, monkeypatch):
        # The target (fewer rows) comes first in canonical order, and its
        # row 0 is zero too.
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 4)
        s = np.ones((20, 3))
        s[[13, 17]] = 0.0
        t = np.ones((10, 3))
        t[0] = 0.0
        with pytest.raises(ZeroVector) as err:
            proxy_a_distance(EmbeddingSet(s), EmbeddingSet(t), ProxyClassifierConfig())
        assert err.value.row_index == 13

    def test_memory_is_one_training_copy_plus_blocks(self, rng):
        # The stacked copies of the whole domains would take 65 MB here.
        import tracemalloc

        s = EmbeddingSet(rng.standard_normal((3_000, 64), dtype=np.float32))
        t = EmbeddingSet(rng.standard_normal((30_000, 64), dtype=np.float32) + 0.1)
        tracemalloc.start()
        try:
            proxy_a_distance(s, t, ProxyClassifierConfig(epochs=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The pooled 2 x 3,000 unit rows, one copy of their training half,
        # plus two blocks of rows.
        assert peak < (3 * 3_000 + 2 * embed_core._BLOCK_ROWS) * s.dim * 8

    def test_memory_does_not_grow_with_the_larger_domain(self, rng):
        import tracemalloc

        s = EmbeddingSet(rng.standard_normal((3_000, 64), dtype=np.float32))
        peaks = []
        for n in (30_000, 60_000):
            t = EmbeddingSet(rng.standard_normal((n, 64), dtype=np.float32) + 0.1)
            tracemalloc.start()
            try:
                proxy_a_distance(s, t, ProxyClassifierConfig(epochs=5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.01 * peaks[0]

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

    def test_dimension_mismatch(self):
        s, t = EmbeddingSet(np.ones((4, 2))), EmbeddingSet(np.ones((4, 3)))
        with pytest.raises(DimensionMismatch):
            proxy_a_distance(s, t, ProxyClassifierConfig())

    @pytest.mark.parametrize(
        "bad", [{"epochs": 0}, {"learning_rate": 0.0}, {"learning_rate": float("nan")}, {"seed": -1}]
    )
    def test_bad_config(self, bad):
        with pytest.raises(ConfigInvalid):
            ProxyClassifierConfig(**bad)

    @pytest.mark.parametrize("bad", [
        {"learning_rate": float("inf")}, {"learning_rate": True}, {"learning_rate": None},
        {"epochs": 2.5}, {"epochs": 200.0}, {"epochs": True}, {"seed": 0.5}, {"seed": True},
    ])
    def test_non_finite_or_non_integer_config(self, bad):
        with pytest.raises(ConfigInvalid):
            ProxyClassifierConfig(**bad)

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
        assert silhouette(data) > 0.9

    def test_interleaved_identical_clusters(self, rng):
        x = rng.standard_normal((10, 5))
        data = LabeledEmbeddingSet(
            EmbeddingSet(np.vstack([x, x])), [0] * 10 + [1] * 10, 2
        )
        assert silhouette(data) <= 0.0

    def test_range(self, rng):
        for _ in range(10):
            data = random_labeled(rng, n_per_class=8, num_classes=3, dim=5, spread=1.0)
            assert -1.0 <= silhouette(data) <= 1.0

    def test_orthogonal_invariance_cosine(self, rng):
        data = random_labeled(rng, dim=6)
        base = silhouette(data)
        q = random_orthogonal(rng, 6)
        rotated = LabeledEmbeddingSet(
            EmbeddingSet(data.embeddings.data @ q.T), data.labels, data.num_classes
        )
        assert silhouette(rotated) == pytest.approx(base, abs=1e-9)

    def test_blocks_match_per_sample_loop(self, rng, monkeypatch):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        for spread in (0.3, 1.5):
            data = random_labeled(rng, n_per_class=9, num_classes=4, dim=6, spread=spread)
            assert silhouette(data) == pytest.approx(loop_silhouette(data), abs=1e-12)

    @pytest.mark.parametrize("block_rows", [1, 2])
    def test_cosine_class_sums_match_loop(self, rng, monkeypatch, block_rows):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block_rows)
        x = rng.standard_normal((12, 5))
        tied = LabeledEmbeddingSet(EmbeddingSet(np.vstack([x, x])), [0] * 12 + [1] * 12, 2)
        for data in (random_labeled(rng, n_per_class=5, num_classes=4, dim=6, spread=0.8), tied):
            assert silhouette(data) == pytest.approx(loop_silhouette(data), abs=1e-12)
        single = LabeledEmbeddingSet(
            EmbeddingSet(data.embeddings.data.astype(np.float32)), data.labels, data.num_classes
        )
        assert silhouette(single) == pytest.approx(loop_silhouette(single), abs=1e-12)

    def test_singleton_class(self):
        data = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]]), [0, 0, 1], 2
        )
        with pytest.raises(SingletonClass):
            silhouette(data)

    def test_cosine_memory_is_blocks(self, rng, monkeypatch):
        # A gather of each class's unit rows took 89 MB here. The runner's
        # byte budget admits two of the 16.8 MB unit-row blocks at once
        # however many workers there are (26.0 MB at one worker, 34.8 MB
        # at two and at eight).
        import tracemalloc

        x = rng.standard_normal((60_000, 256), dtype=np.float32)
        x[30_000:] += 0.5
        data = LabeledEmbeddingSet(EmbeddingSet(x), np.repeat([0, 1], 30_000), 2)
        for threads in ("0", "8"):
            monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
            tracemalloc.start()
            try:
                silhouette(data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * embed_core._BLOCK_ROWS * 256 * 8, threads
