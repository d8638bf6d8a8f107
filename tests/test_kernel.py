"""The PAS-family block kernel against a reference that normalizes the whole
source and target first, sums the classes with np.add.at and then applies
the top-2 and oracle rules block by block, and the lazy breakdown sequence
over the result columns."""

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    PerSampleBreakdown,
    oracle_score,
    pas,
    pas_avg_pairwise,
    pas_euclidean,
)
from adaptscore import embed_core
from adaptscore.baselines import (
    MmdConfig,
    ProxyClassifierConfig,
    mmd_gaussian,
    proxy_a_distance,
    silhouette,
)
from adaptscore.embed_core import _unit_rows
from adaptscore.errors import ZeroVector
from conftest import random_labeled

BLOCK = 7
N_TARGET = 40  # six blocks of BLOCK rows


def _reference_columns(tgt_unit, rows, dist_kind, true_labels=None):
    n = tgt_unit.shape[0]
    d1, d2 = np.empty(n), np.empty(n)
    nearest = np.empty(n, dtype=np.int64)
    contrib = np.empty(n)
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        sims = tgt_unit[lo:hi] @ rows.T
        if dist_kind == "cosine":
            dist = np.clip(1.0 - sims, 0.0, 2.0)
        else:
            dist = np.sqrt(np.clip(2.0 - 2.0 * sims, 0.0, None))
        nearest[lo:hi] = dist.argmin(axis=1)
        if true_labels is None:
            part = np.partition(dist, 1, axis=1)
            b1, b2 = part[:, 0], part[:, 1]
            out = np.zeros(hi - lo)
            nz = b2 > 0.0
            out[nz] = (b2[nz] - b1[nz]) / b2[nz]
        else:
            idx = np.arange(hi - lo)
            true = true_labels[lo:hi]
            b1 = dist[idx, true]
            masked = dist.copy()
            masked[idx, true] = np.inf
            b2 = masked.min(axis=1)
            denom = np.maximum(b1, b2)
            out = np.zeros(hi - lo)
            nz = denom > 0.0
            out[nz] = (b2[nz] - b1[nz]) / denom[nz]
        d1[lo:hi], d2[lo:hi], contrib[lo:hi] = b1, b2, out
    return d1, d2, nearest, contrib


def _unit(x):
    """Whole-matrix unit rows, np.linalg.norm's arithmetic in float64."""
    x = x.astype(np.float64)
    return x / np.linalg.norm(x, axis=1)[:, None]


def _reference(method, source, target, target_labels=None):
    sums = np.zeros((source.num_classes, source.dim))
    np.add.at(sums, source.labels, _unit(source.embeddings.data))
    if method == "pas_avg_pairwise":
        rows = sums / np.bincount(source.labels, minlength=source.num_classes)[:, None]
    else:
        rows = sums / np.linalg.norm(sums, axis=1)[:, None]
    kind = "euclidean" if method == "pas_euclidean" else "cosine"
    columns = _reference_columns(_unit(target.data), rows, kind, target_labels)
    return float(np.sum(columns[3]) / target.n), columns


def _assert_matches_reference(pair, method):
    source, target = pair
    if method == "oracle":
        result = oracle_score(source, target)
        want_value, want = _reference(method, source, target.embeddings, target.labels)
    else:
        fn = {"pas": pas, "pas_euclidean": pas_euclidean, "pas_avg_pairwise": pas_avg_pairwise}
        result = fn[method](source, target.embeddings)
        want_value, want = _reference(method, source, target.embeddings)
    assert result.value == want_value
    for got_col, want_col in zip(result.breakdown_arrays(), want):
        np.testing.assert_array_equal(got_col, want_col, strict=True)


@pytest.fixture
def pair(rng):
    source = random_labeled(rng, num_classes=5, dim=9, spread=0.6)
    target = random_labeled(rng, n_per_class=8, num_classes=5, dim=9, spread=0.9)
    assert target.n == N_TARGET
    return source, target


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle"])
def test_kernel_bit_identical_to_reference(pair, method, threads, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    _assert_matches_reference(pair, method)


@pytest.mark.parametrize("chunk_entries", [15, 27], ids=["tail-3-rows", "normalize-3-rows"])
@pytest.mark.parametrize("method", ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle"])
def test_small_chunks_bit_identical_to_reference(pair, method, chunk_entries, monkeypatch):
    """Chunks of 15 entries cut the 5-class distance matrix into 3-row
    chunks (and the 9-d rows into 1-row ones); 27 entries give 3-row
    normalization chunks. Neither may change a bit."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setattr(embed_core, "_CHUNK_ENTRIES", chunk_entries)
    _assert_matches_reference(pair, method)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_zero_rows_in_two_blocks_raise_at_the_lower_index(pair, threads, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    source, target = pair
    data = target.embeddings.data.copy()
    data[[2 * BLOCK + 3, 4 * BLOCK + 1]] = 0.0
    with pytest.raises(ZeroVector) as info:
        pas(source, EmbeddingSet(data))
    assert info.value.row_index == 2 * BLOCK + 3


@pytest.mark.parametrize("threads", ["1", "2"])
def test_float32_storage_bit_identical_to_float64(pair, threads, monkeypatch):
    """float32 data stays float32 in an EmbeddingSet; every scorer and
    baseline widens it before its arithmetic, so it gives the same bits as
    the same values stored as float64."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    source, target = pair

    def sets(dtype):
        src = EmbeddingSet(source.embeddings.data.astype(np.float32).astype(dtype))
        tgt = EmbeddingSet(target.embeddings.data.astype(np.float32).astype(dtype))
        assert src.data.dtype == tgt.data.dtype == dtype
        labeled_src = LabeledEmbeddingSet(src, source.labels, source.num_classes)
        labeled_tgt = LabeledEmbeddingSet(tgt, target.labels, target.num_classes)
        return labeled_src, labeled_tgt

    def outputs(dtype):
        src, tgt = sets(dtype)
        results = [fn(src, tgt.embeddings) for fn in (pas, pas_euclidean, pas_avg_pairwise)]
        results.append(oracle_score(src, tgt))
        out = {r.method: (r.value, *r.breakdown_arrays()) for r in results}
        out["unit_rows"] = (_unit_rows(tgt.embeddings.data),)
        out["mmd"] = tuple(
            mmd_gaussian(src.embeddings, tgt.embeddings, MmdConfig(max_samples_per_domain=cap))
            for cap in (10_000, 30)
        )
        out["adist"] = (
            proxy_a_distance(src.embeddings, tgt.embeddings, ProxyClassifierConfig(epochs=20)),
        )
        out["silhouette"] = (silhouette(src),)
        return out

    got, want = outputs(np.float32), outputs(np.float64)
    assert got.keys() == want.keys()
    for name in want:
        for g, w in zip(got[name], want[name]):
            np.testing.assert_array_equal(g, w, strict=True, err_msg=name)


class TestBreakdownSequence:
    @pytest.fixture
    def result(self, pair):
        source, target = pair
        return pas(source, target.embeddings)

    def test_len_index_and_iteration_agree_with_columns(self, result):
        d1, d2, nearest, contrib = result.breakdown_arrays()
        items = list(result.breakdown)
        assert len(result.breakdown) == len(items) == result.n_target
        for i, b in enumerate(items):
            assert b == PerSampleBreakdown(
                i, float(d1[i]), float(d2[i]), int(nearest[i]), float(contrib[i])
            )
            assert result.breakdown[i] == b
            assert type(b.nearest_class) is int and type(b.d1) is float

    def test_negative_index_and_slice(self, result):
        bd = result.breakdown
        n = len(bd)
        assert bd[-1] == bd[n - 1] and bd[-1].sample_index == n - 1
        assert bd[-n] == bd[0]
        assert bd[3:9:2] == [bd[3], bd[5], bd[7]]
        assert bd[-2:] == [bd[n - 2], bd[n - 1]]
        assert bd[5:2] == []

    def test_out_of_range_raises_index_error(self, result):
        n = len(result.breakdown)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                result.breakdown[i]

    def test_columns_are_read_only(self, result):
        for column in result.breakdown_arrays():
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(TypeError):
            result.breakdown[0] = None
