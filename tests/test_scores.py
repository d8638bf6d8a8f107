import math

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    oracle_score,
    pas,
    pas_avg_pairwise,
    pas_euclidean,
    silhouette,
)
from adaptscore import embed_core
from adaptscore.errors import DimensionMismatch, LabelOutOfRange, MissingClass, TooFewClasses
from adaptscore.reporting import score_candidate
from conftest import random_labeled, random_orthogonal

COS30 = math.cos(math.radians(30))
SIN30 = math.sin(math.radians(30))
R2 = 1 / math.sqrt(2)


def axes_source():
    """Two singleton classes sitting on the coordinate axes."""
    return LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)


class TestPas:
    def test_on_centroid(self):
        assert pas(axes_source(), EmbeddingSet([[1.0, 0.0]])).value == pytest.approx(1.0)

    def test_equidistant(self):
        assert pas(axes_source(), EmbeddingSet([[R2, R2]])).value == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degrees(self):
        result = pas(axes_source(), EmbeddingSet([[COS30, SIN30]]))
        assert result.d1[0] == pytest.approx(1 - COS30, abs=1e-12)
        assert result.d2[0] == pytest.approx(0.5, abs=1e-12)
        assert result.nearest_class[0] == 0
        assert result.value == pytest.approx(0.7320508075688773, abs=1e-9)

    def test_too_few_classes(self):
        with pytest.raises(TooFewClasses):
            LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0]]), [0], 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pas(axes_source(), EmbeddingSet([[1.0, 0.0, 0.0]]))

    def test_value_is_mean_of_contributions(self, rng):
        src = random_labeled(rng, num_classes=4, dim=10)
        tgt = EmbeddingSet(rng.standard_normal((37, 10)))
        result = pas(src, tgt)
        contribs = [b.contribution for b in result.breakdown]
        assert result.value == pytest.approx(np.mean(contribs), abs=1e-9)
        assert 0.0 <= result.value <= 1.0
        for b in result.breakdown:
            assert b.d1 <= b.d2
            assert 0.0 <= b.contribution <= 1.0

    def test_orthogonal_invariance(self, rng):
        src = random_labeled(rng, dim=6)
        tgt = EmbeddingSet(rng.standard_normal((30, 6)))
        base = pas(src, tgt).value
        q = random_orthogonal(rng, 6)
        src_q = LabeledEmbeddingSet(
            EmbeddingSet(src.embeddings.data @ q.T), src.labels, src.num_classes
        )
        tgt_q = EmbeddingSet(tgt.data @ q.T)
        assert pas(src_q, tgt_q).value == pytest.approx(base, abs=1e-6)

    def test_positive_rescale_invariance(self, rng):
        src = random_labeled(rng)
        tgt = EmbeddingSet(rng.standard_normal((20, 8)))
        scales_s = rng.uniform(0.5, 4.0, size=src.n)
        scales_t = rng.uniform(0.5, 4.0, size=tgt.n)
        src2 = LabeledEmbeddingSet(
            EmbeddingSet(src.embeddings.data * scales_s[:, None]), src.labels, src.num_classes
        )
        tgt2 = EmbeddingSet(tgt.data * scales_t[:, None])
        # rescale is absorbed by normalization
        assert pas(src2, tgt2).value == pytest.approx(pas(src, tgt).value, abs=1e-12)

    def test_power_of_two_rescale_bit_exact(self, rng):
        src = random_labeled(rng)
        tgt = EmbeddingSet(rng.standard_normal((20, 8)))
        ss = 2.0 ** rng.integers(-2, 3, size=src.n).astype(np.float64)
        st = 2.0 ** rng.integers(-2, 3, size=tgt.n).astype(np.float64)
        src2 = LabeledEmbeddingSet(
            EmbeddingSet(src.embeddings.data * ss[:, None]), src.labels, src.num_classes
        )
        tgt2 = EmbeddingSet(tgt.data * st[:, None])
        assert pas(src2, tgt2).value == pas(src, tgt).value

    def test_streaming_min_tracking_matches_sort(self, rng):
        """Single-pass min/second-min equals the two head entries of the
        sorted distance list, exactly, per sample."""
        src = random_labeled(rng, num_classes=6, dim=5)
        tgt = EmbeddingSet(rng.standard_normal((25, 5)))
        result = pas(src, tgt)
        # The reference in numpy alone: unit rows, np.add.at class sums in
        # row order, unit centroids.
        x, tdata = src.embeddings.data, tgt.data
        x = x / np.linalg.norm(x, axis=1)[:, None]
        tdata = tdata / np.linalg.norm(tdata, axis=1)[:, None]
        sums = np.zeros((6, x.shape[1]))
        np.add.at(sums, src.labels, x)
        cent = sums / np.linalg.norm(sums, axis=1)[:, None]
        dist_matrix = np.clip(1.0 - tdata @ cent.T, 0.0, 2.0)
        for i, b in enumerate(result.breakdown):
            dists = dist_matrix[i]
            m1, m2 = np.inf, np.inf
            for v in dists:
                if v < m1:
                    m1, m2 = v, m1
                elif v < m2:
                    m2 = v
            srt = np.sort(dists)
            assert m1 == srt[0] and m2 == srt[1]
            assert b.d1 == srt[0] and b.d2 == srt[1]

    def test_tie_breaks_to_lowest_class_id(self):
        src = axes_source()
        result = pas(src, EmbeddingSet([[R2, R2]]))
        assert result.nearest_class[0] == 0
        assert result.contribution[0] == 0.0

    def test_memory_is_blocks_not_copies(self, monkeypatch):
        # One float64 copy of the 60,000 x 256 source would take 123 MB.
        import tracemalloc

        monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
        x = np.random.default_rng(3).standard_normal((60_000, 256), dtype=np.float32)
        x[30_000:] += 0.5
        src = LabeledEmbeddingSet(EmbeddingSet(x), np.repeat([0, 1], 30_000), 2)
        tracemalloc.start()
        try:
            pas(src, src.embeddings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two workers' unit-row blocks plus one gathered class-sum slice.
        assert peak < 3 * embed_core._BLOCK_ROWS * 256 * 8


class TestPasEuclidean:
    def test_on_centroid(self):
        assert pas_euclidean(axes_source(), EmbeddingSet([[1.0, 0.0]])).value == pytest.approx(1.0)

    def test_equidistant(self):
        v = pas_euclidean(axes_source(), EmbeddingSet([[R2, R2]])).value
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_thirty_degrees(self):
        result = pas_euclidean(axes_source(), EmbeddingSet([[COS30, SIN30]]))
        assert result.d1[0] == pytest.approx(math.sqrt(2 - 2 * COS30), abs=1e-9)
        assert result.d2[0] == pytest.approx(1.0, abs=1e-9)
        assert result.value == pytest.approx(0.48236190979, abs=1e-9)


class TestPasAvgPairwise:
    def test_equals_pas_for_singleton_classes(self, rng):
        src = random_labeled(rng, n_per_class=1, num_classes=5, dim=7)
        tgt = EmbeddingSet(rng.standard_normal((15, 7)))
        a = pas(src, tgt).value
        b = pas_avg_pairwise(src, tgt).value
        assert b == pytest.approx(a, abs=1e-9)

    def test_hand_fixture(self):
        src = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), [0, 1, 1], 2
        )
        result = pas_avg_pairwise(src, EmbeddingSet([[1.0, 0.0]]))
        assert result.d1[0] == pytest.approx(0.0, abs=1e-12)
        assert result.d2[0] == pytest.approx(1.5, abs=1e-12)
        assert result.value == pytest.approx(1.0, abs=1e-12)

    def test_equidistant_mean(self):
        src = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2
        )
        v = pas_avg_pairwise(src, EmbeddingSet([[R2, R2]])).value
        assert v == pytest.approx(0.0, abs=1e-12)


class TestOracle:
    def test_on_true_centroid(self):
        tgt = LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0]]), [0], 2, require_all_classes=False)
        assert oracle_score(axes_source(), tgt).value == pytest.approx(1.0)

    def test_thirty_degrees_wrong_label(self):
        tgt = LabeledEmbeddingSet(
            EmbeddingSet([[COS30, SIN30]]), [1], 2, require_all_classes=False
        )
        assert oracle_score(axes_source(), tgt).value == pytest.approx(-0.7320508075688773, abs=1e-9)

    def test_thirty_degrees_right_label_equals_pas(self):
        tgt_l = LabeledEmbeddingSet(
            EmbeddingSet([[COS30, SIN30]]), [0], 2, require_all_classes=False
        )
        o = oracle_score(axes_source(), tgt_l).value
        p = pas(axes_source(), EmbeddingSet([[COS30, SIN30]])).value
        assert o == p

    def test_label_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]), [0, 5], 2)

    @pytest.mark.parametrize("labels, first_bad", [([0, 2], 2), ([3, 2], 3), ([-1, 2], -1)])
    def test_target_label_beyond_source_classes(self, labels, first_bad):
        # The source has 2 classes. The oracle names the first bad label
        # as a LabeledEmbeddingSet over those classes does, whether the
        # labels come as a set over more classes (valid for labels >= 0)
        # or as the raw array that score and rank pass.
        emb = EmbeddingSet([[1.0, 0.0], [0.0, 1.0]])
        raised = []
        with pytest.raises(LabelOutOfRange) as err:
            LabeledEmbeddingSet(emb, labels, 2, require_all_classes=False)
        raised.append(err.value)
        with pytest.raises(LabelOutOfRange) as err:
            score_candidate(axes_source(), emb, {"oracle": None}, np.array(labels))
        raised.append(err.value)
        if first_bad >= 0:
            with pytest.raises(LabelOutOfRange) as err:
                oracle_score(axes_source(), LabeledEmbeddingSet(emb, labels, 4, require_all_classes=False))
            raised.append(err.value)
        assert [(e.label, e.num_classes) for e in raised] == [(first_bad, 2)] * len(raised)

    def test_oracle_bounded_by_pas(self, rng):
        src = random_labeled(rng, num_classes=5, dim=16)
        tgt = random_labeled(rng, num_classes=5, dim=16, spread=0.8)
        p = pas(src, tgt.embeddings)
        o = oracle_score(src, tgt)
        for pb, ob in zip(p.breakdown, o.breakdown):
            assert ob.contribution <= pb.contribution
            if pb.nearest_class == tgt.labels[pb.sample_index]:
                assert ob.contribution == pb.contribution
            assert -1.0 <= ob.contribution <= 1.0


@pytest.mark.parametrize("score", [
    lambda s, t: pas(s, t.embeddings),
    lambda s, t: pas_euclidean(s, t.embeddings),
    lambda s, t: pas_avg_pairwise(s, t.embeddings),
    oracle_score,
    lambda s, t: silhouette(s),
], ids=["pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "silhouette"])
def test_source_without_a_class_raises_missing_class(score):
    # Classes 1 and 3 of 4 have no source row. Unchecked, their empty sums
    # read as a zero centroid, a 0/0 mean or a singleton class.
    x = EmbeddingSet([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    src = LabeledEmbeddingSet(x, [0, 0, 2, 2], 4, require_all_classes=False)
    tgt = LabeledEmbeddingSet(x, [0, 2, 2, 0], 4, require_all_classes=False)
    with pytest.raises(MissingClass) as err:
        score(src, tgt)
    assert err.value.class_id == 1
