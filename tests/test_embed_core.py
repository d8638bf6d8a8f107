import re

import numpy as np
import pytest

from adaptscore import EmbeddingSet, LabeledEmbeddingSet
from adaptscore import embed_core
from adaptscore.embed_core import _centroid_table, _class_sums, _unit_rows
from adaptscore.errors import (
    DegenerateClass,
    FormatError,
    MissingClass,
    NonFiniteValue,
    ZeroVector,
)
from adaptscore.formats import save_labels
from conftest import random_labeled, random_orthogonal


class TestUnitNormalize:
    """_unit_rows, the one normalizer."""

    def test_three_four_five(self):
        out = _unit_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_already_unit(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(_unit_rows(x), x)

    def test_zero_row(self):
        with pytest.raises(ZeroVector) as exc:
            _unit_rows(np.array([[0.0, 0.0]]))
        assert exc.value.row_index == 0

    def test_idempotent(self, rng):
        once = _unit_rows(rng.standard_normal((50, 7)))
        twice = _unit_rows(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)


def _centroids(s: LabeledEmbeddingSet) -> np.ndarray:
    """The centroid table that the PAS kernel builds for source `s`."""
    return _centroid_table(_class_sums(s.embeddings, s.labels, s.num_classes))


class TestClassCentroids:
    def test_symmetric_pair(self):
        s = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            [0, 0, 1, 1],
            2,
        )
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(_centroids(s)[0], [r, r], atol=1e-12)

    def test_identical_members(self):
        s = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), [0, 0, 1], 2
        )
        np.testing.assert_allclose(_centroids(s)[0], [1, 0])

    def test_antipodal_cancellation(self):
        s = LabeledEmbeddingSet(
            EmbeddingSet([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), [0, 0, 1], 2
        )
        with pytest.raises(DegenerateClass) as exc:
            _centroids(s)
        assert exc.value.class_id == 0

    def test_missing_class_at_construction(self):
        with pytest.raises(MissingClass):
            LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0]]), [0], 2)

    @pytest.mark.parametrize("labels, num_classes, missing", [
        ([0, 2, 3], 4, 1),
        ([1, 0, 1], 3, 2),
        # a corrupt label file: no per-class array of 2**32 entries is built
        ([0, 1, 2**32 - 1], 2**32, 2),
    ])
    def test_missing_class_is_the_lowest_absent_id(self, labels, num_classes, missing):
        with pytest.raises(MissingClass) as info:
            LabeledEmbeddingSet(EmbeddingSet(np.eye(3)), labels, num_classes)
        assert info.value.class_id == missing

    def test_unit_norm_rows(self, rng):
        norms = np.linalg.norm(_centroids(random_labeled(rng)), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_orthogonal_commutes(self, rng):
        s = random_labeled(rng, dim=6)
        q = random_orthogonal(rng, 6)
        rotated = LabeledEmbeddingSet(EmbeddingSet(s.embeddings.data @ q.T), s.labels, s.num_classes)
        np.testing.assert_allclose(_centroids(rotated), _centroids(s) @ q.T, atol=1e-6)

    def test_two_zero_sum_classes_name_the_lower(self):
        s = LabeledEmbeddingSet(
            EmbeddingSet([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [0.0, -1.0]]),
            [0, 3, 3, 1, 1, 2],
            4,
        )
        with pytest.raises(DegenerateClass) as exc:
            _centroids(s)
        assert exc.value.class_id == 1

    @staticmethod
    def _linalg_centroids(sums):
        """The reference: np.linalg.norm's unit rows, and DegenerateClass
        at the lowest class with norm <= EPS_NORM."""
        norms = np.linalg.norm(sums, axis=1)
        small = norms <= embed_core.EPS_NORM
        if small.any():
            raise DegenerateClass(int(np.argmax(small)))
        return sums / norms[:, None]

    def test_unit_scaling_matches_the_norm_arithmetic(self):
        rng = np.random.default_rng(2024)
        for k in range(60):
            c, d = int(rng.integers(2, 400)), int(rng.integers(1, 1001))
            sums = rng.standard_normal((c, d)) * 10.0 ** rng.uniform(-5, 5, (c, 1))
            if k % 3 == 0:  # a few degenerate classes, one at the threshold's scale
                sums[rng.integers(0, c, 2)] *= 10.0 ** rng.choice([-9, -30, -400], 2)[:, None]
            try:
                want = self._linalg_centroids(sums)
            except DegenerateClass as exc:
                with pytest.raises(DegenerateClass) as got:
                    _centroid_table(sums)
                assert got.value.class_id == exc.class_id, (c, d)
            else:
                assert _centroid_table(sums).tobytes() == want.tobytes(), (c, d)

    def test_per_sample_scale_absorbed(self, rng):
        s = random_labeled(rng)
        scales = rng.uniform(0.1, 10.0, size=s.n)
        scaled = LabeledEmbeddingSet(
            EmbeddingSet(s.embeddings.data * scales[:, None]), s.labels, s.num_classes
        )
        np.testing.assert_allclose(_centroids(s), _centroids(scaled), atol=1e-12)


def _add_at_sums(x, labels, num_classes):
    """The sequential reference: np.add.at over the unit rows in row order."""
    sums = np.zeros((num_classes, x.shape[1]))
    np.add.at(sums, labels, _unit_rows(x))
    return sums


class TestClassSums:
    """_class_sums walks each block's rows in label order, carrying the
    sums from block to block, yet each class sum must carry np.add.at's
    row-order bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 2, 7, 64])
    def test_bit_identical_to_add_at(self, rng, dtype, dim):
        for _ in range(40):
            num_classes = int(rng.integers(2, 6))
            n = int(rng.integers(num_classes, 120))
            labels = rng.integers(0, num_classes, n)  # interleaved, some classes may be empty
            x = (rng.standard_normal((n, dim)) * rng.uniform(0.1, 1e3)).astype(dtype)
            got = _class_sums(EmbeddingSet(x), labels, num_classes)
            np.testing.assert_array_equal(got, _add_at_sums(x, labels, num_classes), strict=True)

    def test_class_spanning_several_slices(self, rng, monkeypatch):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 7)
        labels = np.concatenate([np.zeros(30, dtype=np.int64), rng.integers(0, 3, 40), [2] * 11])
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((labels.shape[0], 5)).astype(dtype)
            got = _class_sums(EmbeddingSet(x), labels, 3)
            np.testing.assert_array_equal(got, _add_at_sums(x, labels, 3), strict=True)

    @pytest.mark.parametrize("block", [2, 8192])
    def test_lowest_zero_row_when_label_order_reverses_row_order(self, rng, monkeypatch, block):
        monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
        x = rng.standard_normal((6, 3))
        labels = np.array([1, 0, 1, 1, 0, 0])
        x[[2, 4]] = 0.0  # row 2 is in class 1, row 4 in class 0, which is visited first
        with pytest.raises(ZeroVector) as info:
            _class_sums(EmbeddingSet(x), labels, 2)
        assert info.value.row_index == 2

    def test_degenerate_class_unchanged(self):
        s = LabeledEmbeddingSet(
            EmbeddingSet([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0], [-1.0, -1.0]]),
            [0, 1, 0, 1, 2, 2],
            3,
        )
        with pytest.raises(DegenerateClass) as info:
            _centroids(s)
        assert info.value.class_id == 1


class TestContainers:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            EmbeddingSet([[1.0, np.nan]])

    def test_nonfinite_names_the_first_entry_in_row_major_order(self):
        with pytest.raises(NonFiniteValue) as info:
            EmbeddingSet([[1.0, 2.0, 3.0], [4.0, 5.0, np.inf], [np.nan, 0.0, 0.0]])
        assert (info.value.row, info.value.col) == (1, 2)
        assert isinstance(info.value, FormatError) and isinstance(info.value, ValueError)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmbeddingSet(np.empty((0, 3)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_rejects_a_non_matrix(self, shape):
        with pytest.raises(ValueError, match=f"expected a 2-D matrix, got ndim={len(shape)}"):
            EmbeddingSet(np.ones(shape))

    @pytest.mark.parametrize(
        "labels",
        [
            [0.5, 1.7, 2.9],
            [0.0, np.nan, 1.0],
            [0.0, np.inf, 1.0],
            ["0", "1", "2"],
            np.array([0, 2**63 + 5, 1], dtype=np.uint64),  # not wrapped to a negative label
        ],
    )
    def test_non_integral_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="not .*int64 integer"):
            LabeledEmbeddingSet(EmbeddingSet(np.eye(3)), labels, 3)

    def test_integral_float_labels_accepted(self):
        s = LabeledEmbeddingSet(EmbeddingSet(np.eye(3)), [0.0, 1.0, 2.0], 3)
        assert s.labels.dtype == np.int64 and s.labels.tolist() == [0, 1, 2]

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0]]), [0, 1], 2)

    def test_labels_must_be_1d(self, tmp_path):
        message = re.escape("labels must be 1-D, got shape (3, 1)")
        with pytest.raises(ValueError, match=message):
            LabeledEmbeddingSet(EmbeddingSet(np.eye(3)), [[0], [1], [2]], 3)
        with pytest.raises(ValueError, match=message):
            save_labels(tmp_path / "l.plbl", [[0], [1], [2]])
