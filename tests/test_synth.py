from dataclasses import asdict

import numpy as np
import pytest

from adaptscore import (
    SynthConfig,
    generate_pair,
    nearest_centroid_accuracy,
    pas,
)
from adaptscore.errors import ConfigInvalid
from adaptscore.synth import _orthonormal_means


def cfg(**kw):
    base = dict(num_classes=4, dim=8, n_source_per_class=20, n_target_per_class=20,
                intra_spread=0.2, shift=0.3, seed=7)
    base.update(kw)
    return SynthConfig(**base)


class TestGeneratePair:
    def test_deterministic(self):
        s1, t1 = generate_pair(cfg())
        s2, t2 = generate_pair(cfg())
        np.testing.assert_array_equal(s1.embeddings.data, s2.embeddings.data)
        np.testing.assert_array_equal(t1.embeddings.data, t2.embeddings.data)
        np.testing.assert_array_equal(s1.labels, s2.labels)

    def test_zero_noise_two_distinct_rows(self):
        s, t = generate_pair(cfg(num_classes=2, dim=2, intra_spread=0.0, shift=0.0))
        assert len(np.unique(s.embeddings.data, axis=0)) == 2
        assert len(np.unique(t.embeddings.data, axis=0)) == 2

    def test_zero_shift_gives_highest_pas(self):
        values = []
        for sh in (0.0, 0.3, 0.6):
            s, t = generate_pair(cfg(intra_spread=0.0, shift=sh))
            values.append(pas(s, t.embeddings).value)
        assert values[0] == max(values)
        assert values[0] == pytest.approx(1.0)

    def test_config_validation(self):
        with pytest.raises(ConfigInvalid):
            cfg(num_classes=1)
        with pytest.raises(ConfigInvalid):
            cfg(intra_spread=-0.1)
        with pytest.raises(ConfigInvalid):
            cfg(n_target_per_class=0)
        with pytest.raises(ConfigInvalid, match="seed must be >= 0"):
            cfg(seed=-1)
        with pytest.raises(ConfigInvalid, match="target_spread must be >= 0"):
            cfg(target_spread=-0.1)
        for key in ("intra_spread", "shift", "target_spread"):
            for value in (float("nan"), float("inf"), -float("inf")):
                with pytest.raises(ConfigInvalid):
                    cfg(**{key: value})

    def test_config_round_trips_through_dict(self):
        c = cfg(target_spread=0.5)
        assert SynthConfig.from_dict(asdict(c)) == c

    def test_more_classes_than_dims_supported(self):
        s, t = generate_pair(cfg(num_classes=10, dim=4))
        assert s.num_classes == 10

    def test_redrawn_direction_is_projected(self):
        """A direction that Gram-Schmidt leaves at norm < 1e-9 is redrawn,
        and each redraw is projected against the earlier directions until
        its norm clears 1e-9: here the second row repeats the first, and
        the first redraw repeats it too."""
        real = np.random.default_rng(3)
        first = real.standard_normal(5)
        redraws = [first]

        class Repeating:
            def standard_normal(self, shape):
                if shape == (3, 5):
                    return np.stack([first, first, real.standard_normal(5)])
                return redraws.pop() if redraws else real.standard_normal(shape)

        q = _orthonormal_means(Repeating(), 3, 5)
        np.testing.assert_allclose(q @ q.T, np.eye(3), rtol=0, atol=1e-12)


class TestNearestCentroidAccuracy:
    def test_perfect_at_zero_shift_zero_spread(self):
        s, t = generate_pair(cfg(intra_spread=0.0, shift=0.0))
        assert nearest_centroid_accuracy(s, t) == 1.0

    def test_derangement_all_wrong(self):
        from adaptscore import EmbeddingSet, LabeledEmbeddingSet

        s, t = generate_pair(cfg(num_classes=2, intra_spread=0.0, shift=0.0))
        wrong = LabeledEmbeddingSet(t.embeddings, 1 - t.labels, 2)
        assert nearest_centroid_accuracy(s, wrong) == 0.0

    def test_monotone_in_shift(self):
        accs = []
        for sh in np.linspace(0.0, 0.9, 10):
            s, t = generate_pair(
                SynthConfig(10, 32, 100, 100, intra_spread=0.3, shift=float(sh), seed=5)
            )
            accs.append(nearest_centroid_accuracy(s, t))
        inversions = [accs[i + 1] - accs[i] for i in range(9) if accs[i + 1] > accs[i]]
        assert len(inversions) <= 1
        assert all(v < 0.02 for v in inversions)

    def test_asymmetry_witness(self):
        c = SynthConfig(5, 16, 100, 100, intra_spread=0.05, shift=0.2, seed=9,
                        target_spread=0.8)
        a, b = generate_pair(c)
        forward = pas(a, b.embeddings).value
        backward = pas(b, a.embeddings).value
        assert abs(forward - backward) > 0.05
