"""Seeded synthetic domain-shift generator and a nearest-centroid accuracy
oracle for desk-scale validation."""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields

import numpy as np

from .embed_core import EmbeddingSet, LabeledEmbeddingSet, _unit_rows
from .errors import ConfigInvalid, check_fields
from .scores import pas


@dataclass(frozen=True)
class SynthConfig:
    num_classes: int
    dim: int
    n_source_per_class: int
    n_target_per_class: int
    intra_spread: float = 0.1
    shift: float = 0.0
    seed: int = 0
    # Optional distinct target spread; None means intra_spread. Unequal
    # spreads give an asymmetric source/target pair.
    target_spread: float | None = None

    def __post_init__(self):
        spreads = ("intra_spread", "shift") + (() if self.target_spread is None else ("target_spread",))
        check_fields(self, ("num_classes", "dim", "n_source_per_class", "n_target_per_class", "seed"), spreads)
        if self.num_classes < 2 or self.dim < 2:
            raise ConfigInvalid("need num_classes >= 2 and dim >= 2")
        if self.n_source_per_class < 1 or self.n_target_per_class < 1:
            raise ConfigInvalid("per-class sample counts must be >= 1")
        if self.seed < 0:
            raise ConfigInvalid("seed must be >= 0")
        if self.intra_spread < 0 or self.shift < 0:
            raise ConfigInvalid("intra_spread and shift must be >= 0")
        if self.target_spread is not None and self.target_spread < 0:
            raise ConfigInvalid("target_spread must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """The config of a JSON object; ConfigInvalid for a non-object or an
        unknown or missing key."""
        if not isinstance(d, dict):
            raise ConfigInvalid("a synth config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if unknown or missing:
            raise ConfigInvalid(f"synth config: unknown keys {unknown}, missing keys {missing}")
        return cls(**d)


def _orthonormal_means(rng, num_classes: int, dim: int):
    """Seeded class directions: Gram-Schmidt when C <= d, otherwise uniform
    sphere draws."""
    raw = rng.standard_normal((num_classes, dim))
    if num_classes <= dim:
        q = np.empty_like(raw)
        for i in range(num_classes):
            v = raw[i].copy()
            while True:
                for j in range(i):
                    v -= (v @ q[j]) * q[j]
                n = np.linalg.norm(v)
                if n >= 1e-9:
                    break
                v = rng.standard_normal(dim)  # astronomically unlikely; redraw direction
            q[i] = v / n
        return q
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    return raw / norms


def _rotation_plane(rng, dim: int):
    """Orthonormal (u, v) spanning a seeded random 2-plane."""
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(dim)
    v -= (v @ u) * u
    v /= np.linalg.norm(v)
    return u, v


def _rotate(x: np.ndarray, u: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    cu = x @ u
    cv = x @ v
    c, s = np.cos(angle), np.sin(angle)
    return (
        x
        + np.outer(cu * (c - 1.0) - cv * s, u)
        + np.outer(cu * s + cv * (c - 1.0), v)
    )


def generate_pair(cfg: SynthConfig):
    """One labeled (source, target) pair under a seeded covariate shift.

    Class means are seeded near-orthogonal directions. Source samples are
    mean + isotropic noise, unit-normalized. Target class means are the
    source means rotated by cfg.shift radians in a seeded random 2-plane
    plus per-class jitter of the same magnitude; samples then get their own
    noise and normalization. Deterministic for a fixed config.
    """
    rng = np.random.default_rng(cfg.seed)
    means = _orthonormal_means(rng, cfg.num_classes, cfg.dim)
    u, v = _rotation_plane(rng, cfg.dim)
    jitter = rng.standard_normal((cfg.num_classes, cfg.dim))
    jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
    target_means = _rotate(means, u, v, cfg.shift) + cfg.shift * jitter

    tgt_spread = cfg.intra_spread if cfg.target_spread is None else cfg.target_spread
    halves = ((means, cfg.n_source_per_class, cfg.intra_spread), (target_means, cfg.n_target_per_class, tgt_spread))
    out = []
    for class_means, n_per_class, spread in halves:
        rows = [class_means[c] + spread * rng.standard_normal((n_per_class, cfg.dim)) for c in range(cfg.num_classes)]
        labels = np.repeat(np.arange(cfg.num_classes, dtype=np.int64), n_per_class)
        out.append(LabeledEmbeddingSet(EmbeddingSet(_unit_rows(np.vstack(rows))), labels, cfg.num_classes))
    return tuple(out)


def nearest_centroid_accuracy(source: LabeledEmbeddingSet, target: LabeledEmbeddingSet) -> float:
    """Fraction of target samples whose nearest source-class centroid (by
    cosine distance, lowest class id on ties) is their true class: PAS's
    nearest-class column against the target labels."""
    return float(np.mean(pas(source, target.embeddings).nearest_class == target.labels))
