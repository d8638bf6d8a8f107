"""Pre-adaptation transferability scoring over embedding files.

The public names below load their module on first use (PEP 562), so
`import adaptscore` loads no numpy and the CLI parses its arguments before
any of it loads.
"""

import importlib

__version__ = "0.1.0"

# Each module whose names the package serves, with those names. A module
# named here is also served as an attribute.
_EXPORTS = {
    "embed_core": ("EmbeddingSet", "LabeledEmbeddingSet", "CentroidTable"),
    "scores": ("PerSampleBreakdown", "ScoreResult", "pas", "pas_euclidean", "pas_avg_pairwise", "oracle_score"),
    "baselines": ("MmdConfig", "ProxyClassifierConfig", "mmd_gaussian", "proxy_a_distance", "silhouette"),
    "corr": ("pearson", "spearman", "rank_candidates"),
    "evaluation": ("SubsampleStudyResult", "subsample_study"),
    "synth": ("SynthConfig", "generate_pair", "nearest_centroid_accuracy"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
