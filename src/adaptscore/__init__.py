"""Pre-adaptation transferability scoring over embedding files."""

__version__ = "0.1.0"

from .embed_core import (  # noqa: F401
    EmbeddingSet,
    LabeledEmbeddingSet,
    CentroidTable,
    unit_normalize,
    cosine_distance,
    euclidean_distance,
    class_centroids,
)
from .scores import (  # noqa: F401
    PerSampleBreakdown,
    ScoreResult,
    pas,
    pas_euclidean,
    pas_avg_pairwise,
    oracle_score,
)
from .baselines import (  # noqa: F401
    MmdConfig,
    ProxyClassifierConfig,
    mmd_gaussian,
    proxy_a_distance,
    silhouette,
)
from .evaluation import (  # noqa: F401
    CandidateScoreRow,
    SubsampleStudyResult,
    pearson,
    spearman,
    rank_candidates,
    subsample_study,
)
from .synth import SynthConfig, generate_pair, nearest_centroid_accuracy  # noqa: F401
