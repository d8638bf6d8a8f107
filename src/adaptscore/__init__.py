"""Pre-adaptation transferability scoring over embedding files."""

import os
import sys

__version__ = "0.1.0"

# The block runner (embed_core._run_blocks) is the program's one parallel
# part, so BLAS runs one thread inside each of its workers. OpenBLAS sizes
# its thread pool once, when numpy loads it: the variables a user left
# unset are set to 1 for that import only and removed after it, so a later
# import (torch) or a child process does not inherit them. With numpy
# already imported, BLAS keeps whatever it loaded with.
_BLAS_PINNED = [] if "numpy" in sys.modules else [
    v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v not in os.environ
]
os.environ.update(dict.fromkeys(_BLAS_PINNED, "1"))
import numpy  # noqa: E402,F401

for _name in _BLAS_PINNED:
    del os.environ[_name]

from .embed_core import (  # noqa: E402,F401
    EmbeddingSet,
    LabeledEmbeddingSet,
    CentroidTable,
    unit_normalize,
    class_centroids,
)
from .scores import (  # noqa: E402,F401
    PerSampleBreakdown,
    ScoreResult,
    pas,
    pas_euclidean,
    pas_avg_pairwise,
    oracle_score,
)
from .baselines import (  # noqa: E402,F401
    MmdConfig,
    ProxyClassifierConfig,
    mmd_gaussian,
    proxy_a_distance,
    silhouette,
)
from .evaluation import (  # noqa: E402,F401
    CandidateScoreRow,
    SubsampleStudyResult,
    pearson,
    spearman,
    rank_candidates,
    subsample_study,
)
from .synth import SynthConfig, generate_pair, nearest_centroid_accuracy  # noqa: E402,F401
