"""Tests patch the blocks small. Here the median ranks of 10,000 pooled
rows (cap 5,000) are read once through the sampled window and once with
the window patched empty, which forces the bucket counts (_select) and
their walk over the range they place. Both must give the same bits; the
window takes 1 walk and the fallback at least 2 (1.2 s and 3.0 s on a
2-core host with numpy 2.4)."""

import time

import numpy as np
from _common import domains

from adaptscore import EmbeddingSet, baselines

s, t = domains(12_000)
p, _ = baselines._pooled_sample(EmbeddingSet(s), EmbeddingSet(t), 5_000, 0, 2)
n = p.shape[0]
ranks = sorted({((n * n - 1) // 2 - n) // 2, (n * n // 2 - n) // 2})
walks = []
upper = baselines._upper_blocks
baselines._upper_blocks = lambda p, reduce: walks.append(p.shape) or upper(p, reduce)
bits = {}
for run in ("window", "fallback"):
    if run == "fallback":
        baselines._window = lambda *_: (np.inf, np.inf)  # every value lies below it
    walks.clear()
    start = time.perf_counter()
    bits[run] = [v.tobytes() for v in baselines._select_windowed(p, ranks)]
    print(f"{run}: {time.perf_counter() - start:.1f} s, {len(walks)} walks")
    assert len(walks) == 1 if run == "window" else len(walks) >= 2, walks
assert bits["window"] == bits["fallback"], bits
