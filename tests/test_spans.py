"""The benchmark's span tracer (perfbench/spans.py) on the package: every
name it reads is still there, and MMD's distance blocks reach it through
baselines.cdist."""

import sys
from pathlib import Path

import numpy as np

from adaptscore import EmbeddingSet, MmdConfig, baselines

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


def test_mmd_distance_blocks_are_traced_through_cdist(rng, monkeypatch):
    monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 16)  # 7 blocks in each walk of 110 rows
    source = EmbeddingSet(rng.standard_normal((60, 8)))
    target = EmbeddingSet(rng.standard_normal((50, 8)) + 0.5)
    cfg = MmdConfig()
    want = baselines.mmd_gaussian(source, target, cfg)
    cdist = baselines.cdist
    with spans.installed(spans.Tracer()) as tracer:
        got = baselines.mmd_gaussian(source, target, cfg)
    assert baselines.cdist is cdist
    names = [s.name for s in tracer.spans]
    assert names.count("baselines.mmd_gaussian") == 1
    # The window sample, then at least the median's walk and the kernel sums' walk.
    assert names.count("baselines.cdist") >= 1 + 2 * 7
    pairs = sum(s.counts["pairs"] for s in tracer.spans if s.name == "baselines.cdist")
    assert pairs >= 110 * 111  # two upper triangles with their diagonal blocks
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
