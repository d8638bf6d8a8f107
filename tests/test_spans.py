"""The benchmark's span tracer (perfbench/spans.py) on the package: every
name it reads is still there, and MMD's distance blocks reach it through
baselines.cdist."""

import sys
from pathlib import Path

import numpy as np
import pytest

from adaptscore import EmbeddingSet, MmdConfig, baselines

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize("ceiling, walks", [(64 << 20, 1), (0, 2)], ids=["kept", "ceiling-0"])
def test_mmd_distance_blocks_are_traced_through_cdist(rng, monkeypatch, ceiling, walks):
    monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 16)  # 7 blocks in each walk of 110 rows
    monkeypatch.setattr(baselines, "_KEPT_BYTES", ceiling)
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
    # The window sample, then the median's walk, whose blocks the kernel
    # sums reuse under the ceiling, and at a ceiling of 0 the kernel sums' walk.
    assert names.count("baselines.cdist") == 1 + walks * 7
    pairs = sum(s.counts["pairs"] for s in tracer.spans if s.name == "baselines.cdist")
    walk = sum((min(lo + 16, 110) - lo) * (110 - lo) for lo in range(0, 110, 16))  # with its diagonal blocks
    assert pairs == 16 * 110 + walks * walk
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
