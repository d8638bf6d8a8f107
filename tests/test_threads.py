"""The thread budget: the block runner (embed_core._run_blocks) is the only
parallelism, and BLAS runs one thread unless the user set its variables.
OpenBLAS reads them once, when numpy loads it, so every check of the BLAS
setting runs in a fresh interpreter."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from adaptscore import embed_core
from adaptscore.embed_core import _run_blocks, worker_count

THREAD_VARS = ("ADAPTSCORE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _child(code, **env):
    """Stdout of `code` run by a fresh interpreter on this checkout, with
    the thread variables removed from the environment and `env` added."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(embed_core.__file__).parents[1])
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(base, **env), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_worker_count_follows_the_affinity_mask(monkeypatch):
    monkeypatch.delenv("ADAPTSCORE_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert worker_count() == 1
    monkeypatch.delattr(os, "sched_getaffinity")  # platforms without affinity masks
    assert worker_count() == 8
    monkeypatch.setenv("ADAPTSCORE_THREADS", "3")
    assert worker_count() == 3


def test_runner_yields_in_block_order_with_at_most_workers_in_flight(monkeypatch):
    # More workers than cores, and later blocks finish first.
    monkeypatch.setenv("ADAPTSCORE_THREADS", "4")
    lock = threading.Lock()
    running, most = [0], [0]

    def fn(lo, hi):
        with lock:
            running[0] += 1
            most[0] = max(most[0], running[0])
        time.sleep(0.002 * (16 - lo))
        with lock:
            running[0] -= 1
        return lo, hi

    ranges = [(lo, lo + 1) for lo in range(16)]
    assert list(_run_blocks(fn, ranges, 1)) == ranges
    assert 1 < most[0] <= 4
    # The byte budget, not the worker count, and two blocks at least.
    for block_bytes, cap in ((embed_core._FLIGHT_BYTES // 3, 3), (embed_core._FLIGHT_BYTES + 1, 2)):
        most[0] = 0
        assert list(_run_blocks(fn, ranges, block_bytes)) == ranges
        assert most[0] == cap


_BITS = r"""
import hashlib, os
import numpy as np
from adaptscore import (EmbeddingSet, LabeledEmbeddingSet, MmdConfig, baselines, embed_core,
                        mmd_gaussian, oracle_score, pas, silhouette)

embed_core._BLOCK_ROWS = 512  # 6 PAS blocks, 2 silhouette blocks
baselines._MMD_BLOCK_ROWS = 16  # 75 blocks in each MMD walk
rng = np.random.default_rng(0)
means = rng.standard_normal((40, 64))
ys = np.arange(800) % 40
yt = rng.integers(0, 40, 3000)
src = LabeledEmbeddingSet(EmbeddingSet(means[ys] + rng.standard_normal((800, 64))), ys, 40)
tgt = LabeledEmbeddingSet(EmbeddingSet(means[yt] + 1.5 * rng.standard_normal((3000, 64))), yt, 40,
                          require_all_classes=False)
digests = []
for threads in ("1", "2"):
    os.environ["ADAPTSCORE_THREADS"] = threads
    bits = hashlib.sha256()
    for r in (pas(src, tgt.embeddings), oracle_score(src, tgt)):
        for column in (np.float64(r.value), *r.breakdown_arrays()):
            bits.update(column.tobytes())
    for sigma in (None, 1.0):
        cfg = MmdConfig(sigma=sigma, max_samples_per_domain=600)
        bits.update(np.float64(mmd_gaussian(src.embeddings, tgt.embeddings, cfg)).tobytes())
    bits.update(np.float64(silhouette(src)).tobytes())
    digests.append(bits.hexdigest())
print(" ".join(digests))
"""


@pytest.mark.parametrize("blas", ["1", "2"])
def test_bits_identical_across_block_threads_at_each_blas_setting(blas):
    """Every output at 1 and 2 block workers, with BLAS at 1 or 2 threads.
    Bits across BLAS thread counts are not compared: OpenBLAS does not
    promise them, and at the real PAS shape, (8192, 512) @ (512, 345), it
    rounds 20 of the 8192 entries of the last column differently at one
    and two threads (see the README)."""
    one, two = _child(_BITS, OPENBLAS_NUM_THREADS=blas).split()
    assert one == two


@pytest.mark.parametrize("first", ["", "import numpy; "], ids=["fresh", "numpy-first"])
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"}])
def test_import_leaves_environ_as_found(first, env):
    code = first + "import os; before = dict(os.environ); import adaptscore; print(dict(os.environ) == before)"
    assert _child(code, **env) == "True"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)])
def test_blas_threads_after_a_gemm(env, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS starts no more threads than the CPUs it may use")
    code = "import os, adaptscore, numpy as np; a = np.ones((512, 512)); a @ a; print(len(os.listdir('/proc/self/task')))"
    assert int(_child(code, **env)) == threads
