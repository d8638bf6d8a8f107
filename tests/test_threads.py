"""The thread budget: the block runner (embed_core._run_blocks) is the only
parallelism, and the only code that pins BLAS: it runs BLAS at one thread
for each of its calls and restores the process's count after it. A call
made on one of its pool threads, such as a pass of a rank candidate, runs
within that thread's share of the workers. Every
product a score takes runs in such a call, a pass over blocks or a single
computation on the calling thread (MMD's window sample, the proxy
A-distance probe). OpenBLAS reads its thread variables once, when numpy
loads it, so every check of the BLAS setting runs in a fresh
interpreter."""

import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from adaptscore import (
    LabeledEmbeddingSet,
    MmdConfig,
    baselines,
    embed_core,
    formats,
    mmd_gaussian,
    reporting,
    scores,
    silhouette,
)
from adaptscore.cli import main
from adaptscore.embed_core import EmbeddingSet, _row_pass, _run_blocks, worker_count
from adaptscore.errors import NonFiniteValue

THREAD_VARS = ("ADAPTSCORE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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
    # A value that is not a positive integer counts as unset, with no error.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5})
    for raw in ("abc", "-2", "2.5"):
        monkeypatch.setenv("ADAPTSCORE_THREADS", raw)
        assert worker_count() == 3, raw
    monkeypatch.delenv("ADAPTSCORE_THREADS")
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
    # The byte budget, not the worker count, and two blocks at least: it
    # counts the bytes per row times the rows of the first block.
    pairs = [(lo, lo + 2) for lo in range(0, 15, 2)] + [(16, 17)]
    for row_bytes, cap in ((embed_core._FLIGHT_BYTES // 6, 3), (embed_core._FLIGHT_BYTES // 2 + 1, 2)):
        most[0] = 0
        assert list(_run_blocks(fn, pairs, row_bytes)) == pairs
        assert most[0] == cap


def test_a_pass_without_a_byte_budget_runs_in_block_order_on_the_calling_thread(monkeypatch):
    monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
    rows = embed_core._BLOCK_ROWS
    source = EmbeddingSet(np.ones((3 * rows + 1, 2), dtype=np.float32))
    seen = []
    _row_pass(source, lambda lo, raw: seen.append((lo, raw.shape[0], threading.get_ident())))
    me = threading.get_ident()
    assert seen == [(0, rows, me), (rows, rows, me), (2 * rows, rows, me), (3 * rows, 1, me)]


@pytest.mark.parametrize("flight", [2**15, 2**16, 2**17, 2**18, 2**19])
def test_each_pass_admits_the_workers_of_its_block_bytes(monkeypatch, flight):
    """The max_workers of the pool of every pass that has one, against
    min(workers, blocks, max(2, _FLIGHT_BYTES // block bytes)), where a
    row pass's block holds its float64 values plus the float32 read
    buffer, and an MMD walk block 8 n bytes per row."""
    monkeypatch.setenv("ADAPTSCORE_THREADS", "8")
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(embed_core, "_FLIGHT_BYTES", flight)
    monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 16)
    seen = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(embed_core, "ThreadPoolExecutor", Recording)
    rng = np.random.default_rng(0)
    d, c, n, cap = 16, 5, 600, 200
    source = LabeledEmbeddingSet(EmbeddingSet(rng.standard_normal((n, d))), np.arange(n) % c, c)
    target = EmbeddingSet(rng.standard_normal((n, d)))

    def admitted(blocks, block_bytes):
        return min(8, blocks, max(2, flight // block_bytes))

    row_pass = admitted(n // 64 + 1, 8 * 64 * (d + c) + 4 * 64 * d)
    scores._pas_family(source, target, ["pas", "pas_avg_pairwise"])
    silhouette(source)
    mmd_gaussian(source.embeddings, target, MmdConfig(sigma=1.0, max_samples_per_domain=cap))
    sampler = admitted(cap // 64 + 1, 8 * 64 * d + 4 * 64 * d)  # a pass over each view of cap rows
    walk = admitted(2 * cap // 16, 8 * 16 * 2 * cap)
    assert seen == [row_pass, row_pass, sampler, sampler, walk]


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
    """Every output at 1 and 2 block workers, with OPENBLAS_NUM_THREADS at
    1 or 2. Every pass runs BLAS at one thread whatever that setting, so
    the bits do not depend on it either: test_gemm_bits_at_every_blas_setting
    checks that at the real PAS shape, where OpenBLAS rounds differently at
    two threads."""
    one, two = _child(_BITS, OPENBLAS_NUM_THREADS=blas).split()
    assert one == two


@pytest.mark.parametrize("first", ["", "import numpy; "], ids=["fresh", "numpy-first"])
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "3"}])
def test_import_leaves_environ_as_found(first, env):
    code = first + "import os; before = dict(os.environ); import adaptscore; print(dict(os.environ) == before)"
    assert _child(code, **env) == "True"


_GEMM = r"""
FIRST
import hashlib
import numpy as np
from adaptscore.embed_core import _run_blocks

rng = np.random.default_rng(0)
a, b = rng.standard_normal((8192, 512)), rng.standard_normal((512, 345))
for ranges in ([(0, 8192)], [(0, 8192)] * 2):  # on the calling thread, then on two workers
    for product in _run_blocks(lambda lo, hi: a @ b, ranges, 1):
        print(hashlib.sha256(product.tobytes()).hexdigest())
"""


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
def test_gemm_bits_at_every_blas_setting():
    """One real PAS block, (8192, 512) @ (512, 345), run in a block pass:
    the same bytes whether OpenBLAS started with one thread or two and
    whether numpy or adaptscore was imported first. OpenBLAS 0.3.31 rounds
    some entries of this product differently at two threads."""
    digests = set()
    for first in ("import numpy, adaptscore", "import adaptscore, numpy"):
        for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
            digests.update(_child(_GEMM.replace("FIRST", first), **env).split())
    assert len(digests) == 1


_COUNTS = r"""
import sys, threading
import numpy
from adaptscore import embed_core

blas = embed_core._openblas()
if blas is None:
    print("none")
    raise SystemExit
get = blas[0]
counts = [get()]
# Two passes at once: the first to end leaves BLAS pinned for the other.
one = embed_core._run_blocks(lambda lo, hi: get(), [(0, 1), (1, 2)], 1)
counts.append(next(one))
two = embed_core._run_blocks(lambda lo, hi: get(), [(0, 1)], 1)
counts.append(next(two))
one.close()
counts.append(get())
two.close()
counts.append(get())
print(*counts)

# Eight threads start and end passes, switching often: a lost update of
# the pass count would let a block see the saved count, or end with 1.
seen = set()
def passes():
    for k in range(2000):
        ranges = [(0, 1), (1, 2)] if k % 100 == 0 else [(0, 1)]  # two workers, or the calling thread
        seen.update(embed_core._run_blocks(lambda lo, hi: get(), ranges, 1))
sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=passes) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(sorted(seen), get(), any(t.is_alive() for t in threads))
"""


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS runs one thread on one CPU")
def test_pass_restores_the_blas_count():
    got = _child(_COUNTS, OPENBLAS_NUM_THREADS="2").splitlines()
    if got == ["none"]:
        pytest.skip("numpy bundles no OpenBLAS")
    assert got == ["2 1 1 1 2", "[1] 2 False"]


_PROBE = r"""
import numpy as np
from adaptscore import baselines, embed_core

blas = embed_core._openblas()
if blas is None:
    print("none")
    raise SystemExit
blas[1](2)
seen = []
clip = np.clip
def recording_clip(*args, **kwargs):  # the probe calls it once per epoch
    seen.append(blas[0]())
    return clip(*args, **kwargs)
np.clip = recording_clip
rng = np.random.default_rng(0)
s, t = (baselines.EmbeddingSet(rng.standard_normal((300, 8))) for _ in range(2))
baselines.proxy_a_distance(s, t, baselines.ProxyClassifierConfig(epochs=7))
print(seen, blas[0]())
"""


def test_probe_trains_at_one_blas_thread():
    """The proxy A-distance probe trains with BLAS pinned to one thread in
    a numpy-first process whose OpenBLAS runs two, and leaves two."""
    got = _child(_PROBE)
    if got == "none":
        pytest.skip("numpy bundles no OpenBLAS")
    assert got == f"{[1] * 7} 2"


_MMD = r"""
import numpy as np
from adaptscore import baselines, embed_core

blas = embed_core._openblas()
if blas is None:
    print("none")
    raise SystemExit
blas[1](2)
seen = []
cdist = baselines.cdist
def recording_cdist(*args):  # the window sample, then each block of both walks
    seen.append(blas[0]())
    return cdist(*args)
baselines.cdist = recording_cdist
baselines._KEPT_BYTES = {ceiling}
rng = np.random.default_rng(0)
s, t = (baselines.EmbeddingSet(rng.standard_normal((300, 8))) for _ in range(2))
baselines.mmd_gaussian(s, t, baselines.MmdConfig())
print(len(seen), sorted(set(seen)), blas[0]())
"""


@pytest.mark.parametrize("ceiling, products", [(64 << 20, 6), (0, 11)], ids=["kept", "ceiling-0"])
def test_mmd_products_run_at_one_blas_thread(ceiling, products):
    """Every product of a default-sigma MMD, the window sample included,
    runs with BLAS pinned to one thread in a numpy-first process whose
    OpenBLAS runs two, and the count is two again afterwards. 600 pooled
    rows make 5 blocks in the median's walk, which the kernel sums reuse,
    or, with the ceiling at 0, in each of two walks."""
    got = _child(_MMD.format(ceiling=ceiling))
    if got == "none":
        pytest.skip("numpy bundles no OpenBLAS")
    assert got == f"{products} [1] 2"


def test_cli_leaves_environ_as_found_and_blas_at_one_thread(tmp_path):
    from adaptscore.formats import save_embeddings, save_labels

    rng = np.random.default_rng(0)
    save_embeddings(tmp_path / "s.pemb", rng.standard_normal((20, 4)))
    save_labels(tmp_path / "s.plbl", np.arange(20) % 2)
    save_embeddings(tmp_path / "t.pemb", rng.standard_normal((10, 4)))
    argv = ["score", "--method", "pas", "--source-emb", str(tmp_path / "s.pemb"),
            "--source-labels", str(tmp_path / "s.plbl"), "--target-emb", str(tmp_path / "t.pemb")]
    code = (
        "import os; before = dict(os.environ)\n"
        "from adaptscore import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "from adaptscore import embed_core\n"
        "blas = embed_core._openblas()\n"
        "print(dict(os.environ) == before, blas[0]() if blas else 1)"
    )
    assert _child(code).splitlines()[-1] == "True 1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_blas_threads_after_a_gemm(env):
    """Importing adaptscore leaves numpy's BLAS threads as numpy alone
    starts them."""
    gemm = "a = np.ones((512, 512)); a @ a; print(len(os.listdir('/proc/self/task')))"
    alone = _child("import os, numpy as np; " + gemm, **env)
    assert _child("import os, adaptscore, numpy as np; " + gemm, **env) == alone


def test_scores_without_openblas(monkeypatch):
    """Where numpy bundles no OpenBLAS (MKL, Accelerate, a system BLAS),
    _openblas() is None, the pin enters and leaves without touching a
    thread count, and pas, mmd and adist score as with the real library."""
    rng = np.random.default_rng(4)
    source = LabeledEmbeddingSet(EmbeddingSet(rng.standard_normal((60, 8))), np.arange(60) % 3, 3)
    target = EmbeddingSet(rng.standard_normal((40, 8)) + 0.3)

    def values():
        return (
            scores.pas(source, target).value,
            mmd_gaussian(source.embeddings, target, MmdConfig()),
            baselines.proxy_a_distance(source.embeddings, target, baselines.ProxyClassifierConfig()),
        )

    want = values()

    def no_library(path):
        raise OSError(f"cannot load {path}")

    monkeypatch.setattr(embed_core.ctypes, "CDLL", no_library)
    embed_core._openblas.cache_clear()
    try:
        assert embed_core._openblas() is None
        with embed_core._ONE_BLAS_THREAD:
            pass
        np.testing.assert_allclose(values(), want, rtol=0, atol=1e-12)
    finally:
        embed_core._openblas.cache_clear()

def _rank_inputs(tmp_path, count, sources="file"):
    """A rank manifest of `count` candidates against a 120-row labeled
    PEMB target, all seven methods, and the path it is written to. With
    sources="file" every candidate is a PEMB file of its own; with "mixed"
    every other one is a synth entry. A 16-row block (and MMD walk block)
    gives every target and source pass several blocks."""
    rng = np.random.default_rng(7)
    means = rng.standard_normal((4, 8))
    yt = np.arange(120) % 4
    formats.save_embeddings(tmp_path / "t.pemb", means[yt] + 1.5 * rng.standard_normal((120, 8)))
    formats.save_labels(tmp_path / "t.plbl", yt)
    candidates = []
    for i in range(count):
        if sources == "mixed" and i % 2:
            synth = {"num_classes": 4, "dim": 8, "n_source_per_class": 25, "n_target_per_class": 25,
                     "intra_spread": 0.2, "shift": 0.3, "seed": i}
            candidates.append({"id": f"c{i}", "synth": synth})
            continue
        ys = np.arange(100 + 10 * i) % 4
        emb, labels = tmp_path / f"s{i}.pemb", tmp_path / f"s{i}.plbl"
        formats.save_embeddings(emb, means[ys] + (0.5 + 0.1 * i) * rng.standard_normal((ys.shape[0], 8)))
        formats.save_labels(labels, ys)
        candidates.append({"id": f"c{i}", "emb": str(emb), "labels": str(labels)})
    manifest = {"target": {"emb": str(tmp_path / "t.pemb"), "labels": str(tmp_path / "t.plbl")},
                "candidates": candidates, "methods": list(scores._FAMILY) + ["mmd", "adist", "silhouette"],
                "max_samples": 40, "seed": 3}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    return manifest, str(path)


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 16)
    monkeypatch.setattr(baselines, "_MMD_BLOCK_ROWS", 16)


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
def test_rank_report_bytes_at_every_worker_count(tmp_path, monkeypatch, capsys, small_blocks, count):
    """rank scores two candidates at a time and an odd last one alone; its
    report is the same bytes, created_at aside, at 1, 2, 3 and 8 workers."""
    _, path = _rank_inputs(tmp_path, count, "mixed")
    reports = set()
    for threads in ("1", "2", "3", "8"):
        monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
        assert main(["rank", "--manifest", path, "--out", str(tmp_path / "r.json")]) == 0
        reports.add(re.sub(r'"created_at": "[^"]*"', "", (tmp_path / "r.json").read_text()))
    capsys.readouterr()
    assert len(reports) == 1


def test_rank_candidates_share_the_workers(tmp_path, monkeypatch, small_blocks):
    """The pool sizes and threads of a 3-candidate rank against a rank of
    its last candidate alone, which runs every pass with the full count.
    At 8 workers the candidate call admits 2, and each pass of the paired
    candidates gets min(4, what it gets alone), on its candidate's thread;
    the odd last candidate's passes get what they get alone. At 2 the
    paired candidates' passes start no pool: each runs on the thread that
    scores its candidate, which is also where that candidate's files are read."""
    pools, reads, scored = [], [], {}

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append((threading.get_ident(), max_workers))
            super().__init__(max_workers)

    reader = formats.PembRows.reader

    @contextlib.contextmanager
    def recording(self):
        with reader(self) as read:
            yield lambda lo, hi: reads.append((self.path.name, threading.get_ident())) or read(lo, hi)

    real = reporting.score_candidate

    def score(source, *args):
        scored[threading.get_ident()] = scored.get(threading.get_ident(), 0) + 1
        return real(source, *args)

    monkeypatch.setattr(embed_core, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(formats.PembRows, "reader", recording)
    monkeypatch.setattr(reporting, "score_candidate", score)
    manifest, _ = _rank_inputs(tmp_path, 3)
    me = threading.get_ident()
    alone = {}
    for threads in ("8", "2"):
        monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
        pools.clear()
        reporting.build_report(dict(manifest, candidates=manifest["candidates"][2:]))
        alone[threads] = [w for _, w in pools]
        assert {t for t, _ in pools} == {me}
        pools.clear()
        reads.clear()
        scored.clear()
        reporting.build_report(manifest)
        assert pools[0] == (me, 2)  # the candidate call
        assert [w for t, w in pools[1:] if t == me] == alone[threads]  # the odd last candidate's passes
        assert scored.pop(me) == 1
        assert len(scored) in (1, 2) and sum(scored.values()) == 2  # the paired candidates' threads
        for t, count in scored.items():
            nested = [w for u, w in pools if u == t]
            assert nested == ([min(4, w) for w in alone[threads]] * count if threads == "8" else [])
        if threads == "2":
            for name in ("s0.pemb", "s1.pemb"):
                readers = {t for n, t in reads if n == name}
                assert len(readers) == 1 and readers <= set(scored), name
    assert min(alone["8"]) < 4 < max(alone["8"])  # the share and a pass's own cap both bind


def test_rank_reports_the_first_candidates_error_and_leaves_no_thread(tmp_path, monkeypatch, capsys):
    """Candidate 0 fails later than candidate 1, which runs beside it: rank
    reports candidate 0's error, and its runner threads have all ended."""
    manifest, path = _rank_inputs(tmp_path, 2)
    data = np.ones((100, 8), dtype="<f4")
    data[9, 3] = np.nan  # written raw: save_embeddings refuses it
    (tmp_path / "s0.pemb").write_bytes(formats.PEMB_HEADER.pack(b"PEMB", 1, 0, *data.shape) + data.tobytes())
    manifest["candidates"][1]["labels"] = str(tmp_path / "missing.plbl")
    manifest["methods"] = ["silhouette"]
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    load = reporting.load_candidate

    def slow_first(entry):
        if entry["id"] == "c0":
            time.sleep(0.2)
        return load(entry)

    monkeypatch.setattr(reporting, "load_candidate", slow_first)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
    before = set(threading.enumerate())
    assert main(["rank", "--manifest", path, "--out", str(tmp_path / "r.json"), "--json"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "NonFiniteValue" and "row 9, col 3" in err["message"]
    with pytest.raises(NonFiniteValue, match="row 9, col 3"):
        reporting.build_report(manifest)
    assert set(threading.enumerate()) == before


def test_each_command_opens_each_candidate_once_where_it_scores_it(tmp_path, monkeypatch, capsys):
    """load_candidate opens every candidate, where a command scores it:
    _inputs opens none, score its one source, rank (at 1 and 2 workers)
    and substudy each candidate once. At 2 workers rank holds at most two
    candidates open: no more have been opened when candidate 0's scoring
    starts."""
    manifest, path = _rank_inputs(tmp_path, 4)
    ids = [c["id"] for c in manifest["candidates"]]
    opened, names, at_first = [], {}, []
    load, real = reporting.load_candidate, reporting.score_candidate

    def recording(entry):
        opened.append(entry.get("id"))
        source = load(entry)
        names[id(source)] = entry.get("id")
        return source

    def score(source, *args):
        if names[id(source)] == "c0":
            at_first.append(len(opened))
        return real(source, *args)

    monkeypatch.setattr(reporting, "load_candidate", recording)
    monkeypatch.setattr(reporting, "score_candidate", score)
    configs, _ = reporting._inputs(formats._check_manifest(manifest), manifest["methods"])
    assert list(configs) == manifest["methods"] and opened == []

    first = manifest["candidates"][0]
    assert main(["score", "--method", "pas", "--source-emb", first["emb"], "--source-labels", first["labels"],
                 "--target-emb", manifest["target"]["emb"]]) == 0
    assert opened == [None]

    for threads in ("1", "2"):
        monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
        for count in (1, 2, 3, 4):
            with open(path, "w") as fh:
                json.dump(dict(manifest, candidates=manifest["candidates"][:count]), fh)
            opened.clear()
            at_first.clear()
            assert main(["rank", "--manifest", path, "--out", str(tmp_path / "r.json")]) == 0
            assert sorted(opened) == ids[:count] and len(at_first) == 1, (threads, count)
    assert at_first[0] <= 2  # 2 workers, 4 candidates

    opened.clear()
    assert main(["substudy", "--manifest", path, "--fractions", "0.5,1.0", "--repeats", "2",
                 "--out", str(tmp_path / "s.json")]) == 0
    assert opened == ids
    capsys.readouterr()
