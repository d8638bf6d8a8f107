"""PEMB targets and sources streamed as row sources (formats.PembRows),
and views of some of their rows (embed_core._Take), through the PAS block
kernel, the class sums, the silhouette and the baselines' sampler, by
`score`, `rank` and `substudy`: the same bits as the in-memory path, the
error contract of a pass that checks its rows block by block, and memory
that stays flat in n."""

import contextlib
import itertools
import json
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    MmdConfig,
    ProxyClassifierConfig,
    baselines,
    embed_core,
    formats,
    mmd_gaussian,
    proxy_a_distance,
    scores,
)
from adaptscore.cli import main
from adaptscore.corr import METHOD_NAMES
from adaptscore.errors import ConfigInvalid, NonFiniteValue, TruncatedFile, ZeroVector
from adaptscore.formats import PembRows, open_embeddings, save_embeddings, save_labels
from adaptscore.reporting import resolve_method, score_candidate
from adaptscore.scores import ScoreResult, oracle_score, pas, pas_avg_pairwise, pas_euclidean
from conftest import random_labeled, write_csv

BLOCK = 7
SCORERS = {"pas": pas, "pas_euclidean": pas_euclidean, "pas_avg_pairwise": pas_avg_pairwise}
FAMILY = ("pas", "pas_euclidean", "pas_avg_pairwise", "oracle")
# The baselines at a cap: MMD draws `cap` rows of a larger domain, and the
# proxy draws min(n_s, n_t) rows of each.
BASELINES = {
    "mmd": lambda s, t, cap: mmd_gaussian(s, t, MmdConfig(max_samples_per_domain=cap, seed=3)),
    "adist": lambda s, t, _cap: proxy_a_distance(s, t, ProxyClassifierConfig(epochs=20, seed=3)),
}
# Rows of the 40-row target that a view (embed_core._Take) draws: every
# third row, a few to a BLOCK-row span, and all rows but three, so that a
# view block reads two spans.
TAKES = {"sparse": np.arange(1, 40, 3), "dense": np.setdiff1d(np.arange(40), [0, 9, 23])}


@pytest.fixture
def files(tmp_path, rng):
    """A 5-class source and a 40-row target (six blocks of BLOCK rows)
    with its labels, as PEMB/PLBL files."""
    source = random_labeled(rng, num_classes=5, dim=9, spread=0.6)
    target = random_labeled(rng, n_per_class=8, num_classes=5, dim=9, spread=0.9)
    save_embeddings(tmp_path / "src.pemb", source.embeddings)
    save_labels(tmp_path / "src.plbl", source.labels)
    save_embeddings(tmp_path / "tgt.pemb", target.embeddings)
    save_labels(tmp_path / "tgt.plbl", target.labels)
    return tmp_path, source, target


def _columns(result):
    return (result.value, *result.breakdown_arrays())


def _score_argv(tmp_path, method, target="tgt.pemb", *extra):
    return [
        "score", "--method", method, "--json",
        "--source-emb", str(tmp_path / "src.pemb"),
        "--source-labels", str(tmp_path / "src.plbl"),
        "--target-emb", str(tmp_path / target),
        "--target-labels", str(tmp_path / "tgt.plbl"),
        *extra,
    ]


def _write_target(path, data):
    save_embeddings(path, EmbeddingSet(data))
    return open_embeddings(path)


def _bad_target(path, data):
    """A PEMB file of `data` written raw, so it may hold non-finite values."""
    data = np.asarray(data, dtype="<f4")
    path.write_bytes(formats.PEMB_HEADER.pack(b"PEMB", 1, 0, *data.shape) + data.tobytes())
    return open_embeddings(path)


def test_open_gives_pemb_rows_and_loads_csv(files):
    tmp_path, _, target = files
    rows = open_embeddings(tmp_path / "tgt.pemb")
    assert isinstance(rows, PembRows)
    assert (rows.n, rows.dim) == (target.n, target.dim)
    write_csv(tmp_path / "tgt.csv", target.embeddings.data)
    assert isinstance(open_embeddings(tmp_path / "tgt.csv"), EmbeddingSet)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle"])
@pytest.mark.parametrize("rows", ["pemb", "pemb-sparse", "pemb-dense", "set-sparse", "set-dense"])
def test_streamed_bit_identical_to_in_memory(files, method, threads, rows, monkeypatch):
    """A PEMB target, or a view of some of its rows (embed_core._Take) over
    the file or over the same float32 rows in memory, gives the bits of an
    EmbeddingSet of those rows."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    source = LabeledEmbeddingSet(
        EmbeddingSet(source.embeddings.data.astype(np.float32)), source.labels, 5
    )
    kind, _, take = rows.partition("-")
    data = target.embeddings.data.astype(np.float32)
    streamed = open_embeddings(tmp_path / "tgt.pemb") if kind == "pemb" else EmbeddingSet(data)
    idx = TAKES.get(take, np.arange(target.n))
    if take:
        streamed = embed_core._Take(streamed, idx)
    in_memory = EmbeddingSet(data[idx])
    if method == "oracle":
        labels = target.labels[idx]
        got = oracle_score(source, LabeledEmbeddingSet(streamed, labels, 5, False))
        want = oracle_score(source, LabeledEmbeddingSet(in_memory, labels, 5, False))
    else:
        got = SCORERS[method](source, streamed)
        want = SCORERS[method](source, in_memory)
    for g, w in zip(_columns(got), _columns(want)):
        np.testing.assert_array_equal(g, w, strict=True)


def test_shared_file_under_many_workers(files, monkeypatch):
    """Eight workers on two-row blocks with a short switch interval share
    one file; a read that lost its seek to another thread would put a
    wrong row in the columns, or a wrong drawn row in MMD's pooled rows."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 2)
    tmp_path, source, target = files
    in_memory = EmbeddingSet(target.embeddings.data.astype(np.float32))
    want = _columns(pas(source, in_memory))
    want_mmd = BASELINES["mmd"](source.embeddings, in_memory, 12)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _columns(pas(source, open_embeddings(tmp_path / "tgt.pemb")))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w, strict=True)
            streamed = open_embeddings(tmp_path / "tgt.pemb")
            assert BASELINES["mmd"](source.embeddings, streamed, 12) == want_mmd
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("method", ["pas", "oracle"])
def test_score_json_same_bytes_for_pemb_and_csv_targets(files, method, capsys, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, _, target = files
    write_csv(tmp_path / "tgt.csv", target.embeddings.data)
    outputs = []
    for name in ("tgt.pemb", "tgt.csv"):
        assert main(_score_argv(tmp_path, method, name)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["breakdown"]) == target.n


@pytest.mark.parametrize("method", ["pas", "oracle"])
def test_score_json_same_bytes_for_plbl_and_text_labels(files, method, capsys, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, source, target = files
    for name, labels in (("src", source.labels), ("tgt", target.labels)):
        (tmp_path / f"{name}.txt").write_text("".join(f"{v}\n" for v in labels))
    outputs = []
    for suffix in ("plbl", "txt"):
        argv = _score_argv(tmp_path, method)
        argv[argv.index("--source-labels") + 1] = str(tmp_path / f"src.{suffix}")
        argv[argv.index("--target-labels") + 1] = str(tmp_path / f"tgt.{suffix}")
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("view", [False, True], ids=["file", "view"])
def test_non_finite_in_a_later_block_beats_a_zero_row(files, threads, view, monkeypatch):
    """Also through a view (embed_core._Take) whose draw skips the NaN's
    row: the span that its block reads holds that row, so the NaN is still
    reported at its file row."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    data = target.embeddings.data.copy()
    data[3] = 0.0
    data[2 * BLOCK + 4, 6] = np.nan
    idx = np.setdiff1d(np.arange(target.n), [2 * BLOCK + 4])

    def bad_target():
        rows = _bad_target(tmp_path / "bad.pemb", data)
        return embed_core._Take(rows, idx) if view else rows

    with pytest.raises(NonFiniteValue) as info:
        pas(source, bad_target())
    assert (info.value.row, info.value.col) == (2 * BLOCK + 4, 6)
    data[2 * BLOCK + 4, 6] = 1.0
    with pytest.raises(ZeroVector) as zero:
        pas(source, bad_target())
    assert zero.value.row_index == 3


def test_lowest_non_finite_wins_across_workers(files, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
    tmp_path, source, target = files
    data = target.embeddings.data.astype("<f4")
    data[4 * BLOCK + 1, 0] = np.inf
    data[BLOCK + 5, 8] = np.nan
    with pytest.raises(NonFiniteValue) as info:
        pas(source, _bad_target(tmp_path / "bad.pemb", data))
    assert (info.value.row, info.value.col) == (BLOCK + 5, 8)


def test_file_truncated_after_the_header_check(files, monkeypatch, capsys):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, source, target = files
    path = tmp_path / "tgt.pemb"
    rows = open_embeddings(path)
    full = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(full - 4 * target.dim)
    with pytest.raises(TruncatedFile) as info:
        pas(source, rows)
    assert (info.value.expected, info.value.got) == (full, full - 4 * target.dim)

    save_embeddings(path, target.embeddings)
    opened = []

    def open_then_truncate(p):
        opened.append(open_embeddings(p))
        with open(p, "r+b") as fh:
            fh.truncate(100)
        return opened[-1]

    monkeypatch.setattr("adaptscore.reporting.open_embeddings", open_then_truncate)
    assert main(_score_argv(tmp_path, "pas")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TruncatedFile"
    assert isinstance(opened[0], PembRows)


def test_silhouette_reads_no_target_block(files, monkeypatch, capsys):
    """silhouette reads its streamed source twice (the class sums, then the
    scores) and opens no target reader; pas reads the source once and the
    target once."""
    tmp_path, _, _ = files
    reader = PembRows.reader
    reads = []
    monkeypatch.setattr(PembRows, "reader", lambda self: reads.append(self.path.name) or reader(self))
    assert main(_score_argv(tmp_path, "silhouette")) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["value"], float)
    assert reads == ["src.pemb", "src.pemb"]
    assert main(_score_argv(tmp_path, "pas")) == 0
    assert reads == ["src.pemb", "src.pemb", "src.pemb", "tgt.pemb"]


def test_kernel_peak_is_flat_in_n(tmp_path, rng, monkeypatch):
    """Traced peak of pas on a 7-block and a 14-block streamed target: the
    larger target may add its output columns (32 bytes a row) and nothing
    else, where a whole float32 copy of its extra rows would take
    7 * 64 * 256 * 4 bytes."""
    block, dim = 64, 256
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "1")
    source = random_labeled(rng, num_classes=4, dim=dim)
    peaks = {}
    for blocks in (7, 14):
        target = _write_target(tmp_path / f"t{blocks}.pemb", rng.standard_normal((blocks * block, dim)))
        pas(source, target)  # first-call allocations stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pas(source, target)
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks[14] - peaks[7] <= 32 * 7 * block + 8192, peaks
    assert peaks[7] < 4 * block * dim * 8, peaks  # a few block buffers


def _peaks_by_workers(monkeypatch, module, run):
    """Traced peak of run() at 2 and 8 block workers: the least of three
    calls after a warm-up call, so that first-call allocations and the odd
    allocation of another thread stay out. module._unit_rows (embed_core's
    for the block kernel) sleeps 5 ms first, so each block stays in flight
    long enough for as many blocks to run at once as the runner allows."""
    unit_rows = module._unit_rows

    def slow(*args, **kwargs):
        time.sleep(0.005)
        return unit_rows(*args, **kwargs)

    monkeypatch.setattr(module, "_unit_rows", slow)
    peaks = {}
    for threads in ("2", "8"):
        monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
        run()
        peaks[threads] = []
        for _ in range(3):
            tracemalloc.start()
            try:
                run()
                peaks[threads].append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return {threads: min(runs) for threads, runs in peaks.items()}


@pytest.mark.parametrize("method", ["pas", "silhouette"])
def test_kernel_peak_does_not_grow_with_workers(tmp_path, rng, monkeypatch, method):
    """Traced peak of the block kernel (embed_core._table_pass) on 8
    streamed blocks at 2 and 8 workers, through pas on a streamed target
    and through silhouette on a streamed source, with one kernel block
    (unit buffer, distance block and read buffer) more than half the
    runner's byte budget: two blocks are in flight either way, where one
    block per worker took 3.7 times the 2-worker peak of pas at 8. The
    blocks are large enough that the chunk temporaries of normalization,
    which may or may not overlap, move the peak by a few per cent only."""
    block, dim, classes = 1024, 256, 4
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    kernel_block = 8 * block * (dim + classes) + 4 * block * dim
    monkeypatch.setattr(embed_core, "_FLIGHT_BYTES", 3 * kernel_block // 2)
    source = random_labeled(rng, num_classes=classes, dim=dim)
    rows = _write_target(tmp_path / "t.pemb", rng.standard_normal((8 * block, dim)))
    data = LabeledEmbeddingSet(rows, np.arange(rows.n) % classes, classes)
    run = {"pas": lambda: pas(source, rows), "silhouette": lambda: baselines.silhouette(data)}[method]
    peaks = _peaks_by_workers(monkeypatch, embed_core, run)
    assert peaks["8"] <= 1.1 * peaks["2"], peaks


def test_sampler_peak_does_not_grow_with_workers(tmp_path, rng, monkeypatch):
    """Traced peak of mmd with a 16-block streamed target above its cap of
    50 rows at 2 and 8 workers, with one sampler block (a float64 block
    and the read buffer) more than half the runner's byte budget. The
    read buffers of the sampler's pass dominate at this width; one block
    per worker took 1.6 times the 2-worker peak at 8."""
    block, dim = 64, 1024
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    monkeypatch.setattr(embed_core, "_FLIGHT_BYTES", 3 * (12 * block * dim) // 2)
    other = EmbeddingSet(rng.standard_normal((50, dim)))
    target = _write_target(tmp_path / "t.pemb", rng.standard_normal((16 * block, dim)))
    peaks = _peaks_by_workers(monkeypatch, baselines, lambda: BASELINES["mmd"](other, target, 50))
    assert peaks["8"] <= 1.1 * peaks["2"], peaks


def _rank_manifest(tmp_path, methods, candidate_labels="src.plbl"):
    manifest = {
        "target": {"emb": str(tmp_path / "tgt.pemb"), "labels": str(tmp_path / "tgt.plbl")},
        "candidates": [
            {"id": "a", "emb": str(tmp_path / "src.pemb"), "labels": str(tmp_path / candidate_labels)}
        ],
        "methods": methods,
        "max_samples": 12,
    }
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    return str(tmp_path / "m.json")


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", ["mmd", "adist"])
def test_baselines_streamed_bit_identical_to_in_memory(files, method, threads, monkeypatch):
    """The 40-row target is above both caps (12 rows for MMD, the other
    domain's 25 for the proxy), so its hash pass and its draw pass run
    over six blocks; the streamed side may be either argument."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    other = EmbeddingSet(source.embeddings.data[:25])
    streamed = open_embeddings(tmp_path / "tgt.pemb")
    in_memory = EmbeddingSet(target.embeddings.data.astype(np.float32))
    score = BASELINES[method]
    want = score(other, in_memory, 12).hex()
    assert score(other, streamed, 12).hex() == want
    assert score(streamed, other, 12).hex() == want


@pytest.mark.parametrize("drawn", [True, False], ids=["draw", "copy"])
@pytest.mark.parametrize("method", ["mmd", "adist"])
def test_baselines_non_finite_in_a_later_block_beats_a_zero_row(files, method, drawn, monkeypatch):
    """As in the PAS kernel: a zero row in block 0 is held until the pass
    ends, so the NaN in block 2 is reported, whether the target is drawn
    from (its hash pass) or copied whole (its one copy pass)."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, source, target = files
    other = EmbeddingSet(source.embeddings.data[: 25 if drawn else 60])
    cap = 12 if drawn else 100
    data = target.embeddings.data.copy()
    data[3] = 0.0
    data[2 * BLOCK + 4, 6] = np.nan
    with pytest.raises(NonFiniteValue) as info:
        BASELINES[method](other, _bad_target(tmp_path / "bad.pemb", data), cap)
    assert (info.value.row, info.value.col) == (2 * BLOCK + 4, 6)
    data[2 * BLOCK + 4, 6] = 1.0
    with pytest.raises(ZeroVector) as zero:
        BASELINES[method](_bad_target(tmp_path / "bad.pemb", data), other, cap)
    assert zero.value.row_index == 3


@pytest.mark.parametrize("method", ["mmd", "adist"])
def test_baselines_report_a_non_finite_row_that_the_draw_skips(tmp_path, rng, method, monkeypatch):
    """A 200-row streamed domain above the cap (10 rows for MMD, the other
    domain's 10 for the proxy) is read as a view of its drawn rows, whose
    spans skip most of the file. A NaN in a row that no span of the draw
    reads is still reported at its row and column, by the key pass
    (baselines._unit_key), which reads every row before the draw."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    data = rng.standard_normal((200, 9)).astype(np.float32)
    other = EmbeddingSet(rng.standard_normal((10, 9)))
    key = baselines._unit_key(EmbeddingSet(data))
    idx = np.sort(np.random.default_rng([3, key]).choice(200, size=10, replace=False))
    # A span starts at a drawn row and ends within BLOCK rows of it.
    unread = [r for r in range(200) if not np.any((idx <= r) & (idx > r - BLOCK))]
    row = unread[len(unread) // 2]
    data[row, 6] = np.nan
    with pytest.raises(NonFiniteValue) as info:
        BASELINES[method](_bad_target(tmp_path / "bad.pemb", data), other, 10)
    assert (info.value.row, info.value.col) == (row, 6)
    assert any(entry.name == "_unit_key" for entry in info.traceback)


@pytest.mark.parametrize("method", ["pas", "mmd", "adist"])
def test_cli_reports_the_non_finite_value_of_a_streamed_target(files, method, monkeypatch, capsys):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, _, target = files
    data = target.embeddings.data.copy()
    data[3] = 0.0
    data[2 * BLOCK + 4, 6] = np.nan
    _bad_target(tmp_path / "tgt.pemb", data)
    assert main(_score_argv(tmp_path, method)) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteValue"
    argv = ["rank", "--manifest", _rank_manifest(tmp_path, [method]), "--out", str(tmp_path / "r.json")]
    assert main([*argv, "--json"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteValue"


def test_rank_loads_the_candidate_before_it_reads_the_target(files, capsys):
    """A rank target is only opened up front; its NaN is found in the first
    candidate's pass, so a missing candidate file is reported first, and
    the NaN of the second candidate, which may be read while the first is
    scored, is not reported. substudy opens every candidate before its
    first score, where rank opens each one where it scores it; opening a
    PEMB candidate reads none of its rows, so both report the same first
    error."""
    tmp_path, source, target = files
    data = target.embeddings.data.copy()
    data[5, 1] = np.nan
    _bad_target(tmp_path / "tgt.pemb", data)
    second = source.embeddings.data.copy()
    second[7, 2] = np.nan
    _bad_target(tmp_path / "src2.pemb", second)
    for labels, error in (("missing.plbl", "FileNotFoundError"), ("src.plbl", "NonFiniteValue")):
        path = _rank_manifest(tmp_path, ["pas"], candidate_labels=labels)
        manifest = json.loads((tmp_path / "m.json").read_text())
        manifest["candidates"].append({"id": "b", "emb": str(tmp_path / "src2.pemb"),
                                       "labels": str(tmp_path / "src.plbl")})
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        errors = []
        for command in (["rank"], ["substudy", "--fractions", "0.5,1.0", "--repeats", "2"]):
            assert main([*command, "--manifest", path, "--out", str(tmp_path / "r.json"), "--json"]) == 2
            errors.append(json.loads(capsys.readouterr().err))
        assert errors[0]["error"] == error
        assert errors[1] == errors[0]
    assert "row 5, col 1" in errors[0]["message"]


def test_no_command_loads_a_streamed_file_whole(files, monkeypatch, capsys):
    """score --method mmd/adist, a rank of every method and substudy, which
    draws many subsamples, read the PEMB target and source as row sources:
    every read takes one block of rows at most, where a whole load would
    read all 40 target rows at once."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, _, _ = files
    reader = PembRows.reader
    reads = []

    @contextlib.contextmanager
    def recording(self):
        with reader(self) as read:
            yield lambda lo, hi: reads.append((self.path.name, hi - lo)) or read(lo, hi)

    monkeypatch.setattr(PembRows, "reader", recording)
    manifest = _rank_manifest(tmp_path, list(METHOD_NAMES))
    for argv in (
        _score_argv(tmp_path, "mmd"),
        _score_argv(tmp_path, "adist"),
        ["rank", "--manifest", manifest, "--out", str(tmp_path / "r.json")],
        ["substudy", "--manifest", manifest, "--fractions", "0.5,1.0", "--repeats", "2",
         "--out", str(tmp_path / "s.json")],
    ):
        reads.clear()
        assert main(argv) == 0
        assert {name for name, _ in reads} == {"src.pemb", "tgt.pemb"}, argv
        assert max(rows for _, rows in reads) <= BLOCK, argv
    capsys.readouterr()

@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", ["mmd", "adist"])
def test_baseline_peak_is_flat_in_n(tmp_path, rng, monkeypatch, method, threads):
    """Traced peak of a baseline on a 7-block and a 14-block streamed
    target, both above its cap of 150 rows: the pooled matrix holds 300
    rows either way, so the larger target may cost one float64 block
    (512 KiB) more at most, where a float32 copy of its extra 1,792 rows
    would take 1.75 MiB."""
    block, dim = 256, 256
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    other = EmbeddingSet(rng.standard_normal((150, dim)))
    peaks = {}
    for blocks in (7, 14):
        target = _write_target(tmp_path / f"t{blocks}.pemb", rng.standard_normal((blocks * block, dim)))
        BASELINES[method](other, target, 150)  # first-call allocations stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            BASELINES[method](other, target, 150)
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert abs(peaks[14] - peaks[7]) <= block * dim * 8, peaks


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("streamed", [False, True], ids=["in_memory", "streamed"])
@pytest.mark.parametrize(
    "subset", [c for k in range(1, 5) for c in itertools.combinations(FAMILY, k)], ids="+".join
)
def test_pas_family_equals_the_single_calls(files, subset, streamed, threads, monkeypatch):
    """One fused pass gives each method the value and the four columns of
    its own scorer, bit for bit, for every subset of the family in either
    order, over six blocks of a streamed or an in-memory target."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    rows = open_embeddings(tmp_path / "tgt.pemb") if streamed else target.embeddings
    single = dict(SCORERS, oracle=lambda s, t: oracle_score(s, LabeledEmbeddingSet(t, target.labels, 5, False)))
    want = {m: single[m](source, rows) for m in subset}
    for methods in (list(subset), list(reversed(subset))):
        got = scores._pas_family(source, rows, methods, target.labels)
        assert list(got) == methods
        for m in methods:
            assert got[m].method == m
            for g, w in zip(_columns(got[m]), _columns(want[m])):
                np.testing.assert_array_equal(g, w, strict=True)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rank_reads_the_target_once_per_candidate_for_the_pas_family(files, monkeypatch, capsys, threads):
    """Each candidate's class sums read its source, then its one PAS-family
    pass reads the target. Two candidates may be scored at once, each on
    one thread, so the reads are checked per thread, in pairs."""
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, _, _ = files
    (tmp_path / "src2.pemb").write_bytes((tmp_path / "src.pemb").read_bytes())
    reader = PembRows.reader
    reads = {}
    monkeypatch.setattr(
        PembRows, "reader",
        lambda self: reads.setdefault(threading.get_ident(), []).append(self.path.name) or reader(self),
    )
    path = _rank_manifest(tmp_path, list(FAMILY))
    with open(path) as fh:
        manifest = json.load(fh)
    manifest["candidates"].append(dict(manifest["candidates"][0], id="b", emb=str(tmp_path / "src2.pemb")))
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    assert main(["rank", "--manifest", path, "--out", str(tmp_path / "r.json")]) == 0
    pairs = [tuple(names[i : i + 2]) for names in reads.values() for i in range(0, len(names), 2)]
    assert sorted(pairs) == [("src.pemb", "tgt.pemb"), ("src2.pemb", "tgt.pemb")]
    capsys.readouterr()


def test_score_candidate_gives_the_method_table_values_in_manifest_order(files, monkeypatch):
    """The family methods, scored together at the first of them, and the
    baselines between them give what each method gives alone: a PAS-family
    method its value and four columns bit for bit, a baseline its float."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, source, target = files
    rows = open_embeddings(tmp_path / "tgt.pemb")
    methods = ["mmd", "oracle", "silhouette", "pas_avg_pairwise", "adist", "pas"]
    configs = {m: resolve_method(m, True, 3, 12) for m in methods}
    got = score_candidate(source, rows, configs, target.labels)
    assert list(got) == methods
    for m in methods:
        alone = score_candidate(source, rows, {m: configs[m]}, target.labels)[m]
        if isinstance(alone, ScoreResult):
            assert got[m].method == m
            for g, w in zip(_columns(got[m]), _columns(alone)):
                np.testing.assert_array_equal(g, w, strict=True)
        else:
            assert isinstance(got[m], float) and got[m] == alone, m
    with pytest.raises(ConfigInvalid):  # the settings that score and rank resolve before any file is read
        resolve_method("oracle", False, 3, 12)


def test_pas_family_peak_stays_within_its_block_bytes(tmp_path, rng, monkeypatch):
    """Traced peak of a four-method pass at one worker, less its 16 output
    columns: the block bytes it states to the runner (unit buffer and one
    distance block, 8 * rows * (d + C), and the read buffer) plus a few
    256 KiB chunks (the copies for the methods that share the centroids,
    normalization's temporaries and the source tables). Holding both
    tables' products at once would add a 2 MiB distance block."""
    block, dim, classes = 1024, 32, 256
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "1")
    source = random_labeled(rng, n_per_class=2, num_classes=classes, dim=dim)
    target = _write_target(tmp_path / "t.pemb", rng.standard_normal((4 * block, dim)))
    labels = rng.integers(0, classes, target.n)
    scores._pas_family(source, target, list(FAMILY), labels)  # first-call allocations stay out
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        scores._pas_family(source, target, list(FAMILY), labels)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    stated = 8 * block * (dim + classes) + 4 * block * dim
    assert peak - 4 * 32 * target.n <= stated + 4 * 8 * embed_core._CHUNK_ENTRIES, (peak, stated)


def _labeled_rows(rng, n, dim, num_classes):
    """float32 rows around class means far from 0 and one label per row, so
    no class sum cancels at d = 1."""
    labels = rng.integers(0, num_classes, n)
    means = rng.choice([-1.0, 1.0], (num_classes, dim)) * rng.uniform(2.0, 4.0, (num_classes, dim))
    return (means[labels] + rng.standard_normal((n, dim))).astype(np.float32), labels


@pytest.mark.parametrize("take", ["all", "sparse", "dense"])
@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("dim", [1, 16])
def test_streamed_source_bit_identical_to_in_memory(tmp_path, rng, monkeypatch, dim, threads, take):
    """A 9,000-row source (two blocks at the real block size) read from
    an opened PEMB file and from the same float32 rows in memory gives the
    same bits: its class sums, all four PAS-family methods, silhouette,
    mmd (a capped draw) and adist. So does a view (embed_core._Take) of
    every third row, or of all rows but three, over the file and over the
    rows in memory, against a copy of those rows: a view block reads two
    8192-row spans."""
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    x, labels = _labeled_rows(rng, 9_000, dim, 5)
    target, target_labels = _labeled_rows(rng, 300, dim, 5)
    save_embeddings(tmp_path / "src.pemb", x)
    target = EmbeddingSet(target)
    sources = [EmbeddingSet(x), open_embeddings(tmp_path / "src.pemb")]
    if take != "all":
        idx = np.arange(0, 9_000, 3) if take == "sparse" else np.setdiff1d(np.arange(9_000), [1, 4_000, 8_500])
        sources = [EmbeddingSet(x[idx]), *(embed_core._Take(rows, idx) for rows in sources)]
        labels = labels[idx]
    runs = []
    for emb in sources:
        source = LabeledEmbeddingSet(emb, labels, 5)
        family = scores._pas_family(source, target, list(FAMILY), target_labels)
        runs.append([
            embed_core._class_sums(emb, labels, 5),
            *(np.float64(r.value) for r in family.values()),
            *(c for r in family.values() for c in r.breakdown_arrays()),
            baselines.silhouette(source),
            BASELINES["mmd"](emb, target, 500),
            BASELINES["adist"](emb, target, None),
        ])
    assert isinstance(getattr(source.embeddings, "source", source.embeddings), PembRows)
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("streamed", [False, True])
def test_source_zero_rows_in_two_blocks_report_the_lowest(tmp_path, rng, monkeypatch, streamed):
    """Zero rows 5 (class 2) and 6 (class 0) lie in block 0 and row 9
    (class 0) in block 1: a label order over the block meets row 6 first,
    and one over the whole source row 9. The class sums, so pas and
    silhouette, report row 5."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    x, labels = _labeled_rows(rng, 30, 4, 3)
    x[[5, 6, 9]] = 0.0
    labels[[5, 6, 9]] = [2, 0, 0]
    emb = _bad_target(tmp_path / "src.pemb", x) if streamed else EmbeddingSet(x)
    source = LabeledEmbeddingSet(emb, labels, 3)
    for run in (
        lambda: embed_core._class_sums(emb, labels, 3),
        lambda: pas(source, EmbeddingSet(x[10:])),
        lambda: baselines.silhouette(source),
    ):
        with pytest.raises(ZeroVector) as info:
            run()
        assert info.value.row_index == 5


@pytest.mark.parametrize("threads", ["1", "2"])
def test_source_non_finite_in_a_later_block_beats_a_zero_row(tmp_path, rng, monkeypatch, threads):
    """A streamed source with a zero row in block 0 and a NaN in block 2:
    the class-sum pass holds the zero row, so pas and silhouette report
    the NaN; without it pas reports the zero row."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    x, labels = _labeled_rows(rng, 30, 4, 3)
    x[3] = 0.0
    x[2 * BLOCK + 4, 1] = np.nan
    source = LabeledEmbeddingSet(_bad_target(tmp_path / "src.pemb", x), labels, 3)
    target = EmbeddingSet(x[:3])
    for run in (lambda: pas(source, target), lambda: baselines.silhouette(source)):
        with pytest.raises(NonFiniteValue) as info:
            run()
        assert (info.value.row, info.value.col) == (2 * BLOCK + 4, 1)
    x[2 * BLOCK + 4, 1] = 1.0
    source = LabeledEmbeddingSet(_bad_target(tmp_path / "src.pemb", x), labels, 3)
    with pytest.raises(ZeroVector) as zero:
        pas(source, target)
    assert zero.value.row_index == 3
