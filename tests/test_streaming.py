"""PEMB targets streamed through the PAS block kernel (formats.PembRows):
the same bits as the in-memory path, the error contract of a pass that
checks its rows block by block, and memory that stays flat in n."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from adaptscore import EmbeddingSet, LabeledEmbeddingSet, embed_core, formats, scores
from adaptscore.cli import main
from adaptscore.errors import NonFiniteValue, TruncatedFile, ZeroVector
from adaptscore.formats import (
    PembRows,
    open_embeddings,
    save_embeddings,
    save_embeddings_csv,
    save_labels,
)
from adaptscore.scores import oracle_score, pas, pas_avg_pairwise, pas_euclidean
from conftest import random_labeled

BLOCK = 7
SCORERS = {"pas": pas, "pas_euclidean": pas_euclidean, "pas_avg_pairwise": pas_avg_pairwise}


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


def test_open_gives_pemb_rows_and_loads_csv(files):
    tmp_path, _, target = files
    rows = open_embeddings(tmp_path / "tgt.pemb")
    assert isinstance(rows, PembRows)
    assert (rows.n, rows.dim) == (target.n, target.dim)
    save_embeddings_csv(tmp_path / "tgt.csv", target.embeddings)
    assert isinstance(open_embeddings(tmp_path / "tgt.csv"), EmbeddingSet)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("method", ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle"])
def test_streamed_bit_identical_to_in_memory(files, method, threads, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    source = LabeledEmbeddingSet(
        EmbeddingSet(source.embeddings.data.astype(np.float32)), source.labels, 5
    )
    streamed = open_embeddings(tmp_path / "tgt.pemb")
    in_memory = EmbeddingSet(target.embeddings.data.astype(np.float32))
    if method == "oracle":
        got = oracle_score(source, LabeledEmbeddingSet(streamed, target.labels, 5, False))
        want = oracle_score(source, LabeledEmbeddingSet(in_memory, target.labels, 5, False))
    else:
        got = SCORERS[method](source, streamed)
        want = SCORERS[method](source, in_memory)
    for g, w in zip(_columns(got), _columns(want)):
        np.testing.assert_array_equal(g, w, strict=True)


def test_shared_file_under_many_workers(files, monkeypatch):
    """Eight workers on two-row blocks with a short switch interval share
    one file; a read that lost its seek to another thread would put a
    wrong row in the columns."""
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", 2)
    tmp_path, source, target = files
    want = _columns(pas(source, EmbeddingSet(target.embeddings.data.astype(np.float32))))
    monkeypatch.setenv("ADAPTSCORE_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _columns(pas(source, open_embeddings(tmp_path / "tgt.pemb")))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w, strict=True)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("method", ["pas", "oracle"])
def test_score_json_same_bytes_for_pemb_and_csv_targets(files, method, capsys, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    tmp_path, _, target = files
    save_embeddings_csv(tmp_path / "tgt.csv", target.embeddings)
    outputs = []
    for name in ("tgt.pemb", "tgt.csv"):
        assert main(_score_argv(tmp_path, method, name)) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["breakdown"]) == target.n


@pytest.mark.parametrize("threads", ["1", "2"])
def test_non_finite_in_a_later_block_beats_a_zero_row(files, threads, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", threads)
    tmp_path, source, target = files
    data = target.embeddings.data.copy()
    data[3] = 0.0
    data[2 * BLOCK + 4, 6] = np.nan
    path = tmp_path / "bad.pemb"
    path.write_bytes(formats.PEMB_HEADER.pack(b"PEMB", 1, 0, *data.shape) + data.astype("<f4").tobytes())
    with pytest.raises(NonFiniteValue) as info:
        pas(source, open_embeddings(path))
    assert (info.value.row, info.value.col) == (2 * BLOCK + 4, 6)
    data[2 * BLOCK + 4, 6] = 1.0
    _write_target(path, data)
    with pytest.raises(ZeroVector) as zero:
        pas(source, open_embeddings(path))
    assert zero.value.row_index == 3


def test_lowest_non_finite_wins_across_workers(files, monkeypatch):
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", BLOCK)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "2")
    tmp_path, source, target = files
    data = target.embeddings.data.astype("<f4")
    data[4 * BLOCK + 1, 0] = np.inf
    data[BLOCK + 5, 8] = np.nan
    path = tmp_path / "bad.pemb"
    path.write_bytes(formats.PEMB_HEADER.pack(b"PEMB", 1, 0, *data.shape) + data.tobytes())
    with pytest.raises(NonFiniteValue) as info:
        pas(source, open_embeddings(path))
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

    monkeypatch.setattr("adaptscore.cli.open_embeddings", open_then_truncate)
    assert main(_score_argv(tmp_path, "pas")) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "TruncatedFile"
    assert isinstance(opened[0], PembRows)


def test_silhouette_reads_no_target_block(files, monkeypatch, capsys):
    tmp_path, _, _ = files
    load, reader = PembRows.load, PembRows.reader
    reads = []
    monkeypatch.setattr(PembRows, "load", lambda self: reads.append(self.path.name) or load(self))
    monkeypatch.setattr(PembRows, "reader", lambda self: reads.append(self.path.name) or reader(self))
    assert main(_score_argv(tmp_path, "silhouette")) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["value"], float)
    assert reads == ["src.pemb"]
    assert main(_score_argv(tmp_path, "pas")) == 0
    assert reads == ["src.pemb", "src.pemb", "tgt.pemb"]


def test_kernel_peak_is_flat_in_n(tmp_path, rng, monkeypatch):
    """Traced peak of the block kernel on a 7-block and a 14-block streamed
    target: the larger target may add its output columns (32 bytes a row)
    and nothing else, where a whole float32 copy of its extra rows would
    take 7 * 64 * 256 * 4 bytes."""
    block, dim = 64, 256
    monkeypatch.setattr(embed_core, "_BLOCK_ROWS", block)
    monkeypatch.setenv("ADAPTSCORE_THREADS", "1")
    source = random_labeled(rng, num_classes=4, dim=dim)
    peaks = {}
    for blocks in (7, 14):
        target = _write_target(tmp_path / f"t{blocks}.pemb", rng.standard_normal((blocks * block, dim)))
        centroids = scores._source_centroids(source, target)
        scores._block_kernel(target, centroids, "cosine")  # first-call allocations stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scores._block_kernel(target, centroids, "cosine")
            peaks[blocks] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert peaks[14] - peaks[7] <= 32 * 7 * block + 8192, peaks
    assert peaks[7] < 4 * block * dim * 8, peaks  # a few block buffers
