"""Embedding containers, the shared row primitives (block and chunk grid,
the block runner and row pass, unit rows, Gram-to-distance), the block
kernel (_table_pass) and unit-row class sums. Every scorer input, source
or target, is a row source read only through the row pass (_row_pass).

An EmbeddingSet, the in-memory row source, keeps float32 data as float32
(half the memory of a loaded PEMB file widened up front) and widens every
other dtype to float64. All arithmetic is float64 regardless of storage:
_unit_rows widens rows before the first operation, and everything derived
from the data (unit rows, class sums, class centroids) is float64.
Matrices are dense row-major.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateClass,
    LabelCountMismatch,
    LabelOutOfRange,
    MissingClass,
    NonFiniteValue,
    TooFewClasses,
    ZeroVector,
    check_fields,
)

# Norms at or below this are degenerate rather than normalizable.
EPS_NORM = 1e-12

# Rows of one block: one (block, d) @ (d, C) GEMM each in _table_pass. The
# GEMM shape is part of the bit-identity contract; BLAS picks its path by
# row count.
_BLOCK_ROWS = 8192
# Bytes that the blocks in flight of one pass may hold together, or two
# blocks when one is larger (so that a 73 MB streamed PAS block at 512-d
# and 345 classes, read buffer included, does not make PAS serial): no
# pass's memory grows with the CPU count. Two MMD walk blocks fit at its
# default cap (20,000 rows).
_FLIGHT_BYTES = 48 << 20
# float64 entries (256 KB) of the row chunks that normalization and the
# _table_pass's tails walk within a block, so their temporaries stay in cache.
_CHUNK_ENTRIES = 2**15


def _block_ranges(n: int, max_rows: int = _BLOCK_ROWS):
    """Row ranges of min(_BLOCK_ROWS, max_rows) rows (at least one) each."""
    step = max(1, min(_BLOCK_ROWS, max_rows))
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _chunk_ranges(n: int, width: int):
    """Row ranges of about _CHUNK_ENTRIES entries of `width` columns each."""
    return _block_ranges(n, _CHUNK_ENTRIES // width)


def worker_count() -> int:
    """Worker cap from ADAPTSCORE_THREADS; 0 or unset means one worker per
    CPU this process may run on (its affinity mask where the platform has
    one, so taskset or a container's CPU set does not oversubscribe)."""
    raw = os.environ.get("ADAPTSCORE_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n > 0:
        return n
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The thread-count functions of an OpenBLAS build, newest naming first:
# numpy 2's scipy-openblas, then OpenBLAS with 64-bit and 32-bit integers.
_OPENBLAS_SYMBOLS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy
    (numpy.libs, or numpy/.dylibs on macOS), called through ctypes as
    threadpoolctl does, or None where numpy bundles none (MKL, Accelerate,
    a system BLAS)."""
    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_SYMBOLS:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get and set_:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


class _BlasPin:
    """OpenBLAS at one thread while any block runner call runs (the runner
    is its only user), so every product gets the same bits whatever count
    the process's BLAS started with. The count is process-wide: the first
    to enter saves it and sets 1, the last concurrent one to leave restores it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    def __enter__(self):
        blas = _openblas()
        with self._lock:
            if self._depth == 0 and blas:
                self._saved = blas[0]()
                if self._saved != 1:
                    blas[1](1)
            self._depth += 1

    def __exit__(self, *exc):
        blas = _openblas()
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and blas and self._saved != 1:
                blas[1](self._saved)


_ONE_BLAS_THREAD = _BlasPin()


def _run_blocks(fn, ranges, row_bytes: int | None):
    """Yield fn(lo, hi) for each (lo, hi) of `ranges`, in block order.

    The one block runner, and the only code that pins BLAS to one thread
    (_ONE_BLAS_THREAD): every product a score takes runs in a call of it.
    Given `row_bytes`, what fn holds per row, blocks run on a thread pool,
    at most worker_count() at once and no more blocks of the first
    (largest) range than fit in _FLIGHT_BYTES, but two at least; with None
    in order on the calling thread, for a fn that must see them in order or
    a single computation ([(0, 1)]: MMD's window sample, the proxy probe).
    Results come back in block order whatever finishes first, so a
    consumer that combines them in order gets the same bits at any worker
    count. A consumer that stops early closes the generator: blocks not yet
    started are cancelled and running ones are waited for. The exception
    of the lowest block that raised one escapes at its turn.
    """
    cap = 1 if row_bytes is None else max(2, _FLIGHT_BYTES // (row_bytes * (ranges[0][1] - ranges[0][0])))
    workers = min(worker_count(), len(ranges), cap)
    with _ONE_BLAS_THREAD:
        if workers <= 1:
            for lo, hi in ranges:
                yield fn(lo, hi)
            return
        pool = ThreadPoolExecutor(max_workers=workers)
        flight = deque()
        try:
            for lo, hi in ranges:
                flight.append(pool.submit(fn, lo, hi))
                if len(flight) == workers:
                    yield flight.popleft().result()
            while flight:
                yield flight.popleft().result()
        finally:
            pool.shutdown(cancel_futures=True)


def _row_pass(source, fn, row_floats: int | None = None) -> None:
    """Call fn(lo, raw) on each row block lo:hi of `source`, a row source:
    n, dim and reader(), a context manager giving read(lo, hi), the finite
    raw rows lo:hi (EmbeddingSet gives views of its data; formats.PembRows
    reads each block from its file and raises NonFiniteValue as it goes).
    The blocks go through the block runner (_run_blocks): given
    `row_floats`, the float64 values fn holds per row (the read buffer is
    added), on its workers; without it in block order on the calling thread.

    A ZeroVector that fn raises is held until the pass ends, so a
    non-finite value anywhere wins over it; then the one of the lowest
    block is raised. Every pass over a source's or a target's rows keeps
    this order here.
    """

    def block(lo, hi):
        raw = read(lo, hi)
        try:
            fn(lo, raw)
        except ZeroVector as exc:
            return exc
        return None

    row_bytes = None if row_floats is None else 8 * row_floats + 4 * source.dim
    with source.reader() as read:
        zeros = [z for z in _run_blocks(block, _block_ranges(source.n), row_bytes) if z is not None]
    if zeros:
        raise zeros[0]


def _integer_labels(labels) -> np.ndarray:
    """`labels` as a 1-D int64 array, or ValueError for a value that is not
    an int64 integer: a fractional or non-finite float, which the cast
    would truncate (integral floats such as 2.0 pass), a string, a uint64
    value above the int64 maximum, which the cast would wrap, or a Python
    int beyond int64 (an object array); then for another shape."""
    arr = np.asarray(labels)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"labels of dtype {arr.dtype} are not int64 integers")
    if arr.dtype.kind == "f":
        ok = (arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)  # False for NaN and inf
    else:
        ok = arr <= np.iinfo(np.int64).max  # only a uint64 label can exceed it
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        raise ValueError(f"label {arr.ravel()[i].item()!r} at index {i} is not an int64 integer")
    if arr.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {arr.shape}")
    return arr.astype(np.int64, copy=False)


def _gram_to_distance(g: np.ndarray, metric: str) -> np.ndarray:
    """The dot products g of unit rows turned into distances in place:
    "cosine" is 1 - g clipped to [0, 2], "sqeuclidean" is max(2 - 2 g, 0)
    and "euclidean" its square root."""
    if metric == "cosine":
        np.subtract(1.0, g, out=g)
        return np.clip(g, 0.0, 2.0, out=g)
    g *= -2.0
    g += 2.0
    np.maximum(g, 0.0, out=g)
    return np.sqrt(g, out=g) if metric == "euclidean" else g


def _as_matrix(data, dtypes=(np.float64,)) -> np.ndarray:
    """A C-contiguous 2-D array of one of `dtypes`, widened to float64 when
    it is of none of them; ValueError for a dtype not bool, int or float."""
    arr = np.asarray(data)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"data of dtype {arr.dtype} are not real numbers")
    if arr.dtype not in dtypes:
        arr = arr.astype(np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


def _check_shape(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got shape {(n, d)}")


def _check_finite(rows: np.ndarray, first_row: int = 0) -> None:
    """NonFiniteValue(first_row + r, c) at the first non-finite entry (r, c)
    of `rows` in row-major order."""
    finite = np.isfinite(rows)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise NonFiniteValue(first_row + int(r), int(c))


@dataclass(frozen=True)
class EmbeddingSet:
    """An n x d matrix of finite real-valued feature embeddings.

    float32 data is kept as float32, other bool, int and float data are
    widened to float64, and any other dtype raises ValueError. Raises
    NonFiniteValue at the first non-finite entry in row-major order.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.data, (np.float32, np.float64))
        _check_shape(*arr.shape)
        # Row blocks bound the boolean temporary at block x d.
        for lo, hi in _block_ranges(arr.shape[0]):
            _check_finite(arr[lo:hi], lo)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def reader(self):
        """The row-source protocol that every pass reads (_row_pass): a
        context manager giving read(lo, hi), the rows lo:hi (a view of the
        data, already checked finite)."""
        return contextlib.nullcontext(lambda lo, hi: self.data[lo:hi])


class _Take:
    """The rows `idx` (ascending) of the row source `source`: a row source
    whose read(lo, hi) reads `source` in spans of at most _BLOCK_ROWS rows,
    each starting at its first index, and gathers the rows idx[lo:hi]. A
    streamed source checks every row of a span finite, drawn or not; rows
    between spans are not read, so a baseline's capped draw relies on its
    key pass (baselines._unit_key) for the finiteness of every row."""

    def __init__(self, source, idx: np.ndarray):
        self.source, self.idx = source, idx
        self.n, self.dim = idx.shape[0], source.dim

    @contextlib.contextmanager
    def reader(self):
        with self.source.reader() as read_source:

            def read(lo, hi):
                idx, parts, i = self.idx[lo:hi], [], 0
                while i < idx.shape[0]:
                    first = int(idx[i])
                    j = i + int(np.searchsorted(idx[i:], first + _BLOCK_ROWS))
                    parts.append(read_source(first, int(idx[j - 1]) + 1)[idx[i:j] - first])
                    i = j
                return parts[0] if len(parts) == 1 else np.concatenate(parts)

            yield read


@dataclass(frozen=True)
class LabeledEmbeddingSet:
    """A row source, such as an EmbeddingSet or a streamed formats.PembRows,
    plus one integer class id per row over C classes. Only n is read here;
    the scorers read the rows through _row_pass.

    By default every class id in [0, C) must appear at least once so
    every centroid is defined. Pass require_all_classes=False for label
    sets that only annotate rows (e.g. ground-truth target labels),
    where some classes may legitimately be absent.
    """

    embeddings: object  # a row source: n, dim and reader()
    labels: np.ndarray
    num_classes: int
    require_all_classes: bool = True

    def __post_init__(self):
        check_fields(self, ("num_classes",))
        labels = _integer_labels(self.labels)
        if labels.shape[0] != self.embeddings.n:
            raise LabelCountMismatch(labels.shape[0], self.embeddings.n)
        if self.num_classes < 2:
            raise TooFewClasses(self.num_classes)
        bad = (labels < 0) | (labels >= self.num_classes)
        if bad.any():
            raise LabelOutOfRange(int(labels[bad][0]), self.num_classes)
        object.__setattr__(self, "labels", labels)
        if self.require_all_classes:
            self._check_classes()

    def _check_classes(self) -> None:
        """MissingClass at the lowest class id without a row. The distinct
        labels of a sort, not bincount: a corrupt label file can claim ~2**32
        classes. Not np.unique either, which loads numpy.ma under numpy 2."""
        ys = np.sort(self.labels)
        present = ys[np.concatenate(([True], ys[1:] != ys[:-1]))]
        if present.shape[0] < self.num_classes:
            gaps = np.flatnonzero(present != np.arange(present.shape[0]))
            raise MissingClass(int(gaps[0]) if gaps.size else present.shape[0])

    @property
    def n(self) -> int:
        return self.embeddings.n

    @property
    def dim(self) -> int:
        return self.embeddings.dim


@dataclass(frozen=True)
class CentroidTable:
    """C unit-length class-centroid rows."""

    centroids: np.ndarray

    def __post_init__(self):
        arr = _as_matrix(self.centroids)
        if arr.shape[0] < 2:
            raise TooFewClasses(arr.shape[0])
        norms = np.linalg.norm(arr, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-6):
            raise ValueError("centroid rows must be unit length within 1e-6")
        object.__setattr__(self, "centroids", arr)

    @property
    def num_classes(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _unit_rows(rows: np.ndarray, first_row: int = 0, out: np.ndarray | None = None) -> np.ndarray:
    """A float64 copy of `rows` with every row scaled to unit norm, written
    to `out` (a new array unless given).

    The rows go through in chunks of about _CHUNK_ENTRIES float64 entries,
    so a chunk's square and norm temporaries stay in cache. Each chunk is
    widened into `out`, squared, summed along its rows with np.add.reduce
    and divided by the square root: np.linalg.norm's arithmetic, per row,
    so a row's unit row is bit-identical in any chunk, block or order.
    Raises ZeroVector(first_row + i) at the first row i with norm <=
    EPS_NORM or with a squared norm that overflows float64 (an entry above
    about 1.3e154), so a caller that walks a matrix in row blocks reports
    the matrix row.
    """
    n, d = rows.shape
    if out is None:
        out = np.empty((n, d))
    ranges = _chunk_ranges(n, d)
    sq = np.empty((ranges[0][1], d))
    with np.errstate(over="ignore"):
        for lo, hi in ranges:
            x = out[lo:hi]
            x[...] = rows[lo:hi]
            norms = np.add.reduce(np.multiply(x, x, out=sq[: hi - lo]), axis=1)
            np.sqrt(norms, out=norms)
            bad = (norms <= EPS_NORM) | (norms == np.inf)
            if bad.any():
                i = int(np.argmax(bad))
                if norms[i] == np.inf:
                    raise ZeroVector(first_row + lo + i, "has a squared norm that overflows float64")
                raise ZeroVector(first_row + lo + i)
            x /= norms[:, None]
    return out


def _table_pass(rows, tables) -> None:
    """The one block kernel: a pass (_row_pass) over the row source `rows`
    that multiplies its unit rows by class tables. `tables` is a list of
    (table, tails), each table a (C, d) float64 array.

    Each block unit-normalizes its rows into a buffer its worker thread
    keeps (_unit_rows), takes one (block, d) @ (d, C) GEMM per table, one
    table at a time, and walks it in row chunks of about _CHUNK_ENTRIES
    entries: tail(lo, unit, product) gets the chunk's first row, unit rows
    and products, in place for the table's last tail and as a copy for
    the others. Tails work per row, so no tail, chunk or worker count
    changes another's bits. The runner budgets d plus the widest C float64
    values per row (not the chunk copies); errors keep _row_pass's order.
    """
    local = threading.local()

    def block(lo, raw):
        if not hasattr(local, "unit"):
            local.unit = np.empty((min(_BLOCK_ROWS, rows.n), rows.dim))
        unit = _unit_rows(raw, lo, out=local.unit[: raw.shape[0]])
        for table, tails in tables:
            *others, last = tails
            product = unit @ table.T
            for a, b in _chunk_ranges(raw.shape[0], table.shape[0]):
                for tail in others:
                    tail(lo + a, unit[a:b], product[a:b].copy())
                last(lo + a, unit[a:b], product[a:b])
            del product  # before the next table's product

    _row_pass(rows, block, rows.dim + max(table.shape[0] for table, _ in tables))


def _class_sums(source, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """The num_classes x d float64 per-class sums of the unit rows
    (_unit_rows) of the row source `source`, whose row i has class
    labels[i]: the table behind every centroid and class mean.

    Each class's unit rows are added one at a time in row order, starting
    from 0, which is the order of np.add.at(sums, labels, unit_rows) and so
    gives its bits. One serial pass (_row_pass) carries the sums from block
    to block: each block's rows are gathered in a stable label order and
    normalized after a spare row, a class's running sum is written into the
    row just before its first row in the block, and one np.add.reduce over
    axis 0 carries it on row by row. With one column that reduce would be
    pairwise, so cumsum stands in. Neither a normalized copy nor the whole
    source is held. Raises ZeroVector at the lowest zero row; a non-finite
    value in a streamed source wins over it (_row_pass).
    """
    d = source.dim
    sums = np.zeros((num_classes, d))
    buf = np.empty((_block_ranges(source.n)[0][1] + 1, d))

    def add(lo, raw):
        ys = labels[lo : lo + raw.shape[0]]
        order = np.argsort(ys, kind="stable")
        ys = ys[order]
        try:
            _unit_rows(raw[order], out=buf[1 : ys.shape[0] + 1])
        except ZeroVector:
            _unit_rows(raw, lo)  # in row order, so the block's lowest zero row raises
            raise
        starts = [0, *(np.flatnonzero(np.diff(ys)) + 1).tolist()]
        for a, b in zip(starts, starts[1:] + [ys.shape[0]]):
            run = buf[a : b + 1]
            c = ys[a]
            run[0] = sums[c]
            sums[c] = np.add.reduce(run, axis=0) if d > 1 else np.cumsum(run[:, 0])[-1]

    _row_pass(source, add)
    return sums


def _centroid_table(sums: np.ndarray) -> np.ndarray:
    """The class sums scaled to unit rows (_unit_rows), a (C, d) float64
    array; DegenerateClass at the lowest class whose sum is a ZeroVector."""
    try:
        return _unit_rows(sums)
    except ZeroVector as exc:
        raise DegenerateClass(exc.row_index) from None
