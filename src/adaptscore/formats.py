"""On-disk formats: PEMB/PLBL binaries, CSV embeddings and text labels
(read only), manifest and report JSON.

PEMB v1: magic "PEMB", version byte 1, dtype byte 0 (float32 LE), two
reserved zero bytes, n and d as u64 LE, then n*d floats row-major
(24-byte header). PLBL v1: magic "PLBL", version byte 1, three reserved
zero bytes, n as u64 LE, then n u32 LE class ids (16-byte header).
Values are stored at 32-bit precision. open_embeddings gives a PEMB file
as PembRows, a row source whose float32 rows every pass
(embed_core._row_pass) reads one block at a time, and a CSV file as an
EmbeddingSet of float64 rows; all arithmetic on either is float64.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import threading
from pathlib import Path

import numpy as np

from .corr import _load_json, _text_lines
from .embed_core import EmbeddingSet, _block_ranges, _check_finite, _check_shape, _integer_labels
from .errors import BadMagic, ManifestError, RaggedCsv, TruncatedFile
from .synth import SynthConfig

PEMB_MAGIC = b"PEMB"
PLBL_MAGIC = b"PLBL"
PEMB_HEADER = struct.Struct("<4sBB2xQQ")
PLBL_HEADER = struct.Struct("<4sB3xQ")

REPORT_SCHEMA = "adaptscore-report-v1"


def save_embeddings(path, e) -> None:
    """Write an EmbeddingSet, or an array-like validated as one, as PEMB.
    The rows go out one block at a time, each converted to float32 and
    written through the buffer protocol, so the writer holds one float32
    block, never a copy of the whole matrix. A value beyond float32 raises
    NonFiniteValue before its block; open_embeddings rejects the short file."""
    e = e if isinstance(e, EmbeddingSet) else EmbeddingSet(e)
    with open(path, "wb") as fh:
        fh.write(PEMB_HEADER.pack(PEMB_MAGIC, 1, 0, e.n, e.dim))
        for lo, hi in _block_ranges(e.n):
            with np.errstate(over="ignore"):
                block = e.data[lo:hi].astype("<f4", copy=False)
            _check_finite(block, lo)
            fh.write(block)


class PembRows:
    """The rows of a PEMB file whose header and size open_embeddings has
    checked: a row source (n, dim, reader()) for embed_core._row_pass
    that reads a block only when a pass asks for it."""

    def __init__(self, path: Path, n: int, dim: int):
        self.path = path
        self.n = n
        self.dim = dim

    @property
    def nbytes(self) -> int:
        return PEMB_HEADER.size + 4 * self.n * self.dim

    @contextlib.contextmanager
    def reader(self):
        """A context manager giving read(lo, hi): rows lo:hi read into a
        float32 buffer the calling thread keeps for the pass and checked
        finite (NonFiniteValue at the file's row), or TruncatedFile if the
        file has shrunk since it was opened. The threads share one open
        file under a lock for the seek and the read."""
        lock = threading.Lock()
        local = threading.local()
        with open(self.path, "rb") as fh:

            def read(lo, hi):
                buf = getattr(local, "buf", None)
                if buf is None or buf.shape[0] < hi - lo:
                    buf = local.buf = np.empty((hi - lo, self.dim), dtype="<f4")
                rows = buf[: hi - lo]
                with lock:
                    fh.seek(PEMB_HEADER.size + 4 * self.dim * lo)
                    if fh.readinto(rows) != rows.nbytes:
                        raise TruncatedFile(str(self.path), self.nbytes, os.fstat(fh.fileno()).st_size)
                _check_finite(rows, lo)
                return rows

            yield read


def _open_pemb(fh, path: Path) -> PembRows:
    """The PembRows of an open PEMB file: its header checked, and its size
    against the header's n and d."""
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(PEMB_HEADER.size)
    if len(header) < PEMB_HEADER.size:
        raise TruncatedFile(str(path), PEMB_HEADER.size, size)
    magic, version, dtype, n, d = PEMB_HEADER.unpack(header)
    if version != 1 or dtype != 0:
        raise BadMagic(str(path), header[:6])
    rows = PembRows(path, n, d)
    if size != rows.nbytes:
        raise TruncatedFile(str(path), rows.nbytes, size)
    _check_shape(n, d)
    return rows


def open_embeddings(path):
    """A PEMB file as PembRows (no row read yet), or a CSV file loaded as
    an EmbeddingSet (sniffed by magic bytes)."""
    path = Path(path)
    with open(path, "rb") as fh:
        if fh.read(4) == PEMB_MAGIC:
            fh.seek(0)
            return _open_pemb(fh, path)
        fh.seek(0)
        lines = _text_lines(path, fh.read())
    rows = []
    width = None
    for lineno, line in lines:
        fields = line.split(",")
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise RaggedCsv(str(path), lineno)
        try:
            rows.append([float(f) for f in fields])
        except ValueError:
            raise RaggedCsv(str(path), lineno) from None
    if not rows:
        raise TruncatedFile(str(path), 1, 0)
    return EmbeddingSet(np.asarray(rows, dtype=np.float64))


def _plbl_labels(labels) -> np.ndarray:
    """`labels` as a 1-D int64 array, or ValueError for a value that is not
    an integer or another shape (_integer_labels), or a label outside the
    PLBL range [0, 2**32)."""
    labels = _integer_labels(labels)
    bad = (labels < 0) | (labels >= 2**32)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"label {int(labels[i])} at index {i} is outside the PLBL range [0, 2**32)")
    return labels


def save_labels(path, labels) -> None:
    labels = _plbl_labels(labels)
    with open(path, "wb") as fh:
        fh.write(PLBL_HEADER.pack(PLBL_MAGIC, 1, labels.shape[0]))
        fh.write(labels.astype("<u4").tobytes())


def load_labels(path) -> np.ndarray:
    """Load a PLBL or plain-text label file (sniffed by magic bytes)."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] == PLBL_MAGIC:
        if len(blob) < PLBL_HEADER.size:
            raise TruncatedFile(str(path), PLBL_HEADER.size, len(blob))
        magic, version, n = PLBL_HEADER.unpack_from(blob)
        if version != 1:
            raise BadMagic(str(path), blob[:5])
        expected = PLBL_HEADER.size + 4 * n
        if len(blob) != expected:
            raise TruncatedFile(str(path), expected, len(blob))
        return np.frombuffer(blob, dtype="<u4", offset=PLBL_HEADER.size).astype(np.int64)
    values = []
    for lineno, line in _text_lines(path, blob):
        try:
            v = int(line.strip())
        except ValueError:
            raise RaggedCsv(str(path), lineno) from None
        if not 0 <= v < 2**32:  # the PLBL range
            raise RaggedCsv(str(path), lineno)
        values.append(v)
    if not values:
        raise TruncatedFile(str(path), 1, 0)
    return np.asarray(values, dtype=np.int64)


_JSON_TYPE_NAMES = {dict: "JSON object", list: "JSON list", str: "string"}


def manifest_field(entry: dict, key: str, where: str, kind: type):
    """entry[key], or ManifestError when entry is not a JSON object, lacks
    the key, or holds a value that is not a `kind`."""
    if not isinstance(entry, dict):
        raise ManifestError(f"{where} is not a JSON object")
    if key not in entry:
        raise ManifestError(f"{where} has no {key!r} key")
    if not isinstance(entry[key], kind):
        raise ManifestError(f"{where} {key!r} is not a {_JSON_TYPE_NAMES[kind]}")
    return entry[key]


def load_manifest(path) -> dict:
    """Read a rank/substudy manifest: its checked copy (_check_manifest)."""
    return _check_manifest(_load_json(path))


def _check_manifest(manifest) -> dict:
    """A copy of `manifest` with defaults for "methods", "seed" and
    "max_samples", or ManifestError unless it has a "target" entry, a
    non-empty list of "candidates" entries with unique string "id"s,
    "methods" as a non-empty list of unique names, and integer "seed" and
    "max_samples". An entry holds a "synth" object, which
    SynthConfig.from_dict parses (ConfigInvalid), or string "emb" and
    "labels" files ("labels" optional for the target). Other keys are
    ignored."""
    target = manifest_field(manifest, "target", "manifest", dict)
    candidates = manifest_field(manifest, "candidates", "manifest", list)
    if not candidates:
        raise ManifestError("manifest candidates must be a non-empty list")
    ids = [manifest_field(c, "id", f"candidate {i}", str) for i, c in enumerate(candidates)]
    if len(ids) != len(set(ids)):
        raise ManifestError("candidate ids must be unique")
    manifest = {"methods": ["pas"], "seed": 0, "max_samples": 10_000, **manifest}
    methods = manifest["methods"]
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ManifestError("manifest 'methods' is not a JSON list of strings")
    if not methods or len(methods) != len(set(methods)):
        raise ManifestError("manifest 'methods' must be a non-empty list of unique names")
    for key in ("seed", "max_samples"):
        if type(manifest[key]) is not int:  # not a float, bool or string
            raise ManifestError(f"manifest {key!r} is not an integer")
    entries = [("target", target)] + [(f"candidate {i!r}", c) for i, c in zip(ids, candidates)]
    for where, entry in entries:
        if "synth" in entry:
            SynthConfig.from_dict(manifest_field(entry, "synth", where, dict))
            continue
        for key in ("emb", "labels"):
            if key in entry or (where, key) != ("target", "labels"):
                manifest_field(entry, key, where, str)
    return manifest


def dump_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
