"""On-disk formats: PEMB/PLBL binaries, CSV/text fallbacks, manifest and
report JSON.

PEMB v1: magic "PEMB", version byte 1, dtype byte 0 (float32 LE), two
reserved zero bytes, n and d as u64 LE, then n*d floats row-major
(24-byte header). PLBL v1: magic "PLBL", version byte 1, three reserved
zero bytes, n as u64 LE, then n u32 LE class ids (16-byte header).
Values are stored at 32-bit precision. A loaded PEMB file stays float32
in memory (CSV input is float64); all arithmetic on it is float64.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .embed_core import EmbeddingSet
from .errors import BadMagic, ManifestError, RaggedCsv, TruncatedFile

PEMB_MAGIC = b"PEMB"
PLBL_MAGIC = b"PLBL"
PEMB_HEADER = struct.Struct("<4sBB2xQQ")
PLBL_HEADER = struct.Struct("<4sB3xQ")

REPORT_SCHEMA = "adaptscore-report-v1"


def save_embeddings(path, e) -> None:
    """Write an EmbeddingSet, or an array-like validated as one, as PEMB."""
    e = e if isinstance(e, EmbeddingSet) else EmbeddingSet(e)
    payload = e.data.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(PEMB_HEADER.pack(PEMB_MAGIC, 1, 0, e.n, e.dim))
        fh.write(payload)


def save_embeddings_csv(path, e) -> None:
    """Write an EmbeddingSet, or an array-like validated as one, as CSV."""
    e = e if isinstance(e, EmbeddingSet) else EmbeddingSet(e)
    # repr of the float32 value round-trips within 1 ulp of 32-bit
    data32 = e.data.astype(np.float32)
    with open(path, "w") as fh:
        for row in data32:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _load_pemb(fh, path: Path, size: int) -> EmbeddingSet:
    """Read a PEMB payload with one readinto into an (n, d) float32 array."""
    header = fh.read(PEMB_HEADER.size)
    if len(header) < PEMB_HEADER.size:
        raise TruncatedFile(str(path), PEMB_HEADER.size, size)
    magic, version, dtype, n, d = PEMB_HEADER.unpack(header)
    if version != 1 or dtype != 0:
        raise BadMagic(str(path), header[:6])
    expected = PEMB_HEADER.size + 4 * n * d
    if size != expected:
        raise TruncatedFile(str(path), expected, size)
    arr = np.empty((n, d), dtype="<f4")
    got = fh.readinto(arr)
    if got != arr.nbytes:  # the file shrank while it was read
        raise TruncatedFile(str(path), expected, PEMB_HEADER.size + got)
    return EmbeddingSet(arr)  # rejects n == 0 or d == 0


def load_embeddings(path) -> EmbeddingSet:
    """Load a PEMB or CSV embedding file (sniffed by magic bytes)."""
    path = Path(path)
    with open(path, "rb") as fh:
        is_pemb = fh.read(4) == PEMB_MAGIC
        fh.seek(0)
        if is_pemb:
            return _load_pemb(fh, path, os.fstat(fh.fileno()).st_size)
        blob = fh.read()
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise BadMagic(str(path), blob[:4]) from None
    rows = []
    width = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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


def save_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    with open(path, "wb") as fh:
        fh.write(PLBL_HEADER.pack(PLBL_MAGIC, 1, labels.shape[0]))
        fh.write(labels.astype("<u4").tobytes())


def save_labels_text(path, labels) -> None:
    with open(path, "w") as fh:
        for v in np.asarray(labels, dtype=np.int64):
            fh.write(f"{int(v)}\n")


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
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError:
        raise BadMagic(str(path), blob[:4]) from None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
    """Read a rank/substudy manifest and check it (_check_manifest)."""
    with open(path) as fh:
        return _check_manifest(json.load(fh))


def _check_manifest(manifest) -> dict:
    """`manifest`, or ManifestError unless it has a "target" object, a
    non-empty list of "candidates" (each with a unique string "id" and
    "emb"/"labels" files or a "synth" config), and optional "methods",
    "seed" and "max_samples"."""
    manifest_field(manifest, "target", "manifest", dict)
    candidates = manifest_field(manifest, "candidates", "manifest", list)
    if not candidates:
        raise ManifestError("manifest candidates must be a non-empty list")
    ids = [manifest_field(c, "id", f"candidate {i}", str) for i, c in enumerate(candidates)]
    if len(ids) != len(set(ids)):
        raise ManifestError("candidate ids must be unique")
    methods = manifest.get("methods", [])
    if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
        raise ManifestError("manifest 'methods' is not a JSON list of strings")
    for key in ("seed", "max_samples"):
        if type(manifest.get(key, 0)) is not int:  # not a float, bool or string
            raise ManifestError(f"manifest {key!r} is not an integer")
    return manifest


def dump_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_accuracy_csv(path) -> dict:
    """candidate_id,accuracy_percent rows into a dict. A line without two
    fields or with an unparsable or non-finite accuracy raises RaggedCsv."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != 2:
                raise RaggedCsv(str(path), lineno)
            try:
                accuracy = float(parts[1])
            except ValueError:
                raise RaggedCsv(str(path), lineno) from None
            if not math.isfinite(accuracy):
                raise RaggedCsv(str(path), lineno)
            out[parts[0]] = accuracy
    return out
