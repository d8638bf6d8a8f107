"""save_embeddings converts and writes one 8192-row float32 block at a
time; the float64 matrix itself takes 391 MiB. With a whole-matrix float32
copy and its bytes payload this child read 820 MB ru_maxrss, and block by
block 446 MB (2-core host, numpy 2.4)."""

import os
import tempfile

import numpy as np
from _common import own_peak_mb

from adaptscore.formats import save_embeddings

x = np.random.default_rng(0).standard_normal((100_000, 512))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "x.pemb")
    save_embeddings(path, x)
    size = os.path.getsize(path)
peak_mb = own_peak_mb()
print(f"{size} bytes, ru_maxrss {peak_mb:.0f} MB")
assert size == 24 + 4 * 100_000 * 512, size
assert peak_mb <= 480, peak_mb
