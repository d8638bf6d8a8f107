"""Under a 64 MiB ceiling (baselines._KEPT_BYTES) the default-sigma MMD
keeps the distance blocks of its median walk, and the kernel sums reuse
them instead of walking the triangle again. Here `score --method mmd`
runs on 256-d PEMB files, a 2,800-row source against targets of 800 rows
(3,600 pooled rows, a 51 MiB walk, kept) and 1,600 rows (4,400 pooled
rows, a 76 MiB walk, above the ceiling: two walks), and must print the
bits that the library gives with the ceiling at 0, which forces the two
walks. On a 2-core host with numpy 2.4, ru_maxrss was 97 MB kept (54 MB
with two walks), and 58-60 MB above the ceiling either way. The kept bound
is the two-walk peak plus the ceiling (54 + 67 MB); the one above it
fails if a 76 MiB walk were kept. Inputs are written and the library
values computed in another child, so the measured children are forked
from a small parent."""

import json
import sys
import tempfile

from _common import child

TARGETS = {"kept": 800, "above": 1_600}


def generate(tmp):
    import numpy as np

    from adaptscore import EmbeddingSet, MmdConfig, baselines, embed_core, mmd_gaussian
    from adaptscore.formats import save_embeddings, save_labels

    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2_800, 256), dtype=np.float32)
    save_embeddings(tmp + "/src.pemb", xs)
    save_labels(tmp + "/src.plbl", np.arange(2_800) % 31)
    ceiling = baselines._KEPT_BYTES
    baselines._KEPT_BYTES = 0
    for name, rows in TARGETS.items():
        xt = rng.standard_normal((rows, 256), dtype=np.float32)
        xt += 0.05
        save_embeddings(f"{tmp}/{name}.pemb", xt)
        n = 2_800 + rows
        walk = 8 * sum((hi - lo) * (n - lo) for lo, hi in embed_core._block_ranges(n, baselines._MMD_BLOCK_ROWS))
        assert (walk <= ceiling) == (name == "kept"), (name, walk)
        print(mmd_gaussian(EmbeddingSet(xs), EmbeddingSet(xt), MmdConfig()).hex())


if sys.argv[1:]:  # the generator child
    sys.exit(generate(sys.argv[1]))
runs = {}
with tempfile.TemporaryDirectory() as tmp:
    want = dict(zip(TARGETS, child(__file__, tmp)[0].split()))
    for name in TARGETS:
        out, peak_mb = child("-m", "adaptscore.cli", "score", "--method", "mmd", "--json",
                             "--source-emb", f"{tmp}/src.pemb", "--source-labels", f"{tmp}/src.plbl",
                             "--target-emb", f"{tmp}/{name}.pemb", ADAPTSCORE_THREADS="2")
        runs[name] = float(json.loads(out)["value"]).hex(), peak_mb
bounds = {"kept": 121, "above": 70}
for name, (got, peak_mb) in runs.items():
    print(f"{name}: score printed {got}, library with two walks {want[name]}, ru_maxrss {peak_mb:.0f} MB")
    assert got == want[name], (name, got, want[name])
    assert peak_mb <= bounds[name], (name, peak_mb)
