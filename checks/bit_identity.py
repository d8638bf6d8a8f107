"""Tests patch the blocks small; here 20,000 target rows make three
8192-row GEMMs and MMD walks 10,000 pooled rows in 128-row blocks. The
value and all four columns of the four PAS-family scorers, and of each
method of one four-method pass (scores._pas_family), which must also equal
its scorer's, mmd_gaussian (median and fixed sigma) and silhouette(src),
the silhouette's one (cosine) form, must match bit for bit between one and
two block workers, and so must one (8192, 512) @ (512, 345) product, the
seeded inputs of tests/test_threads.py's _GEMM, computed in a block pass
(embed_core._run_blocks) on the calling thread and on two workers. It
runs with OPENBLAS_NUM_THREADS unset (importing adaptscore sets no BLAS
thread count, so OpenBLAS starts one thread per CPU), at one thread and at
two, and prints one digest of all bits per run; the three digests must
match. That holds because the block runner pins BLAS to one thread for
each pass. The scorers' data does not show a lost pin, but the product
does: OpenBLAS 0.3.31 rounds some of its entries differently at two
threads than at one, so with the pin removed this step prints two digests
and fails."""

import hashlib
import os
import sys

from _common import child, classes


def print_digest():
    """Score at one and two block workers, and print the digest of the bits."""
    import numpy as np

    from adaptscore import EmbeddingSet, LabeledEmbeddingSet, MmdConfig, mmd_gaussian, oracle_score, pas
    from adaptscore import pas_avg_pairwise, pas_euclidean, scores, silhouette
    from adaptscore.embed_core import _run_blocks

    gen = np.random.default_rng(0)
    a, b = gen.standard_normal((8192, 512)), gen.standard_normal((512, 345))
    ys, yt, (xs,), xt = classes(3_450, 20_000)
    src = LabeledEmbeddingSet(EmbeddingSet(xs), ys, 345)
    tgt = LabeledEmbeddingSet(EmbeddingSet(xt), yt, 345, require_all_classes=False)
    runs = {}
    for threads in ("1", "2"):
        os.environ["ADAPTSCORE_THREADS"] = threads
        singles = (pas(src, tgt.embeddings), pas_euclidean(src, tgt.embeddings),
                   pas_avg_pairwise(src, tgt.embeddings), oracle_score(src, tgt))
        fused = scores._pas_family(src, tgt.embeddings, [r.method for r in singles], yt)
        for r in singles:
            bits = [np.float64(r.value).tobytes()] + [c.tobytes() for c in r.breakdown_arrays()]
            f = fused[r.method]
            fused_bits = [np.float64(f.value).tobytes()] + [c.tobytes() for c in f.breakdown_arrays()]
            assert fused_bits == bits, r.method
            runs.setdefault(r.method, []).append(bits)
            runs.setdefault(f"fused {r.method}", []).append(fused_bits)
        for sigma in (None, 1.0):
            cfg = MmdConfig(sigma=sigma, max_samples_per_domain=5_000)
            runs.setdefault(f"mmd sigma={sigma}", []).append(mmd_gaussian(src.embeddings, tgt.embeddings, cfg).hex())
        runs.setdefault("silhouette", []).append(silhouette(src).hex())
        products = _run_blocks(lambda lo, hi: a @ b, [(0, 8192)] * 2, 1)
        runs.setdefault("gemm", []).append([hashlib.sha256(p.tobytes()).hexdigest() for p in products])
    digest = hashlib.sha256()
    for method, (one, two) in runs.items():
        print(method, "identical" if one == two else "DIFFERENT", file=sys.stderr)
        assert one == two, method
        digest.update(repr(one).encode())
    print(digest.hexdigest())


if sys.argv[1:] == ["digest"]:  # a child at one BLAS setting
    sys.exit(print_digest())
digests = []
for blas in (None, "1", "2"):
    digests.append(child(__file__, "digest", OPENBLAS_NUM_THREADS=blas)[0].strip())
    print(f"OPENBLAS_NUM_THREADS={blas or 'unset'}: digest {digests[-1]}", flush=True)
assert len(set(digests)) == 1, "the bits differ across BLAS settings"
