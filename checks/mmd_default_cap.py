"""The pooled 20,000 rows once went to one n x n BLAS product, which crashed
OpenBLAS's threaded SYRK with SIGSEGV; this step fails on any nonzero exit
of the child. The median must come from one walk of the triangle (a second
walk sums the kernel). The block runner's byte budget keeps at most two of
the walk's 20 MB blocks in flight on any number of CPUs. ru_maxrss was
203 MB with one block on a 2-core host with numpy 2.4 (255 MB with three
walks and a byte copy of both domains), and 225 MB with two blocks, also
at eight workers."""

import time

from _common import domains, own_peak_mb

from adaptscore import EmbeddingSet, MmdConfig, baselines, mmd_gaussian

walks = []
upper = baselines._upper_blocks
baselines._upper_blocks = lambda p, reduce: walks.append(p.shape) or upper(p, reduce)
s, t = domains(12_000)
start = time.perf_counter()
print(mmd_gaussian(EmbeddingSet(s), EmbeddingSet(t), MmdConfig()))
peak_mb = own_peak_mb()
print(f"{time.perf_counter() - start:.1f} s, {len(walks)} walks, ru_maxrss {peak_mb:.0f} MB")
assert len(walks) == 2, walks
assert peak_mb <= 235, peak_mb
