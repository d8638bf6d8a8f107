"""The probe compares two samples of min(n_s, n_t) = 10,350 rows: the
pooled float64 matrix and one copy of its training half. The float32
inputs take 255 MB (the target is shifted in place). With the whole
unbalanced domains stacked for training this child read 490 MB
ru_maxrss, and with equal samples 377 MB (2-core host, numpy 2.4); the
bound leaves ~17 % headroom."""

from _common import domains, own_peak_mb

from adaptscore import EmbeddingSet, ProxyClassifierConfig, proxy_a_distance

s, t = domains(100_000)
print(proxy_a_distance(EmbeddingSet(s), EmbeddingSet(t), ProxyClassifierConfig()))
peak_mb = own_peak_mb()
print(f"ru_maxrss {peak_mb:.0f} MB")
assert peak_mb <= 440, peak_mb
