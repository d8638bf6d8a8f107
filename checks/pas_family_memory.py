"""One scores._pas_family pass scores pas, pas_euclidean, pas_avg_pairwise
and oracle against a streamed PEMB target: each block is read and
normalized once and takes one GEMM per table, one table at a time, so the
pass holds what one pas pass holds plus the 32 bytes a row of three more
methods' columns. Its values must equal the four single calls, computed in
the generator child on the in-memory arrays, by float.hex. ru_maxrss read
253 MB (pas alone 242 MB) on a 2-core host with numpy 2.4 with the source
loaded whole, and 232 MB now that load_candidate opens it; the bound
leaves the headroom of the pas bound in streamed_score_memory.py (280 MB
at 242). The four single calls took 3.1 s there and the fused pass 1.5 s."""

import sys
import tempfile

from _common import child, classes


def generate(tmp):
    from adaptscore import EmbeddingSet, LabeledEmbeddingSet, oracle_score, pas, pas_avg_pairwise, pas_euclidean
    from adaptscore.formats import save_embeddings, save_labels

    ys, yt, (xs,), xt = classes(10_350, 100_000)
    yt[::10] = (yt[::10] + 1) % 345  # so the oracle differs from pas
    save_embeddings(tmp + "/src.pemb", xs)
    save_labels(tmp + "/src.plbl", ys)
    save_embeddings(tmp + "/tgt.pemb", xt)
    save_labels(tmp + "/tgt.plbl", yt)
    s, t = LabeledEmbeddingSet(EmbeddingSet(xs), ys, 345), EmbeddingSet(xt)
    for r in (pas(s, t), pas_euclidean(s, t), pas_avg_pairwise(s, t),
              oracle_score(s, LabeledEmbeddingSet(t, yt, 345, require_all_classes=False))):
        print(r.method, r.value.hex())


def fused(tmp):
    from adaptscore import scores
    from adaptscore.formats import load_labels, open_embeddings
    from adaptscore.reporting import load_candidate

    source = load_candidate({"emb": tmp + "/src.pemb", "labels": tmp + "/src.plbl"})
    target = open_embeddings(tmp + "/tgt.pemb")
    labels = load_labels(tmp + "/tgt.plbl")
    methods = ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle"]
    for r in scores._pas_family(source, target, methods, labels).values():
        print(r.method, r.value.hex())


if sys.argv[1:]:  # a child: generate or fused
    sys.exit({"generate": generate, "fused": fused}[sys.argv[1]](sys.argv[2]))
with tempfile.TemporaryDirectory() as tmp:
    want = child(__file__, "generate", tmp)[0]
    got, peak_mb = child(__file__, "fused", tmp, ADAPTSCORE_THREADS="2")
print(got + f"ru_maxrss {peak_mb:.0f} MB")
assert got == want, (got, want)
assert peak_mb <= 295, peak_mb
