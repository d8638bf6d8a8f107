"""score reads a PEMB target block by block into per-worker buffers; with
the whole 205 MB target read first, this child peaked at 390 MB ru_maxrss,
and streamed it peaks at 234 MB (2-core host, numpy 2.4). mmd and adist
read the target through the same row source: one pass hashes it and a
second copies the drawn rows. With the target loaded whole they peaked at
402 and 378 MB, and streamed at about 207 and 203 MB. Every pass keeps at
most two of these blocks in flight, so pas at 8 workers stays under the
same bound; with one block per worker it read 766 MB. The swapped runs
score pas and silhouette with the 100,000-row file as the source against
the 10,350-row target: the source is streamed through the class-sum pass
(and silhouette's second pass), so they peaked at 169 and 234 MB, where a
source loaded whole took 361-366 and 435 MB. Inputs are written and the
library values computed on the in-memory arrays in another child, so the
measured children are forked from a small parent."""

import json
import sys
import tempfile

from _common import child, classes


def generate(tmp):
    # Every pass runs BLAS at one thread (the block runner pins it), as
    # in the score children: the PAS bits can depend on the BLAS thread count.
    from adaptscore import EmbeddingSet, LabeledEmbeddingSet, MmdConfig, ProxyClassifierConfig
    from adaptscore import mmd_gaussian, pas, proxy_a_distance, silhouette
    from adaptscore.formats import save_embeddings, save_labels

    ys, yt, (xs,), xt = classes(10_350, 100_000)
    save_embeddings(tmp + "/src.pemb", xs)
    save_labels(tmp + "/src.plbl", ys)
    save_embeddings(tmp + "/tgt.pemb", xt)
    s, t = EmbeddingSet(xs), EmbeddingSet(xt)
    value = pas(LabeledEmbeddingSet(s, ys, 345), t).value
    print(f"{value:.5f}")
    print(value.hex())
    print(mmd_gaussian(s, t, MmdConfig()).hex())
    print(proxy_a_distance(s, t, ProxyClassifierConfig()).hex())
    save_labels(tmp + "/tgt.plbl", yt)
    swapped = LabeledEmbeddingSet(t, yt, 345)
    print(pas(swapped, s).value.hex())
    print(silhouette(swapped).hex())


if sys.argv[1:]:  # the generator child
    sys.exit(generate(sys.argv[1]))
runs = {}
with tempfile.TemporaryDirectory() as tmp:
    gen = child(__file__, tmp)[0].split()
    for name, method, threads, swap in (
        ("pas", "pas", "2", False), ("pas@8", "pas", "8", False),
        ("mmd", "mmd", "2", False), ("adist", "adist", "2", False),
        ("pas swapped", "pas", "2", True), ("silhouette swapped", "silhouette", "2", True),
    ):
        source, target = ("tgt", "src") if swap else ("src", "tgt")
        out, peak_mb = child("-m", "adaptscore.cli", "score", "--method", method,
                             "--source-emb", f"{tmp}/{source}.pemb", "--source-labels", f"{tmp}/{source}.plbl",
                             "--target-emb", f"{tmp}/{target}.pemb", *([] if name == "pas" else ["--json"]),
                             ADAPTSCORE_THREADS=threads)
        runs[name] = out.strip() if name == "pas" else float(json.loads(out)["value"]).hex(), peak_mb
want = dict(zip(runs, gen))  # the generator prints one value per run, in this order
bounds = {"pas": 280, "pas@8": 280, "mmd": 260, "adist": 260, "pas swapped": 280, "silhouette swapped": 280}
for method, (got, peak_mb) in runs.items():
    value = want[method]
    print(f"{method}: score printed {got}, library {value}, ru_maxrss {peak_mb:.0f} MB")
    assert got == value, (method, got, value)
    assert peak_mb <= bounds[method], (method, peak_mb)
