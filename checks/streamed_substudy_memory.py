"""substudy reads its PEMB target and both sources through the row pass,
and each subsample is a view of its drawn rows that reads the file in
spans of at most 8192 rows. With the three files loaded whole and each
subsample copied, this child peaked at 563 MB ru_maxrss; streamed it
peaked at 313-329 MB (2-core host, numpy 2.4). The study file must equal,
byte for byte, the study that subsample_study computes in the generator
child from the same float32 rows in memory. Inputs are written there, so
the measured child is forked from a small parent."""

import dataclasses
import json
import sys
import tempfile

from _common import child, classes


def generate(tmp):
    from adaptscore import EmbeddingSet, LabeledEmbeddingSet, subsample_study
    from adaptscore.formats import save_embeddings, save_labels

    ys, yt, sources, xt = classes(10_350, 100_000, spreads=(1.0, 1.2))
    for i, xs in enumerate(sources):
        save_embeddings(f"{tmp}/src{i}.pemb", xs)
    save_labels(tmp + "/src.plbl", ys)
    save_embeddings(tmp + "/tgt.pemb", xt)
    sources = [LabeledEmbeddingSet(EmbeddingSet(xs), ys, 345) for xs in sources]
    study = subsample_study(sources, EmbeddingSet(xt), [0.5, 1.0], 2, 1, ["a", "b"])
    print(json.dumps(dataclasses.asdict(study), indent=2, sort_keys=True))


if sys.argv[1:]:  # the generator child
    sys.exit(generate(sys.argv[1]))
with tempfile.TemporaryDirectory() as tmp:
    want = child(__file__, tmp)[0]
    candidates = [{"id": c, "emb": f"{tmp}/src{i}.pemb", "labels": f"{tmp}/src.plbl"}
                  for i, c in enumerate("ab")]
    with open(f"{tmp}/m.json", "w") as fh:
        json.dump({"target": {"emb": f"{tmp}/tgt.pemb"}, "candidates": candidates, "seed": 1}, fh)
    _, peak_mb = child("-m", "adaptscore.cli", "substudy", "--manifest", f"{tmp}/m.json",
                       "--fractions", "0.5,1.0", "--repeats", "2", "--out", f"{tmp}/study.json",
                       ADAPTSCORE_THREADS="2")
    with open(f"{tmp}/study.json") as fh:
        got = fh.read()
print(f"study identical {got == want}, ru_maxrss {peak_mb:.0f} MB")
assert got == want, (got, want)
assert peak_mb <= 380, peak_mb
