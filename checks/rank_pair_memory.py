"""rank scores two candidates at a time, so a rank child holds what two
candidates' passes hold at once. Two rank children run here at
ADAPTSCORE_THREADS=2, each with two candidates in flight, and must write
the report, created_at aside, of a rank at one worker, which scores the
candidates one after the other:
- the rank-office31 shape (31 classes, 256-d, candidates of 2,800 rows
  against an 800-row target, all seven methods), where each candidate's
  MMD keeps its 51 MiB median walk, so two walks are kept at once;
- the DomainNet shape, two sources drawn by _common.classes (10,350 rows,
  512-d, 345 classes) against its 100,000-row target, the PAS family plus
  adist.
On a 2-core host with numpy 2.4, ru_maxrss was 154-161 MB and 435 MB
(103 MB and 347 MB with one candidate at a time). At the DomainNet shape
the two candidates reach adist together, and each proxy sample holds two
10,350 x 512 float64 halves and a copy of its training rows: adist alone
on two candidates read 318 MB against 225 MB. The bounds leave about a
sixth of headroom. Inputs are written in another child, so the measured
children are forked from a small parent."""

import json
import sys
import tempfile

from _common import child, classes

SHAPES = {
    "office31": ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "mmd", "adist", "silhouette"],
    "domainnet": ["pas", "pas_euclidean", "pas_avg_pairwise", "oracle", "adist"],
}


def generate(tmp):
    import numpy as np

    from adaptscore.formats import save_embeddings, save_labels

    def write(shape, ys, yt, sources, xt):
        save_embeddings(f"{tmp}/{shape}-tgt.pemb", xt)
        save_labels(f"{tmp}/{shape}-tgt.plbl", yt)
        candidates = []
        for i, xs in enumerate(sources):
            save_embeddings(f"{tmp}/{shape}-src{i}.pemb", xs)
            save_labels(f"{tmp}/{shape}-src{i}.plbl", ys)
            candidates.append({"id": f"c{i}", "emb": f"{tmp}/{shape}-src{i}.pemb",
                               "labels": f"{tmp}/{shape}-src{i}.plbl"})
        manifest = {"target": {"emb": f"{tmp}/{shape}-tgt.pemb", "labels": f"{tmp}/{shape}-tgt.plbl"},
                    "candidates": candidates, "methods": SHAPES[shape], "seed": 1}
        with open(f"{tmp}/{shape}.json", "w") as fh:
            json.dump(manifest, fh)

    rng = np.random.default_rng(0)
    means = rng.standard_normal((31, 256))
    ys, yt = np.arange(2_800) % 31, rng.integers(0, 31, 800)
    sources = [(means[ys] + spread * rng.standard_normal((2_800, 256))).astype(np.float32) for spread in (1.0, 1.2)]
    write("office31", ys, yt, sources, (means[yt] + 1.5 * rng.standard_normal((800, 256))).astype(np.float32))
    write("domainnet", *classes(10_350, 100_000, spreads=(1.0, 1.2)))


def rank(tmp, shape, threads):
    """The rank report of `shape` at `threads` workers without created_at,
    and the child's ru_maxrss in MB."""
    out = f"{tmp}/{shape}-{threads}.json"
    _, peak_mb = child("-m", "adaptscore.cli", "rank", "--manifest", f"{tmp}/{shape}.json", "--out", out,
                       ADAPTSCORE_THREADS=threads)
    with open(out) as fh:
        report = json.load(fh)
    del report["created_at"]
    return report, peak_mb


if sys.argv[1:]:  # the generator child
    sys.exit(generate(sys.argv[1]))
runs = {}
with tempfile.TemporaryDirectory() as tmp:
    child(__file__, tmp)
    for shape in SHAPES:
        runs[shape] = rank(tmp, shape, "1")[0], *rank(tmp, shape, "2")
bounds = {"office31": 190, "domainnet": 500}
for shape, (one, two, peak_mb) in runs.items():
    print(f"{shape}: report at 2 workers {'equals' if two == one else 'differs from'} the one at 1, "
          f"ru_maxrss {peak_mb:.0f} MB")
    assert two == one, shape
    assert peak_mb <= bounds[shape], (shape, peak_mb)
