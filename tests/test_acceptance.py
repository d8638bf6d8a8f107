"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with its measured numbers."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from adaptscore import (
    EmbeddingSet,
    LabeledEmbeddingSet,
    MmdConfig,
    ProxyClassifierConfig,
    SynthConfig,
    generate_pair,
    mmd_gaussian,
    nearest_centroid_accuracy,
    oracle_score,
    pas,
    pearson,
    proxy_a_distance,
    rank_candidates,
    spearman,
    subsample_study,
)
from adaptscore.formats import (
    load_labels,
    save_embeddings,
    save_labels,
)
from adaptscore.reporting import build_report
from conftest import random_labeled, random_orthogonal, read_embeddings
from reference_tables import OFFICE_31_RESNET50, OFFICE_HOME_RESNET50, flat
from test_baselines import brute_force_mmd


# one line per criterion; echoed in the terminal summary (see conftest.py)
ACCEPTANCE_LINES = []


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n:2d} {status}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, detail


def test_criterion_01_reference_correlations():
    start = time.perf_counter()
    x_oh, y_oh = flat(OFFICE_HOME_RESNET50)
    x_31, y_31 = flat(OFFICE_31_RESNET50)
    p_oh, s_oh = pearson(x_oh, y_oh), spearman(x_oh, y_oh)
    p_31, s_31 = pearson(x_31, y_31), spearman(x_31, y_31)
    elapsed = time.perf_counter() - start
    ok = (
        abs(p_oh - 0.81) <= 0.01
        and abs(s_oh - 0.82) <= 0.01
        and abs(p_31 - 0.73) <= 0.01
        and abs(s_31 - 0.66) <= 0.01
        and elapsed < 1.0
    )
    report(1, ok, f"correlations {p_oh:.3f}/{s_oh:.3f} and {p_31:.3f}/{s_31:.3f} in {elapsed:.3f}s")


def test_criterion_02_selection_regression():
    start = time.perf_counter()
    failures = []
    for table in (OFFICE_HOME_RESNET50, OFFICE_31_RESNET50):
        for g in table["groups"]:
            selected = rank_candidates(dict(zip(g["sources"], g["pas"])))[0]
            if selected != g["best"]:
                failures.append((g["target"], selected, g["best"]))
    elapsed = time.perf_counter() - start
    report(2, not failures and elapsed < 1.0, f"selections match on 7 groups, {failures=}")


def brute_force_pas(source_rows, source_labels, num_classes, target_rows):
    """Independent oracle: explicit loops and a full sort of the distance
    list per target sample."""
    def norm(v):
        return [x / math.sqrt(sum(e * e for e in v)) for x in v]

    src = [norm(r) for r in source_rows]
    centroids = []
    for c in range(num_classes):
        members = [src[i] for i in range(len(src)) if source_labels[i] == c]
        sums = [sum(col) for col in zip(*members)]
        centroids.append(norm(sums))
    contribs = []
    for row in target_rows:
        t = norm(row)
        dists = sorted(
            1.0 - sum(a * b for a, b in zip(t, mu)) for mu in centroids
        )
        d1, d2 = dists[0], dists[1]
        contribs.append(0.0 if d2 == 0 else (d2 - d1) / d2)
    return sum(contribs) / len(contribs)


def test_criterion_03_hand_evaluated_fixtures():
    src = LabeledEmbeddingSet(EmbeddingSet([[1.0, 0.0], [0.0, 1.0]]), [0, 1], 2)
    c30, s30 = math.cos(math.radians(30)), math.sin(math.radians(30))
    r2 = 1 / math.sqrt(2)
    cases = [([[c30, s30]], 0.73205), ([[r2, r2]], 0.0), ([[1.0, 0.0]], 1.0)]
    ok = True
    for target_rows, expected in cases:
        fast = pas(src, EmbeddingSet(target_rows)).value
        slow = brute_force_pas([[1, 0], [0, 1]], [0, 1], 2, target_rows)
        ok = ok and abs(fast - expected) < 1e-5 and fast == pytest.approx(slow, abs=1e-12)
    # streaming min/second-min path agrees with the sorted list exactly on
    # a crowded random instance
    rng = np.random.default_rng(77)
    src_r = random_labeled(rng, n_per_class=10, num_classes=6, dim=5)
    tgt_rows = rng.standard_normal((40, 5))
    fast = pas(src_r, EmbeddingSet(tgt_rows)).value
    slow = brute_force_pas(
        src_r.embeddings.data.tolist(), src_r.labels.tolist(), 6, tgt_rows.tolist()
    )
    ok = ok and abs(fast - slow) < 1e-12
    report(3, ok, "30deg/45deg/on-centroid fixtures and brute-force agreement")


def test_criterion_04_oracle_relation():
    rng = np.random.default_rng(2024)
    violations = 0
    equality_mismatch = 0
    for _ in range(1000):
        src = random_labeled(rng, n_per_class=4, num_classes=5, dim=16, spread=0.5)
        tgt = random_labeled(rng, n_per_class=2, num_classes=5, dim=16, spread=0.9)
        p = pas(src, tgt.embeddings)
        o = oracle_score(src, tgt)
        for pb, ob in zip(p.breakdown, o.breakdown):
            if ob.contribution > pb.contribution:
                violations += 1
            is_true_nearest = pb.nearest_class == tgt.labels[pb.sample_index]
            if is_true_nearest != (ob.contribution == pb.contribution):
                equality_mismatch += 1
    ok = violations == 0 and equality_mismatch == 0
    report(4, ok, f"1000 pairs: {violations} bound violations, {equality_mismatch} equality mismatches")


def test_criterion_05_invariance_suite():
    rng = np.random.default_rng(99)
    checks = {"orth": 0, "rescale": 0, "mmd_sym": 0, "mmd_nonneg": 0, "adist_range": 0, "pas_range": 0}
    for i in range(200):
        dim = int(rng.integers(3, 9))
        src = random_labeled(rng, n_per_class=int(rng.integers(2, 6)),
                             num_classes=int(rng.integers(2, 5)), dim=dim, spread=0.6)
        tgt = EmbeddingSet(rng.standard_normal((int(rng.integers(3, 12)), dim)))
        base = pas(src, tgt).value
        checks["pas_range"] += 0.0 <= base <= 1.0

        q = random_orthogonal(rng, dim)
        rotated = pas(
            LabeledEmbeddingSet(EmbeddingSet(src.embeddings.data @ q.T), src.labels, src.num_classes),
            EmbeddingSet(tgt.data @ q.T),
        ).value
        checks["orth"] += abs(rotated - base) < 1e-6

        # power-of-two scales are exact in IEEE-754, so normalization
        # absorbs them bit-for-bit; arbitrary scales agree to rounding
        ss = 2.0 ** rng.integers(-3, 4, size=src.n).astype(np.float64)
        st = 2.0 ** rng.integers(-3, 4, size=tgt.n).astype(np.float64)
        rescaled = pas(
            LabeledEmbeddingSet(EmbeddingSet(src.embeddings.data * ss[:, None]), src.labels, src.num_classes),
            EmbeddingSet(tgt.data * st[:, None]),
        ).value
        sa = rng.uniform(0.2, 5.0, size=src.n)
        ta = rng.uniform(0.2, 5.0, size=tgt.n)
        rescaled_any = pas(
            LabeledEmbeddingSet(EmbeddingSet(src.embeddings.data * sa[:, None]), src.labels, src.num_classes),
            EmbeddingSet(tgt.data * ta[:, None]),
        ).value
        checks["rescale"] += rescaled == base and abs(rescaled_any - base) < 1e-12

        cfg = MmdConfig(seed=i)
        m = mmd_gaussian(src.embeddings, tgt, cfg)
        checks["mmd_sym"] += m == mmd_gaussian(tgt, src.embeddings, cfg)
        checks["mmd_nonneg"] += m >= 0.0

        if src.n >= 4 and tgt.n >= 4:
            a = proxy_a_distance(src.embeddings, tgt, ProxyClassifierConfig(seed=i))
            checks["adist_range"] += 0.0 <= a <= 2.0
        else:
            checks["adist_range"] += 1
    ok = all(v == 200 for v in checks.values())
    report(5, ok, f"200-instance property counts {checks}")


def test_criterion_06_synthetic_correlation_closure():
    start = time.perf_counter()
    shifts = [0.0, 0.25, 0.5, 0.75]
    spreads = [0.1, 0.3, 0.5]
    worst = 1.0
    for seed in (1, 2, 3):
        pas_values, acc_values = [], []
        for sh in shifts:
            for sp in spreads:
                cfg = SynthConfig(10, 32, 100, 100, intra_spread=sp, shift=sh, seed=seed)
                s, t = generate_pair(cfg)
                pas_values.append(pas(s, t.embeddings).value)
                acc_values.append(nearest_centroid_accuracy(s, t))
        worst = min(worst, spearman(pas_values, acc_values))
    elapsed = time.perf_counter() - start
    report(6, worst >= 0.8 and elapsed < 60.0,
           f"12-config closure: worst spearman {worst:.3f} in {elapsed:.1f}s")


def test_criterion_07_subsample_stability():
    start = time.perf_counter()

    def make(shift):
        cfg = SynthConfig(5, 16, 400, 400, intra_spread=0.3, shift=shift, seed=11)
        return generate_pair(cfg)

    target = make(0.0)[1].embeddings
    sources = [make(sh)[1] for sh in (0.05, 0.45, 1.0)]  # shifted labeled domains
    full = sorted(pas(s, target).value for s in sources)
    gaps_ok = all(b - a > 0.05 for a, b in zip(full, full[1:]))
    res = subsample_study(sources, target, [0.1, 0.25, 0.5, 1.0], repeats=20, base_seed=42)
    total = sum(f * 20 for f in res.rank_match_fraction)
    match_rate = total / 80.0
    bit_identical = all(
        all(x == pas(s, target).value for x in res.scores[3][ci])
        for ci, s in enumerate(sources)
    )
    elapsed = time.perf_counter() - start
    ok = gaps_ok and match_rate >= 0.95 and bit_identical and elapsed < 30.0
    report(7, ok, f"match rate {match_rate:.2f}, gaps>0.05 {gaps_ok}, "
                  f"fraction-1.0 identical {bit_identical}, {elapsed:.1f}s")


def test_criterion_08_baseline_sanity():
    rng = np.random.default_rng(5)
    d = 16
    s = EmbeddingSet(np.eye(d)[0] + 0.01 * rng.standard_normal((100, d)))
    t = EmbeddingSet(np.eye(d)[1] + 0.01 * rng.standard_normal((100, d)))
    sep = proxy_a_distance(s, t, ProxyClassifierConfig(seed=0))

    iid_vals = []
    for seed in range(10):
        r = np.random.default_rng(seed)
        x = np.eye(d)[0] + 0.3 * r.standard_normal((200, d))
        iid_vals.append(proxy_a_distance(
            EmbeddingSet(x[:100]), EmbeddingSet(x[100:]), ProxyClassifierConfig(seed=seed)
        ))
    iid_mean = float(np.mean(iid_vals))

    closed = mmd_gaussian(
        EmbeddingSet([[1.0, 0.0], [1.0, 0.0]]),
        EmbeddingSet([[0.0, 1.0], [0.0, 1.0]]),
        MmdConfig(sigma=1.0),
    )

    from adaptscore.embed_core import _unit_rows
    from scipy.spatial.distance import cdist

    a = EmbeddingSet(rng.standard_normal((20, 4)))
    b = EmbeddingSet(rng.standard_normal((15, 4)))
    au, bu = _unit_rows(a.data), _unit_rows(b.data)
    pooled = np.vstack([au, bu])
    sigma = float(np.median(cdist(pooled, pooled, "euclidean")))
    fast = mmd_gaussian(a, b, MmdConfig())
    slow = brute_force_mmd(au, bu, sigma)

    ok = (
        abs(sep - 2.0) <= 0.05
        and iid_mean <= 0.2
        and abs(closed - (2 - 2 * math.exp(-1))) < 1e-9
        and abs(fast - slow) < 1e-12
    )
    report(8, ok, f"adist sep {sep:.3f}, iid mean {iid_mean:.3f}, "
                  f"closed-form err {abs(closed - (2 - 2 * math.exp(-1))):.1e}, "
                  f"triple-sum err {abs(fast - slow):.1e}")


_PERF_CHILD = r"""
import json, os, resource, time
import numpy as np
import adaptscore as a

rng = np.random.default_rng(0)
C, d, n_t = 345, 512, 100_000
means = rng.standard_normal((C, d)).astype(np.float64)
src = a.LabeledEmbeddingSet(
    a.EmbeddingSet(means.repeat(3, axis=0) + 0.1 * rng.standard_normal((C * 3, d))),
    np.arange(C).repeat(3), C)
tgt = a.EmbeddingSet(rng.standard_normal((n_t, d)))

os.environ["ADAPTSCORE_THREADS"] = "8"
t0 = time.perf_counter()
multi = a.pas(src, tgt)
t_multi = time.perf_counter() - t0

os.environ["ADAPTSCORE_THREADS"] = "1"
single = a.pas(src, tgt)

same = multi.value == single.value and all(
    m.tobytes() == s.tobytes() for m, s in zip(multi.breakdown_arrays(), single.breakdown_arrays()))
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"t_multi": t_multi, "peak_mb": peak_mb, "identical": same,
                  "value": multi.value}))
"""


def test_criterion_09_performance_smoke():
    proc = subprocess.run(
        [sys.executable, "-c", _PERF_CHILD], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    stats = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = stats["t_multi"] < 30.0 and stats["peak_mb"] < 2048 and stats["identical"]
    report(9, ok, f"100k x 512 x 345 in {stats['t_multi']:.1f}s, "
                  f"peak {stats['peak_mb']:.0f} MB, identical {stats['identical']}")


def test_criterion_10_round_trips_and_determinism(tmp_path):
    rng = np.random.default_rng(31)
    e = EmbeddingSet(rng.standard_normal((17, 6)))
    labels = rng.integers(0, 4, size=17)
    save_embeddings(tmp_path / "e.pemb", e)
    save_labels(tmp_path / "l.plbl", labels)
    emb_ok = np.array_equal(
        read_embeddings(tmp_path / "e.pemb").data,
        e.data.astype(np.float32).astype(np.float64),
    )
    lbl_ok = np.array_equal(load_labels(tmp_path / "l.plbl"), labels)

    synth = {"num_classes": 4, "dim": 8, "n_source_per_class": 20,
             "n_target_per_class": 20, "intra_spread": 0.2, "shift": 0.3,
             "seed": 2, "target_spread": None}
    manifest = {
        "target": {"synth": dict(synth, shift=0.0)},
        "candidates": [
            {"id": "a", "synth": dict(synth, shift=0.1)},
            {"id": "b", "synth": dict(synth, seed=77)},
        ],
        "methods": ["pas", "mmd"],
        "seed": 7,
    }
    r1 = build_report(manifest)
    r2 = build_report(manifest)
    r1.pop("created_at")
    r2.pop("created_at")
    det_ok = json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    consistency = all(
        r1["ranking"][m][0] == r1["selection"][m] for m in r1["ranking"]
    )
    ok = emb_ok and lbl_ok and det_ok and consistency
    report(10, ok, f"round trips {emb_ok and lbl_ok}, report determinism {det_ok}, "
                   f"ranking/selection consistency {consistency}")
