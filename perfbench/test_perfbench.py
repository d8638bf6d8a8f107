"""Tests of the benchmark's own parts: references, span arithmetic, output
checks and the metric list in BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import references as ref
import spans
from adaptscore import EmbeddingSet, LabeledEmbeddingSet
from adaptscore.baselines import MmdConfig, mmd_gaussian, silhouette
from adaptscore.evaluation import pearson, spearman
from adaptscore.scores import oracle_score, pas, pas_avg_pairwise, pas_euclidean
from run import END_TO_END, PER_LAYER, Runner
from workloads import _score_value, check_breakdown


def _pair(seed=0, classes=5, dim=8, n_src=60, n_tgt=70):
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim))
    src_y = np.arange(n_src) % classes
    tgt_y = rng.integers(0, classes, n_tgt)
    src = (means[src_y] + 0.7 * rng.standard_normal((n_src, dim))).astype(np.float32)
    tgt = (means[tgt_y] + 0.3 + 0.7 * rng.standard_normal((n_tgt, dim))).astype(np.float32)
    return src, src_y, tgt, tgt_y


def test_references_agree_with_the_package():
    src, src_y, tgt, tgt_y = _pair()
    got = ref.centroid_scores(src, src_y, tgt, tgt_y, block=16)
    source = LabeledEmbeddingSet(EmbeddingSet(src), src_y, 5)
    target = EmbeddingSet(tgt)
    labeled = LabeledEmbeddingSet(target, tgt_y, 5, require_all_classes=False)
    want = {
        "pas": pas(source, target),
        "pas_euclidean": pas_euclidean(source, target),
        "pas_avg_pairwise": pas_avg_pairwise(source, target),
        "oracle": oracle_score(source, labeled),
    }
    for method, result in want.items():
        assert got["values"][method] == pytest.approx(result.value, abs=1e-12)
    d1, d2, nearest, contrib = want["pas"].breakdown_arrays()
    np.testing.assert_allclose(got["breakdown"]["d1"], d1, atol=1e-12)
    np.testing.assert_allclose(got["breakdown"]["d2"], d2, atol=1e-12)
    np.testing.assert_allclose(got["breakdown"]["contribution"], contrib, atol=1e-12)
    np.testing.assert_array_equal(got["breakdown"]["nearest"], nearest)

    assert ref.mmd(src, tgt) == pytest.approx(
        mmd_gaussian(EmbeddingSet(src), target, MmdConfig()), abs=1e-12)
    assert ref.silhouette(src, src_y) == pytest.approx(silhouette(source), abs=1e-12)

    x, y = [0.3, 0.1, 0.1, 0.9, 0.5], [60.0, 52.5, 55.0, 80.0, 70.0]
    assert ref.pearson(x, y) == pytest.approx(pearson(x, y), abs=1e-12)
    assert ref.spearman(x, y) == pytest.approx(spearman(x, y), abs=1e-12)


def test_pemb_reader_matches_the_written_file(tmp_path):
    from adaptscore.formats import save_embeddings, save_labels

    src, src_y, _, _ = _pair()
    save_embeddings(tmp_path / "a.pemb", EmbeddingSet(src))
    save_labels(tmp_path / "a.plbl", src_y)
    np.testing.assert_array_equal(ref.read_pemb(tmp_path / "a.pemb"), src)
    np.testing.assert_array_equal(ref.read_plbl(tmp_path / "a.plbl"), src_y)


def _span(name, thread, parent, start, end):
    return spans.Span(name, thread, parent, start, end)


def test_self_time_of_nested_spans_on_two_threads():
    # main: root [0, 10] with child a [1, 3] (grandchild a1 [1.5, 2.5]);
    # a pool thread runs b [2, 6] and c [5, 8] parented to root, so the
    # children of root cover [1, 8] once, not 2 + 4 + 3.
    span_list = [
        _span("root", 1, None, 0.0, 10.0),
        _span("a", 1, 0, 1.0, 3.0),
        _span("a1", 1, 1, 1.5, 2.5),
        _span("b", 2, 0, 2.0, 6.0),
        _span("c", 3, 0, 5.0, 8.0),
    ]
    assert spans.self_times(span_list) == pytest.approx([3.0, 1.0, 1.0, 4.0, 3.0])


def test_tracer_parents_pool_spans_to_the_submitting_span():
    tracer = spans.Tracer()
    outer = tracer.begin("outer")
    worker = threading.Thread(target=lambda: tracer.end(tracer.begin("inner")))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(outer)
    inner = tracer.spans[1]
    assert inner.parent == outer and inner.thread != tracer.spans[outer].thread
    assert spans.descendants_named(tracer.spans, "outer", "inner") == 1


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:       400 |        400 |       scipy.stats",
        "import time:      1000 |       1700 |     adaptscore.evaluation",
        "import time:        50 |       1750 |   adaptscore",
        "import time:        30 |       1780 | adaptscore.cli",
        "import time:        10 |         10 | unrelated",
    ])
    own, scipy = spans.parse_importtime(text)
    assert own == pytest.approx(1780e-6)
    assert scipy == pytest.approx(700e-6)


def test_a_mutated_output_counts_as_a_failure(tmp_path):
    src, src_y, tgt, tgt_y = _pair()
    refs = ref.centroid_scores(src, src_y, tgt, tgt_y)
    value = refs["values"]["pas"]
    assert _score_value(f"{value:.5f}\n", value) is None
    assert _score_value(f"{value + 2e-5:.5f}\n", value) is not None

    source = LabeledEmbeddingSet(EmbeddingSet(src), src_y, 5)
    result = pas(source, EmbeddingSet(tgt))
    rows = [b.__dict__.copy() for b in result.breakdown]
    good = json.dumps({"method": "pas", "value": result.value, "breakdown": rows})
    assert check_breakdown(good, refs) is None
    rows[7]["d1"] += 1e-6
    bad = json.dumps({"method": "pas", "value": result.value, "breakdown": rows})
    assert check_breakdown(bad, refs) is not None

    runner = Runner(tmp_path, tmp_path)
    runner.check("score-pas", 0, f"{value + 2e-5:.5f}\n", "", lambda out: _score_value(out, value))
    runner.check("score-pas", 0, f"{value:.5f}\n", "Traceback (most recent call last)", lambda out: None)
    runner.check("score-pas", 2, "", "error: bad file", lambda out: None)
    runner.check("score-pas", 0, "not a number\n", "", lambda out: _score_value(out, value))
    assert (runner.attempted, len(runner.failures)) == (4, 4)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
