import numpy as np
import pytest

from adaptscore import EmbeddingSet, LabeledEmbeddingSet
from adaptscore.formats import open_embeddings


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_labeled(rng, n_per_class=20, num_classes=3, dim=8, spread=0.3):
    """Clustered labeled set around random unit directions."""
    means = rng.standard_normal((num_classes, dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    rows, labels = [], []
    for c in range(num_classes):
        rows.append(means[c] + spread * rng.standard_normal((n_per_class, dim)))
        labels.extend([c] * n_per_class)
    return LabeledEmbeddingSet(
        EmbeddingSet(np.vstack(rows)), np.array(labels), num_classes
    )


def write_csv(path, data):
    """The rows of `data` as a CSV embedding file: each value cast to
    float32 and written as the repr of that value, comma-separated, one row
    per line."""
    rows = np.asarray(data, dtype=np.float32).tolist()
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))


def read_embeddings(path):
    """Every row of an embedding file as one EmbeddingSet: the file opened
    by open_embeddings and its rows read, checked finite, through its
    row-source reader. A PEMB file's rows stay float32."""
    rows = open_embeddings(path)
    with rows.reader() as read:
        return EmbeddingSet(read(0, rows.n).copy())


def random_orthogonal(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion acceptance lines after the run, even when
    stdout capture is on."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
