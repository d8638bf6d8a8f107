"""Span tracer that wraps the public functions of the adaptscore modules
from outside the package, so no file under src/ has to change.

A span records wall time, process CPU time and, when tracemalloc peaks are
requested, the traced-memory peak above the traced size at its start. The
span's parent is the innermost open span on its own thread; a span that
starts on a worker thread with nothing open there is parented to the
innermost span open on the thread that created the tracer (the candidate
pool in reporting.build_report is submitted from that thread).

Run as a script, this module calls ``adaptscore.cli.main(argv)`` in-process
under the tracer a few times and prints the ``scores.pas`` span durations
and the captured outputs as one JSON line. The benchmark uses that to time
``pas`` in a child whose thread variables differ from its own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import threading
import time
import traceback
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "formats", "embed_core", "scores", "baselines", "evaluation", "reporting")
# Container classes whose construction (validation) is timed through __init__.
TRACED_CLASSES = ("EmbeddingSet", "LabeledEmbeddingSet", "CentroidTable")


@dataclass
class Span:
    name: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    start_traced: int = 0
    peak: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def peak_bytes(self) -> int:
        return self.peak - self.start_traced


class Tracer:
    """Collects spans in memory. With peaks=True, tracemalloc must be
    tracing; every span then records its traced-memory peak."""

    def __init__(self, peaks: bool = False):
        self.spans: list[Span] = []
        self.peaks = peaks
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = {}
        self._open: set[int] = set()
        self._lock = threading.Lock()

    def _fold_peak(self) -> int:
        # The peak since the last reset belongs to every span open now.
        current, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            if self.spans[i].peak < peak:
                self.spans[i].peak = peak
        tracemalloc.reset_peak()
        return current

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if tid != self._main and main else None
            span = Span(name, tid, parent, 0.0)
            idx = len(self.spans)
            self.spans.append(span)
            stack.append(idx)
            if self.peaks:
                span.start_traced = span.peak = self._fold_peak()
                self._open.add(idx)
        span.cpu = time.process_time()
        span.start = time.perf_counter()
        return idx

    def end(self, idx: int, counts=None) -> None:
        end = time.perf_counter()
        cpu = time.process_time()
        with self._lock:
            span = self.spans[idx]
            span.end = end
            span.cpu = cpu - span.cpu
            if counts:
                span.counts = counts
            if self.peaks:
                self._fold_peak()
                self._open.discard(idx)
            self._stacks[span.thread].pop()

    def wrap(self, name: str, fn, counter=None):
        """`fn` recording a span per call. `counter` maps the call's bound
        arguments to the span's counts."""
        bind = inspect.signature(fn).bind if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx, counter(bind(*args, **kwargs).arguments) if counter else None)
            return result

        return traced


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover. Children on other threads may overlap one another, so the
    covered part is the union of their intervals, not their sum."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(s)
    return [
        s.duration
        - union_length((max(c.start, s.start), min(c.end, s.end)) for c in children[i])
        for i, s in enumerate(spans)
    ]


def descendants_named(spans, ancestor: str, name: str) -> int:
    """Number of spans called `name` that have a span called `ancestor`
    above them."""
    count = 0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None:
            if spans[p].name == ancestor:
                count += 1
                break
            p = spans[p].parent
    return count


# Counts recorded at the layer boundaries, from the call's arguments. File
# sizes are measured; the others are computed from array shapes.
COUNTERS = {
    "formats.load_embeddings": lambda p: {"bytes": os.stat(p["path"]).st_size},
    "formats.save_embeddings": lambda p: {"bytes": os.stat(p["path"]).st_size},
    "embed_core.unit_normalize": lambda p: {"bytes": p["e"].data.size * 8},
    "baselines.cdist": lambda p: {"pairs": p["XA"].shape[0] * p["XB"].shape[0]},
    "scores.pas": lambda p: {
        "gemm_flop": 2 * p["target"].n * p["target"].dim * p["source"].num_classes
    },
}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every public function of the adaptscore layers (and scipy's
    cdist as baselines calls it) through `tracer` for the duration of the
    block, in every adaptscore namespace that refers to it."""
    modules = {m: importlib.import_module(f"adaptscore.{m}") for m in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                full = f"{layer}.{name}"
                wrappers[id(obj)] = tracer.wrap(full, obj, COUNTERS.get(full))
    cdist = modules["baselines"].cdist
    wrappers[id(cdist)] = tracer.wrap("baselines.cdist", cdist, COUNTERS["baselines.cdist"])

    patched = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "adaptscore" or modname.startswith("adaptscore.")):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers:
                patched.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])
    for cls_name in TRACED_CLASSES:
        cls = getattr(modules["embed_core"], cls_name)
        patched.append((cls, "__init__", cls.__init__))
        cls.__init__ = tracer.wrap(f"embed_core.{cls_name}", cls.__init__)
    try:
        yield tracer
    finally:
        for owner, name, obj in reversed(patched):
            setattr(owner, name, obj)


def call_main(argv):
    """adaptscore.cli.main(argv) in-process -> (exit code, stdout, stderr).
    An exception escaping main is reported as exit code 1 with its
    traceback on stderr, as the interpreter would print it."""
    from adaptscore import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # the benchmark counts it as a failed operation
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def parse_importtime(text: str) -> tuple[float, float]:
    """(adaptscore import s, scipy import s) from `python -X importtime`
    output. The adaptscore figure sums the cumulative time of top-level
    adaptscore imports; the scipy figure sums the cumulative time of each
    scipy module imported from outside scipy."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # header
        raw = name[1:]
        depth = (len(raw) - len(raw.lstrip(" "))) // 2
        entries.append((depth, int(cumulative) * 1e-6, raw.strip()))

    def is_pkg(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    own = sum(c for d, c, n in entries if d == 0 and is_pkg(n, "adaptscore"))
    scipy = 0.0
    stack = []  # parents come after children in the output, so walk backwards
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if is_pkg(name, "scipy") and not is_pkg(parent, "scipy"):
            scipy += cumulative
        stack.append((depth, name))
    return own, scipy


def _child_main(argv) -> int:
    repeats = int(argv[0])
    results = {"rc": [], "stdout": [], "pas_s": []}
    for _ in range(repeats):
        tracer = Tracer()
        with installed(tracer):
            rc, out, err = call_main(argv[1:])
        results["rc"].append(rc)
        results["stdout"].append(out if rc == 0 else err)
        results["pas_s"].append(sum(s.duration for s in tracer.spans if s.name == "scores.pas"))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
