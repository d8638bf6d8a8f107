"""adaptscore benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from ./src.
Workloads are listed in BENCHMARK.json and defined in workloads.py.

--trace 0 runs a closed loop with one client: each operation is one
`adaptscore` CLI subprocess, started after the previous one ended, with the
thread variables left at their defaults. Cycles of the workload's
operations repeat until S seconds have passed (at least one cycle), and
every output is checked against an independent float64 reference. It
prints the end-to-end metrics.

--trace 1 calls adaptscore.cli.main in-process: each operation once
untraced and once with every public function of the layers wrapped in
spans, then a cycle under tracemalloc for memory peaks. It prints the
per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# What the `adaptscore` console script runs.
CLI_ENTRY = "import sys; from adaptscore.cli import main; sys.exit(main())"
THREAD_VARS = ("ADAPTSCORE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SERIAL_ENV = {"ADAPTSCORE_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 3
MIN_HELP_RUNS = 5
IMPORTTIME_RUNS = 3
SERIAL_RUNS = 2
RUN_BUDGET_S = 170.0
OP_TIMEOUT_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "startup_s": "s",
    "setup_s": "s",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.import.scipy_s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "formats.load_embeddings.s": "s",
    "formats.load_embeddings.calls": "count",
    "formats.load_embeddings.bytes": "bytes",
    "formats.load_embeddings.peak_mb": "MB",
    "formats.load_labels.s": "s",
    "formats.save_embeddings.s": "s",
    "formats.save_embeddings.bytes": "bytes",
    "formats.save_labels.s": "s",
    "formats.load_manifest.s": "s",
    "formats.dump_report.s": "s",
    "embed_core.EmbeddingSet.s": "s",
    "embed_core.EmbeddingSet.calls": "count",
    "embed_core.LabeledEmbeddingSet.s": "s",
    "embed_core.LabeledEmbeddingSet.calls": "count",
    "embed_core.unit_normalize.s": "s",
    "embed_core.unit_normalize.calls": "count",
    "embed_core.unit_normalize.bytes": "bytes",
    "embed_core.class_centroids.s": "s",
    "embed_core.class_centroids.calls": "count",
    **{
        f"scores.{fn}.{field}": unit
        for fn in ("pas", "pas_euclidean", "pas_avg_pairwise", "oracle_score")
        for field, unit in (("s", "s"), ("self_s", "s"), ("cpu_s", "s"), ("calls", "count"), ("peak_mb", "MB"))
    },
    "scores.pas.gemm_flop": "flop",
    "scores.pas.gflop_per_s": "GFLOP/s",
    "scores.pas.serial_s": "s",
    "scores.pas.parallel_efficiency": "fraction",
    "baselines.mmd_gaussian.s": "s",
    "baselines.mmd_gaussian.self_s": "s",
    "baselines.mmd_gaussian.cpu_s": "s",
    "baselines.mmd_gaussian.peak_mb": "MB",
    "baselines.cdist.s": "s",
    "baselines.cdist.calls": "count",
    "baselines.cdist.pairs": "count",
    "baselines.silhouette.s": "s",
    "baselines.silhouette.peak_mb": "MB",
    "baselines.proxy_a_distance.s": "s",
    "baselines.proxy_a_distance.cpu_s": "s",
    "reporting.build_report.s": "s",
    "reporting.build_report.self_s": "s",
    "reporting.build_report.cpu_s": "s",
    "reporting.build_report.baselines_share": "fraction",
    "reporting.build_report.scores_share": "fraction",
    "reporting.load_candidate.s": "s",
    "reporting.score_candidate.s": "s",
    "evaluation.subsample_study.s": "s",
    "evaluation.subsample_study.self_s": "s",
    "evaluation.subsample_study.pas_calls": "count",
    "evaluation.rank_candidates.s": "s",
    "evaluation.pearson.s": "s",
    "evaluation.spearman.s": "s",
    "trace.overhead_s": "s",
}

# Counts derived from array shapes or file sizes rather than measured.
COMPUTED_COUNTS = {
    "scores.pas.gemm_flop": "2 * n * d * C per pas call",
    "embed_core.unit_normalize.bytes": "n * d * 8 of each normalized copy",
    "baselines.cdist.pairs": "n * m entries of each cdist result",
    "formats.*.bytes": "file sizes from os.stat",
}


@dataclass
class Result:
    rc: int
    wall: float
    cpu: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Runner:
    """Starts the CLI children one at a time and keeps the operation
    tally. Every child is waited for; one still running at its timeout is
    killed and counted as failed."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures = []
        env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.env = env

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def record(self, name: str, error) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{name}: {error}")
            print(f"FAIL {name}: {error}", file=sys.stderr)

    def spawn(self, args, env=None) -> Result:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        timeout = max(1.0, min(OP_TIMEOUT_S, self.time_left()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=env or self.env, cwd=self.work,
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(
            proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )

    def check(self, name, rc, stdout, stderr, check) -> None:
        if rc != 0:
            error = f"exit code {rc}: {stderr.strip()[-300:]}"
        elif "Traceback" in stderr:
            error = "traceback on stderr"
        else:
            try:
                error = check(stdout)
            except Exception as exc:  # malformed output is a failed operation
                error = f"unreadable output: {exc!r}"
        self.record(name, error)

    def cli(self, op) -> Result:
        r = self.spawn(["-c", CLI_ENTRY, *op.argv])
        self.check(op.name, r.rc, r.stdout, r.stderr, op.check)
        return r

    def in_process(self, op) -> float:
        start = time.perf_counter()
        rc, out, err = spans.call_main(op.argv)
        wall = time.perf_counter() - start
        self.check(op.name, rc, out, err, op.check)
        return wall


def _help_check(out: str):
    return None if out.startswith("usage: adaptscore") else "no usage text"


def _reset(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)


def _help(runner: Runner, walls: list) -> None:
    r = runner.spawn(["-c", CLI_ENTRY, "--help"])
    runner.check("help", r.rc, r.stdout, r.stderr, _help_check)
    walls.append(r.wall)


def timed_run(runner: Runner, wl, seconds: float) -> dict:
    # --help runs are spread over the whole run (after each set-up, before
    # each cycle and after the last), so a slow spell of the machine weighs
    # on startup_s no more than on the other metrics.
    setups, helps = [], []
    for k in range(SETUP_REPEATS):
        _reset(runner.work)
        start = time.perf_counter()
        wl.generate()
        op = wl.warmup()
        warm = runner.spawn(["-c", CLI_ENTRY, *op.argv])
        setups.append(time.perf_counter() - start)
        if k == 0:
            wl.compute_references()  # same seed, so the same inputs every time
        runner.check(op.name, warm.rc, warm.stdout, warm.stderr, op.check)
        _help(runner, helps)

    ops = wl.ops()
    walls = {op.name: [] for op in ops}
    cpus = {op.name: [] for op in ops}
    peak_kb = 0
    start = time.monotonic()
    last_cycle = 0.0
    while not last_cycle or (
        time.monotonic() - start < seconds and runner.time_left() > 1.5 * last_cycle
    ):
        _help(runner, helps)
        cycle_start = time.monotonic()
        for op in ops:
            r = runner.cli(op)
            walls[op.name].append(r.wall)
            cpus[op.name].append(r.cpu)
            peak_kb = max(peak_kb, r.maxrss_kb)
        last_cycle = time.monotonic() - cycle_start
    cycles = len(walls[ops[0].name])
    while len(helps) < MIN_HELP_RUNS:
        _help(runner, helps)

    metrics = {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "peak_rss_mb": peak_kb / 1024.0,
        "startup_s": statistics.median(helps),
        "setup_s": statistics.median(setups),
    }
    print(f"{cycles} cycle(s) of {len(ops)} operation(s); per-operation median wall s: "
          + ", ".join(f"{k} {statistics.median(v):.3f}" for k, v in walls.items()))
    print(f"setup s: {', '.join(f'{s:.3f}' for s in setups)}; help s: "
          f"{', '.join(f'{h:.3f}' for h in helps)}")
    return metrics


def _aggregate(span_list) -> dict:
    agg = {}
    for s, self_s in zip(span_list, spans.self_times(span_list)):
        a = agg.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        a["calls"] += 1
        a["s"] += s.duration
        a["self_s"] += self_s
        a["cpu_s"] += s.cpu
        for k, v in s.counts.items():
            a[k] = a.get(k, 0) + v
    return agg


def _share(span_list, prefix: str, within: str) -> float:
    """Part of the `within` spans' wall time covered by spans whose name
    starts with `prefix` (the union of their intervals)."""
    total = sum(s.duration for s in span_list if s.name == within)
    if total <= 0:
        return 0.0
    covered = spans.union_length(
        (s.start, s.end) for s in span_list if s.name.startswith(prefix)
    )
    return covered / total


def traced_run(runner: Runner, wl) -> dict:
    setup_tracer = spans.Tracer()
    with spans.installed(setup_tracer):
        wl.generate()
    wl.compute_references()

    imports = []
    for _ in range(IMPORTTIME_RUNS):
        r = runner.spawn(["-X", "importtime", "-c", "import adaptscore.cli"])
        imports.append(spans.parse_importtime(r.stderr))
        ok = r.rc == 0 and imports[-1][0] > 0
        runner.record("importtime", None if ok else f"exit code {r.rc} or no adaptscore lines")

    runner.in_process(wl.warmup())  # first-call costs stay out of the comparison
    untraced = traced = 0.0
    tracer = spans.Tracer()
    for op in wl.ops():  # alternate, so a slow spell of the machine hits both
        untraced += runner.in_process(op)
        with spans.installed(tracer):
            traced += runner.in_process(op)

    mem_tracer = spans.Tracer(peaks=True)
    tracemalloc.start()
    try:
        with spans.installed(mem_tracer):
            for op in wl.memory_ops():
                runner.in_process(op)
    finally:
        tracemalloc.stop()

    serial_s = 0.0
    op = wl.serial_op()
    if op is not None:
        env = dict(runner.env, **SERIAL_ENV)
        r = runner.spawn([str(HERE / "spans.py"), str(SERIAL_RUNS), *op.argv], env=env)
        try:
            child = json.loads(r.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            child = {"rc": [r.rc or 1], "stdout": [r.stderr[-300:]], "pas_s": [0.0]}
        for rc, out in zip(child["rc"], child["stdout"]):
            runner.check(f"{op.name}-serial", rc, out, "", op.check)
        serial_s = statistics.median(child["pas_s"])

    agg = _aggregate(tracer.spans)
    setup_agg = _aggregate(setup_tracer.spans)
    peaks = {}
    for s in mem_tracer.spans:
        peaks[s.name] = max(peaks.get(s.name, 0), s.peak_bytes)
    pas = agg.get("scores.pas", {})
    per_call = pas["s"] / pas["calls"] if pas.get("calls") else 0.0
    nproc = len(os.sched_getaffinity(0))
    derived = {
        "cli.import_s": statistics.median(i[0] for i in imports),
        "cli.import.scipy_s": statistics.median(i[1] for i in imports),
        "scores.pas.gflop_per_s": pas["gemm_flop"] / pas["self_s"] / 1e9 if pas.get("self_s") else 0.0,
        "scores.pas.serial_s": serial_s,
        "scores.pas.parallel_efficiency": serial_s / (nproc * per_call) if per_call else 0.0,
        "reporting.build_report.baselines_share": _share(tracer.spans, "baselines.", "reporting.build_report"),
        "reporting.build_report.scores_share": _share(tracer.spans, "scores.", "reporting.build_report"),
        "evaluation.subsample_study.pas_calls": spans.descendants_named(
            tracer.spans, "evaluation.subsample_study", "scores.pas"),
        "trace.overhead_s": traced - untraced,
    }
    metrics = {}
    for name in PER_LAYER:
        if name in derived:
            metrics[name] = derived[name]
            continue
        span_name, field = name.rsplit(".", 1)
        if field == "peak_mb":
            metrics[name] = peaks.get(span_name, 0) / 2**20
        else:
            source = setup_agg if span_name.startswith("formats.save_") else agg
            metrics[name] = source.get(span_name, {}).get(field, 0)
    print(f"in-process cycle wall s: untraced {untraced:.3f}, traced {traced:.3f}")
    return metrics


def _read_first(path, key=None):
    try:
        with open(path) as fh:
            for line in fh:
                if key is None:
                    return line.strip()
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, wl, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "loop": "closed, 1 client, one CLI child at a time",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "thread_vars_in_children": "unset (removed from every child's environment)",
        "page_cache": "warm after set-up; never dropped (machine settings untouched)",
        "computed_counts": COMPUTED_COUNTS,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "adaptscore" / "cli.py").is_file():
        print(f"error: no adaptscore sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    # On SIGTERM, unwind: the running child is killed and waited for, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    _reset(work)
    runner = Runner(root, work)
    wl = WORKLOADS[args.workload](work, args.seed)
    try:
        print("provenance " + json.dumps(provenance(root, wl, args.seed), sort_keys=True))
        if args.trace:
            metrics = traced_run(runner, wl)
            units = PER_LAYER
        else:
            metrics = timed_run(runner, wl, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(runner.failures)
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(f"error_rate = {failed}/{runner.attempted} = {failed / max(runner.attempted, 1)} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
