"""Command-line surface: the parser, the error reporting and main. The
commands live in reporting, which loads after the arguments parse, so
`--help` and usage errors load no numpy. corr runs from corr.py, on the
standard library, without loading it.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 method
precondition error. With --json, errors are emitted as a JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

from .corr import run as _run_corr
from .errors import AdaptScoreError, FormatError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PRECONDITION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adaptscore")
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score one source/target pair")
    p_score.add_argument("--method", required=True)
    p_score.add_argument("--source-emb", required=True)
    p_score.add_argument("--source-labels", required=True)
    p_score.add_argument("--target-emb", required=True)
    p_score.add_argument("--target-labels")
    p_score.add_argument("--seed", type=int, default=0)
    p_score.add_argument("--max-samples", type=int, default=10_000)

    p_rank = sub.add_parser("rank", help="score and rank manifest candidates")
    p_rank.add_argument("--manifest", required=True)
    p_rank.add_argument("--out", required=True)

    p_corr = sub.add_parser("corr", help="correlate report scores with accuracies")
    p_corr.add_argument("--report", required=True)
    p_corr.add_argument("--accuracy", required=True)
    p_corr.add_argument("--method", default="pas")

    p_synth = sub.add_parser("synth", help="generate a synthetic source/target pair")
    p_synth.add_argument("--config", required=True)
    p_synth.add_argument("--out-dir", required=True)

    p_sub = sub.add_parser("substudy", help="subsample-robustness study")
    p_sub.add_argument("--manifest", required=True)
    p_sub.add_argument("--fractions", required=True, help="comma-separated, e.g. 0.1,0.5,1.0")
    p_sub.add_argument("--repeats", type=int, default=10)
    p_sub.add_argument("--out", required=True)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _emit_error(exc: Exception, as_json: bool, code: int) -> None:
    if as_json:
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
            + "\n"
        )
    else:
        sys.stderr.write(f"error: {exc}\n")


def _load_commands():
    """The command layer (reporting), loaded once. The thread variables a
    user left unset are 1 while it loads numpy and are removed after it, so
    a child process does not inherit them: OpenBLAS sizes its thread pool
    then, and the block runner runs BLAS at one thread anyway, so a larger
    pool would only cost start-up time."""
    pinned = [v for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if v not in os.environ]
    os.environ.update(dict.fromkeys(pinned, "1"))
    try:
        return importlib.import_module(".reporting", __package__)
    finally:
        for name in pinned:
            del os.environ[name]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = _run_corr if args.command == "corr" else _load_commands().COMMANDS[args.command]
    as_json = getattr(args, "json", False)
    try:
        command(args)
    except (FormatError, OSError, ValueError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        _emit_error(exc, as_json, EXIT_DATA)
        return EXIT_DATA
    except AdaptScoreError as exc:
        _emit_error(exc, as_json, EXIT_PRECONDITION)
        return EXIT_PRECONDITION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
