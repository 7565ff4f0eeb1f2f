"""Command-line runner for the verification suites."""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from typing import IO, ContextManager, Optional, Sequence

from .errors import ConfigError, FrameRigidityError
from .linalg import COMPLEX, DEFAULT_TOL
from .suites import SuiteConfig, list_suites, run_suite

TOL_ENV_VAR = "FRAME_RIGIDITY_TOL"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``verify`` parser, built once per process: parsing leaves it as it
    was, so every call of :func:`main` shares it."""
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run a named property suite and report per-property results.",
    )
    parser.add_argument("--suite", help="suite name; see --list-suites")
    parser.add_argument(
        "--ambient", type=int, default=4, help="ambient dimension, 2..8 (default 4)"
    )
    parser.add_argument(
        "--field", default=COMPLEX, help="real or complex (default complex)"
    )
    parser.add_argument(
        "--trials", type=int, default=1000, help="trials per property (default 1000)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help=f"base tolerance (default {DEFAULT_TOL}, or ${TOL_ENV_VAR} if set)",
    )
    parser.add_argument("--report", default=None, help="write the JSON report here")
    parser.add_argument(
        "--list-suites", action="store_true", help="print suite names and exit"
    )
    return parser


def _resolve_tol(flag_value: Optional[float]) -> float:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{TOL_ENV_VAR} is not a number: {raw!r}")


def _open_report(path: Optional[str]) -> ContextManager[Optional[IO[str]]]:
    # opened before any trial runs, so an unwritable path is a config error
    if path is None:
        return contextlib.nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc.strerror}")


def _property_line(record: dict) -> str:
    verdict = "PASS" if record["passed"] else "FAIL"
    line = (
        f"{verdict} {record['name']}: trials={record['trials']}"
        f" failures={record['failures']} worst_residual={record['worst_residual']:.3e}"
    )
    if record["violation_rate"] is not None:
        line += f" violation_rate={record['violation_rate']:.3f}"
    if record["first_failing_trial"] is not None:
        line += f" first_failing_trial={record['first_failing_trial']}"
    return line


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_suites:
        for name in list_suites():
            print(name)
        return 0

    try:
        if args.suite is None:
            raise ConfigError("missing --suite (or use --list-suites)")
        cfg = SuiteConfig(
            suite=args.suite,
            ambient=args.ambient,
            field=args.field,
            trials=args.trials,
            seed=args.seed,
            tol=_resolve_tol(args.tol),
        )
        cfg.validate()
        report_file = _open_report(args.report)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with report_file as handle:
        try:
            report = run_suite(cfg)
        except FrameRigidityError as exc:
            print(f"error: suite {cfg.suite}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        for record in (p.to_record() for p in report.properties):
            print(_property_line(record))
        verdict = "PASS" if report.passed else "FAIL"
        print(
            f"suite {report.suite}: {verdict}"
            f" ({len(report.properties)} properties,"
            f" {report.total_failures} failures, {report.wall_time_s:.2f}s)"
        )
        if handle is not None:
            handle.write(report.to_json())
    if handle is not None:
        print(f"report written to {args.report}")

    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
