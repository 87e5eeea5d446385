"""Command line front end.

Subcommands:
  pipeline     run the full derivation and write text/machine reports
  push         evaluate one localization pushforward from a job file
  nf           normal form of a polynomial modulo an ideal file
  fiber-check  verify a cartesian square of graded rings from a job file

Exit codes: 0 all checks match, 1 at least one mismatch, 2 bad input.
The random seed comes from --seed, then EQUICHOW_SEED, then 0.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .groebner import MonomialOrder, normal_form, strong_groebner
from .jobfile import (
    CAPS,
    parse_fixture_overrides,
    parse_ideal_job,
    parse_push_job,
    parse_square_job,
)
from .localization import DenominatorResidue, pushforward, specialize_oracle
from .pipeline import run_all
from .poly import PolyError
from .presentation import verify_cartesian
from .textio import ParseError, parse_poly

EXIT_MATCH = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


def _capped(option: str):
    """The argparse type of an integer between 0 and CAPS[option]."""

    def integer(text: str) -> int:
        number = int(text)
        if number < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        if number > CAPS[option]:
            raise argparse.ArgumentTypeError(f"must be <= {CAPS[option]}")
        return number

    return integer


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="equichow",
        description="exact equivariant-localization and integer Groebner engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the full derivation")
    p.add_argument("--degree-bound", type=_capped("degree_bound"), default=8)
    p.add_argument("--oracle-trials", type=_capped("oracle_trials"), default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--report", help="write the text report to this path")
    p.add_argument("--machine-report", help="write the machine report to this path")
    p.add_argument("--fixtures", help="fixture override file (see docs)")

    p = sub.add_parser("push", help="localization pushforward from a job file")
    p.add_argument("job", help="path to the job file")
    p.add_argument("--oracle-trials", type=_capped("oracle_trials"), default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("nf", help="normal form modulo an ideal file")
    p.add_argument("--gens", required=True, help="path to the ideal file")
    p.add_argument("poly", help="polynomial in canonical text syntax")

    p = sub.add_parser("fiber-check", help="verify a cartesian square job")
    p.add_argument("job", help="path to the square file")
    p.add_argument("--degree-bound", type=_capped("degree_bound"), default=None)
    return parser


def _resolve_seed(flag: Optional[int]) -> int:
    if flag is not None:
        return flag
    env = os.environ.get("EQUICHOW_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"EQUICHOW_SEED is not an integer: {env!r}") from None
    return 0


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _write_report(path: Optional[str], payload: str):
    if not path:
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def cmd_pipeline(args) -> int:
    seed = _resolve_seed(args.seed)
    fixtures = parse_fixture_overrides(_read(args.fixtures)) if args.fixtures else None
    report = run_all(
        degree_bound=args.degree_bound,
        oracle_trials=args.oracle_trials,
        seed=seed,
        fixtures=fixtures,
    )
    text = report.render_text()
    sys.stdout.write(text)
    try:
        _write_report(args.report, text)
        _write_report(args.machine_report, report.render_machine())
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_MATCH if report.overall == "match" else EXIT_MISMATCH


def cmd_push(args) -> int:
    job = parse_push_job(_read(args.job))
    try:
        value = pushforward(job.mapping, job.cls)
    except DenominatorResidue as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(value.render())
    trials = (
        args.oracle_trials
        if args.oracle_trials is not None
        else job.options.oracle_trials
    )
    if trials > 0:
        seed = _resolve_seed(
            args.seed if args.seed is not None else job.options.seed
        )
        ok = specialize_oracle(
            job.mapping, job.cls, trials=trials, seed=seed, symbolic=value
        )
        print(f"oracle: {'pass' if ok else 'FAIL'} ({trials} trials, seed {seed})")
        if not ok:
            return EXIT_MISMATCH
    return EXIT_MATCH


def cmd_nf(args) -> int:
    ideal = parse_ideal_job(_read(args.gens))
    p = parse_poly(args.poly, ideal.table)
    basis = strong_groebner(ideal.generators, MonomialOrder.grevlex(ideal.table))
    print(normal_form(p, basis).render())
    return EXIT_MATCH


def cmd_fiber_check(args) -> int:
    job = parse_square_job(_read(args.job), args.degree_bound)
    report = verify_cartesian(job.square, job.degree_bound)
    for check in report.checks:
        print(check.describe())
    print(f"cartesian: {'pass' if report.passed else 'FAIL'}")
    return EXIT_MATCH if report.passed else EXIT_MISMATCH


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "pipeline": cmd_pipeline,
        "push": cmd_push,
        "nf": cmd_nf,
        "fiber-check": cmd_fiber_check,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, PolyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
