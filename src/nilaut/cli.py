"""Command line entry point.

Exit codes: 0 all checks passed, 1 a property failed, 2 usage error,
3 internal or search error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DomainError, InputError, SearchExhausted
from .harness import Report, SuiteConfig, emit_report, run_suite, suite_table

USAGE_ERROR = 2
FAILURE = 1
INTERNAL_ERROR = 3


def _parse_m_range(text):
    try:
        a, b = text.split(":")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError("expected <a>:<b>, got %r" % text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilaut",
        description="Verification campaigns for free nilpotent groups and their automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one named suite")
    verify.add_argument("--suite", required=False, help="suite name (see list-suites)")
    verify.add_argument("--rank", type=int, default=None, help="number of free generators")
    verify.add_argument("--class", dest="nil_class", type=int, default=None, help="nilpotency class")
    verify.add_argument("--trials", type=int, default=None, help="trial count override")
    verify.add_argument("--seed", type=int, default=None, help="master seed")
    verify.add_argument("--report", default=None, help="write the canonical JSON report here")
    verify.add_argument("--m-range", type=_parse_m_range, default=None, help="parameter range a:b")
    verify.add_argument("--config", default=None, help="JSON config file; explicit flags win")

    sub.add_parser("list-suites", help="print the suite table")
    return parser


def _config_from_args(args) -> SuiteConfig:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError("cannot read config %s: %s" % (args.config, exc))
    merged = {
        "suite": args.suite if args.suite is not None else base.get("suite"),
        "rank": args.rank if args.rank is not None else base.get("rank", 2),
        "nil_class": args.nil_class if args.nil_class is not None else base.get("class", 2),
        "trials": args.trials if args.trials is not None else base.get("trials"),
        "seed": args.seed if args.seed is not None else base.get("seed", 0),
        "m_range": args.m_range if args.m_range is not None else base.get("m_range"),
    }
    if not merged["suite"]:
        raise InputError("no suite given (use --suite or a config file)")
    if merged["m_range"] is not None:
        merged["m_range"] = tuple(merged["m_range"])
    return SuiteConfig(**merged)


def _print_summary(report: Report, out) -> None:
    cfg = report.config
    print(
        "suite %s (rank %d, class %d, trials %d, seed %d)"
        % (cfg["suite"], cfg["rank"], cfg["class"], cfg["trials"], cfg["seed"]),
        file=out,
    )
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        print("  [%s] %s (%d trials)" % (mark, check["name"], check["trials"]), file=out)
    verdict = "all checks passed" if report.passed else "FAILURES PRESENT"
    print("%s in %.2fs" % (verdict, report.wall_clock_seconds), file=out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        width = max(len(name) for name, _ in suite_table())
        for name, statement in suite_table():
            print("%-*s  %s" % (width, name, statement))
        return 0

    try:
        cfg = _config_from_args(args).normalized()
    except InputError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    try:
        report = run_suite(cfg)
    except InputError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return USAGE_ERROR
    except SearchExhausted as exc:
        print("search error: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR
    except (DomainError, AssertionError) as exc:
        # a well-formed config that trips a precondition or an invariant
        # inside a suite is a defect, not a failed property; InternalError
        # is an AssertionError, so this clause catches it too
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return INTERNAL_ERROR
    if args.report:
        try:
            emit_report(report, args.report)
        except OSError as exc:
            print("i/o error: %s" % exc, file=sys.stderr)
            return INTERNAL_ERROR
    _print_summary(report, sys.stdout)
    return 0 if report.passed else FAILURE


if __name__ == "__main__":
    sys.exit(main())
