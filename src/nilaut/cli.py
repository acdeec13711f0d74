"""Command line entry point.

Exit codes: 0 all checks passed, 1 a property failed, 2 usage error,
3 internal or search error; a closed stdout changes none of them.
"""

from __future__ import annotations

import argparse
import json
import os
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
    verify.add_argument(
        "--m-range",
        type=_parse_m_range,
        default=None,
        help="parameter range a:b; a negative a needs the = form, --m-range=-10:10",
    )
    verify.add_argument("--config", default=None, help="JSON config file; explicit flags win")

    sub.add_parser("list-suites", help="print the suite table")
    return parser


_CONFIG_KEYS = {"suite", "rank", "class", "trials", "seed", "m_range"}


def _config_from_args(args) -> SuiteConfig:
    base = {}
    if args.config:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError("cannot read config %s: %s" % (args.config, exc))
        if not isinstance(base, dict):
            raise InputError("config %s must hold a JSON object" % args.config)
        unknown = sorted(set(base) - _CONFIG_KEYS)
        if unknown:
            raise InputError("config %s has unknown keys: %s" % (args.config, ", ".join(unknown)))
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
    return SuiteConfig(**merged)


def _summary(report: Report) -> str:
    cfg = report.config
    lines = [
        "suite %s (rank %d, class %d, trials %d, seed %d)"
        % (cfg["suite"], cfg["rank"], cfg["class"], cfg["trials"], cfg["seed"])
    ]
    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        lines.append("  [%s] %s (%d trials)" % (mark, check["name"], check["trials"]))
    verdict = "all checks passed" if report.passed else "FAILURES PRESENT"
    lines.append("%s in %.2fs" % (verdict, report.wall_clock_seconds))
    return "\n".join(lines)


def _print(text: str, code: int) -> int:
    """Print text and return code; a closed stdout is not a failed property."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' recipe: the interpreter's final flush must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-suites":
        width = max(len(name) for name, _ in suite_table())
        rows = ("%-*s  %s" % (width, name, statement) for name, statement in suite_table())
        return _print("\n".join(rows), 0)

    try:
        report = run_suite(_config_from_args(args))
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
    return _print(_summary(report), 0 if report.passed else FAILURE)


if __name__ == "__main__":
    sys.exit(main())
