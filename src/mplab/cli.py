"""Command-line front end: run and validate experiment configs.

Exit codes: 0 success, 2 validation failure, an unreadable config, an
unwritable output directory or a bad command line (such as --workers
below 1), 3 budget overrun. Settings that validate but have
no effect are printed as `warning:` lines on stderr and leave the exit
code alone. A config field is overridden only by --set, which takes its
dotted path; the config echoed in meta.json records the values used.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BudgetError
from .harness import config_warnings, load_config, run, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def _worker_count(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplab",
        description="Run localization experiments described by JSON configs.",
    )
    # the arguments of both commands
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("config", help="path to a JSON experiment config")
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path, e.g. model.lambda=15 "
        "(VALUE parsed as JSON when possible, else kept as a string)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run", parents=[common], help="validate, execute, and write results"
    )
    run_p.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        help="parallel worker processes (default: available cores). Each "
        "worker above 1 keeps the default BLAS threads, so on few cores a "
        "parallel run can be slower than a serial one; the output bytes do "
        "not depend on the worker count",
    )
    sub.add_parser(
        "validate", parents=[common], help="check a config and list violations"
    )
    return parser


def _parse_override(text: str):
    if "=" not in text:
        raise ValueError(f"--set expects KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    if not key:
        raise ValueError(f"--set expects a nonempty key, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _report_violations(violations) -> int:
    for v in violations:
        print(f"invalid: {v}", file=sys.stderr)
    budget_only = all(v.startswith("budget:") for v in violations)
    return EXIT_BUDGET if budget_only else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # parsed lazily, so a file error is reported before a bad --set
        config = load_config(args.config, map(_parse_override, args.overrides))
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    for warning in config_warnings(config):
        print(f"warning: {warning}", file=sys.stderr)
    violations = validate(config)
    if violations:
        return _report_violations(violations)
    if args.command == "validate":
        print("ok")
        return EXIT_OK
    try:
        table = run(config, workers=args.workers)
    except BudgetError as err:
        print(f"budget failure: {err}", file=sys.stderr)
        return EXIT_BUDGET
    except OSError as err:  # the output directory or a file in it
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir = config.output["directory"]
    names = [f"{config.kind}.{fmt}" for fmt in config.output["formats"]]
    names.append(f"{config.kind}.meta.json")
    print(f"wrote {len(table.rows)} rows to {out_dir}: {', '.join(names)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
