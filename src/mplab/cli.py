"""Command-line front end: run and validate experiment configs.

Exit codes: 0 success, 2 validation failure, 3 budget overrun. Settings
that validate but have no effect are printed as `warning:` lines on stderr
and leave the exit code alone. The MPLAB_SEED environment variable
overrides ensemble.base_seed (handy for CI smoke runs); explicit --set
overrides are applied after it and win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BudgetError
from .harness import ExperimentConfig, apply_override, config_warnings, run, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplab",
        description="Run localization experiments described by JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="validate, execute, and write results")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel worker processes (default: available cores)",
    )
    run_p.add_argument(
        "--out", default=None, help="override output.directory from the config"
    )
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field by dotted path, e.g. model.lambda=15 "
        "(VALUE parsed as JSON when possible, else kept as a string)",
    )

    val_p = sub.add_parser("validate", help="check a config and list violations")
    val_p.add_argument("config", help="path to a JSON experiment config")
    val_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
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


def _load_raw(path: str, overrides, out_dir=None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    env_seed = os.environ.get("MPLAB_SEED")
    if env_seed is not None:
        apply_override(raw, "ensemble.base_seed", int(env_seed))
    for item in overrides:
        key, value = _parse_override(item)
        apply_override(raw, key, value)
    if out_dir is not None:
        apply_override(raw, "output.directory", out_dir)
    return raw


def _report_violations(violations) -> int:
    for v in violations:
        print(f"invalid: {v}", file=sys.stderr)
    budget_only = all(v.startswith("budget:") for v in violations)
    return EXIT_BUDGET if budget_only else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_raw(
            args.config, args.overrides, getattr(args, "out", None)
        )
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    config = ExperimentConfig.from_dict(raw)
    for warning in config_warnings(config):
        print(f"warning: {warning}", file=sys.stderr)
    violations = validate(config)

    if args.command == "validate":
        if violations:
            return _report_violations(violations)
        print("ok")
        return EXIT_OK

    if violations:
        return _report_violations(violations)
    try:
        table = run(config, workers=args.workers)
    except BudgetError as err:
        print(f"budget failure: {err}", file=sys.stderr)
        return EXIT_BUDGET
    out_dir = config.output["directory"]
    names = [f"{config.kind}.{fmt}" for fmt in config.output["formats"]]
    names.append(f"{config.kind}.meta.json")
    print(f"wrote {len(table.rows)} rows to {out_dir}: {', '.join(names)}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
