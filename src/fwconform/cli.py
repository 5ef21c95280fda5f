"""Command line front end.

Verbs: ``validate`` a scenario file, ``plan`` its campaign within budget,
``run`` the whole campaign, and ``report`` to re-render a saved report.

Exit codes: 0 the product conformed (or the verb simply succeeded),
1 it did not conform, 2 the input was unusable, 3 an internal error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .campaign import run_campaign
from .errors import FwconformError, ScenarioError, ScenarioValidationError
from .firewall import Fault
from .optimizer import optimize_plan
from .report import export_report, parse_report, render_plan
from .scenario import load_scenario, parse_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fwconform",
        description="Conformance-testing workbench for packet-screening products.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check a scenario file and report every problem")
    p.add_argument("scenario", help="scenario file path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("plan", help="show the minimum-time procedure plan within budget")
    p.add_argument("scenario", help="scenario file path")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("run", help="execute the campaign and emit a report")
    p.add_argument("scenario", help="scenario file path")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument(
        "--format",
        choices=("machine", "human"),
        default="machine",
        help="report rendering (default: machine)",
    )
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="FAULT",
        help="inject a product fault (repeatable); replaces the scenario's own list",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="re-render a saved machine report")
    p.add_argument("report", help="report file path")
    p.add_argument(
        "--format",
        choices=("machine", "human"),
        default="human",
        help="output rendering (default: human)",
    )
    p.set_defaults(func=_cmd_report)
    return parser


def _cmd_validate(args) -> int:
    print(f"scenario ok: {load_scenario(args.scenario).name}")
    return 0


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    plan = optimize_plan(scenario.variant_catalog(), scenario.budget)
    print(*render_plan(plan, f"plan for {scenario.name}"), sep="\n")
    return 0


def _cmd_run(args) -> int:
    # Checked once, by run_campaign, after --seed and --inject apply.
    scenario = parse_scenario(Path(args.scenario).read_text(encoding="utf-8"))
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    try:
        faults = [Fault.parse(spec) for spec in args.inject] if args.inject else None
    except ValueError as exc:
        raise ScenarioValidationError([str(exc)]) from None
    report = run_campaign(scenario, faults)
    rendered = export_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        word = "CONFORM" if report.campaign.conform else "NONCONFORM"
        print(f"report written to {args.out}; verdict {word}")
    else:
        sys.stdout.write(rendered)
    return 0 if report.campaign.conform else 1


def _cmd_report(args) -> int:
    with open(args.report, encoding="utf-8") as handle:
        report = parse_report(handle.read())
    sys.stdout.write(export_report(report, args.format))
    return 0 if report.campaign.conform else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        for problem in exc.problems:
            print(problem, file=sys.stderr)
        return 2
    except (FwconformError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-ditch boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
