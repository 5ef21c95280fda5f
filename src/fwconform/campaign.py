"""End-to-end campaign driver.

Checks the scenario as `validate_scenario` does, then walks the whole
cycle: develop one procedure per claimed requirement, pick variants
within budget, execute each procedure on a fresh bench, evaluate the
criteria, and fold the outcomes into a single conformance verdict
wrapped in a report.

Each requirement gets its own bench and its own firewall instance so
procedures cannot contaminate each other, with a per-requirement seed
derived from the scenario seed so the whole run replays bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import datetime, timezone
from typing import Sequence

from . import __version__
from .firewall import Address, AuthMode, Fault, FilterRule
from .formal import (
    ALL_REQUIREMENTS,
    FILTER_LEVELS,
    ProcedureOutcome,
    RequirementKind,
    aggregate_verdict,
    claim_bit,
)
from .optimizer import optimize_plan
from .report import ProcedureRecord, Report, ReportMetadata, paused_collector
from .scenario import Scenario, check_scenario, resolve_rules
from .testbench import (
    Testbench,
    build_testbench,
    run_auth_procedure,
    run_filter_procedure,
    run_integrity_procedure,
)
from .verdict import (
    evaluate_auth_criteria,
    evaluate_filter_criteria,
    evaluate_integrity_criteria,
)

def child_seed(seed: int, requirement_id: str) -> int:
    """Per-requirement seed, stable across runs and platforms."""
    digest = hashlib.sha256(f"{seed}/{requirement_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fresh_bench(
    scenario: Scenario, requirement_id: str, rules: Sequence[FilterRule]
) -> Testbench:
    return build_testbench(
        external=scenario.external,
        internal=scenario.internal,
        rules=rules,
        accounts=scenario.accounts,
        files=scenario.files,
        auth_mode=scenario.capabilities.auth_mode or AuthMode.REMOTE,
        management=Address(scenario.management) if scenario.management else None,
        faults=scenario.faults,
        seed=child_seed(scenario.seed, requirement_id),
    )


@paused_collector()
def run_campaign(scenario: Scenario, faults: Sequence[Fault] | None = None) -> Report:
    """Execute the scenario and return the full report.

    `faults` replaces the scenario's own fault list when given, which is
    how the command line injects defects without editing the file.  The
    scenario, with that fault list, is checked first: any problem
    `validate_scenario` finds raises ScenarioValidationError carrying
    exactly its list, before any procedure runs.
    """
    if faults is not None:
        scenario = replace(scenario, faults=tuple(faults))
    check_scenario(scenario)
    profile = scenario.profile()
    procedures = profile.develop_all()
    plan = optimize_plan(scenario.variant_catalog(), scenario.budget)
    rules = resolve_rules(scenario)

    outcomes: dict[str, ProcedureOutcome] = {}
    records = []
    for rid, procedure in procedures.items():
        kind = ALL_REQUIREMENTS[rid].kind
        bench = _fresh_bench(scenario, rid, rules)
        if kind in FILTER_LEVELS:
            evidence = run_filter_procedure(bench, FILTER_LEVELS[kind], scenario.traffic)
            criteria = evaluate_filter_criteria(evidence)
        elif kind is RequirementKind.ADMIN_AUTH:
            evidence = run_auth_procedure(bench, scenario.attempts)
            criteria = evaluate_auth_criteria(evidence)
        else:
            evidence = run_integrity_procedure(bench, scenario.mutations)
            criteria = evaluate_integrity_criteria(evidence)
        outcome = ProcedureOutcome.from_criteria(criteria)
        outcomes[rid] = outcome
        records.append(
            ProcedureRecord(
                procedure=procedure,
                kind=kind,
                claim=1,
                outcome=outcome,
                evidence=evidence,
            )
        )

    # Scope defaults to the claims; a scenario listing more requirements
    # than the vendor claims documents a gap the verdict must reflect.
    scope = [
        (ALL_REQUIREMENTS[rid], claim_bit(profile, rid)) for rid in scenario.requirements
    ]
    verdict = aggregate_verdict(scope, outcomes)
    metadata = ReportMetadata(
        tool="fwconform",
        version=__version__,
        seed=scenario.seed,
        profile=profile.name,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        faults=tuple(f.spec_text() for f in scenario.faults),
    )
    return Report(metadata=metadata, campaign=verdict, plan=plan, procedures=tuple(records))
