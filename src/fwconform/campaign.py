"""End-to-end campaign driver.

Takes a validated scenario and walks the whole cycle: develop one
procedure per claimed requirement, pick variants within budget, execute
each procedure on a fresh bench, evaluate the criteria, and fold the
outcomes into a single conformance verdict wrapped in a report.

Each requirement gets its own bench and its own firewall instance so
procedures cannot contaminate each other, with a per-requirement seed
derived from the scenario seed so the whole run replays bit for bit.
"""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from typing import Sequence

from .errors import FwconformError
from .firewall import Address, AuthMode, Fault, FilterRule
from .formal import (
    ALL_REQUIREMENTS,
    Campaign,
    ProcedureOutcome,
    RequirementKind,
    aggregate_verdict,
    claim_bit,
)
from .optimizer import optimize_plan
from .report import ProcedureRecord, Report, ReportMetadata
from .scenario import Scenario, resolve_rules
from .testbench import (
    FilterLevel,
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

_LEVEL_FOR = {
    RequirementKind.NET_FILTER: FilterLevel.NETWORK,
    RequirementKind.LINK_FILTER: FilterLevel.LINK,
    RequirementKind.FIELD_FILTER: FilterLevel.FIELDS,
}


def child_seed(seed: int, requirement_id: str) -> int:
    """Per-requirement seed, stable across runs and platforms."""
    digest = hashlib.sha256(f"{seed}/{requirement_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _fresh_bench(
    scenario: Scenario,
    requirement_id: str,
    faults: Sequence[Fault],
    rules: Sequence[FilterRule],
) -> Testbench:
    return build_testbench(
        external=scenario.external,
        internal=scenario.internal,
        rules=rules,
        accounts=scenario.accounts,
        files=scenario.files,
        auth_mode=scenario.auth_mode or AuthMode.REMOTE,
        management=Address(scenario.management) if scenario.management else None,
        faults=faults,
        seed=child_seed(scenario.seed, requirement_id),
    )


def run_campaign(scenario: Scenario, faults: Sequence[Fault] | None = None) -> Report:
    """Execute the scenario and return the full report.

    `faults` replaces the scenario's own fault list when given, which is
    how the command line injects defects without editing the file.
    """
    active = tuple(faults) if faults is not None else scenario.faults
    profile = scenario.profile()
    campaign = Campaign(profile)
    procedures = campaign.develop_all()
    plan = optimize_plan(scenario.variant_catalog(), scenario.budget)
    rules = resolve_rules(scenario)

    outcomes: dict[str, ProcedureOutcome] = {}
    records = []
    for req in campaign.claimed_requirements():
        procedure = procedures[req.id]
        try:
            bench = _fresh_bench(scenario, req.id, active, rules)
            if req.kind in _LEVEL_FOR:
                evidence = run_filter_procedure(
                    bench, rules, _LEVEL_FOR[req.kind], scenario.traffic
                )
                criteria = evaluate_filter_criteria(evidence)
            elif req.kind is RequirementKind.ADMIN_AUTH:
                evidence = run_auth_procedure(bench, scenario.accounts, scenario.attempts)
                criteria = evaluate_auth_criteria(evidence)
            else:
                evidence = run_integrity_procedure(bench, scenario.mutations)
                criteria = evaluate_integrity_criteria(evidence)
        except FwconformError as exc:
            raise type(exc)(f"procedure {procedure.id}: {exc}") from exc
        outcome = ProcedureOutcome.from_criteria(procedure.id, req.id, criteria)
        outcomes[req.id] = outcome
        records.append(
            ProcedureRecord(
                procedure=procedure,
                kind=req.kind,
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
        version=_package_version(),
        seed=scenario.seed,
        profile=profile.name,
        created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        faults=tuple(f.spec_text() for f in active),
    )
    return Report(metadata=metadata, campaign=verdict, plan=plan, procedures=tuple(records))


def _package_version() -> str:
    from fwconform import __version__

    return __version__
