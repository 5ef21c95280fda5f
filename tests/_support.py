"""Test-only helpers that more than one test file uses.

Unlike `_oracles.py`, these build on the package: they are witnesses
and cross-checks that no campaign runs, so they live beside the tests
rather than in `src/`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Mapping, Sequence

from fwconform.errors import FwconformError, Infeasible
from fwconform.formal import Requirement, TestProcedure
from fwconform.optimizer import CampaignPlan, ProcedureVariant, _as_plan, _validated_groups

BRUTE_FORCE_LIMIT = 10**6


class TooLarge(FwconformError):
    """The instance exceeds the exhaustive-enumeration bound."""


def brute_force_plan(
    catalog: Mapping[str, Sequence[ProcedureVariant]], budget: int | None = None
) -> CampaignPlan:
    """Enumerate every combination; independent witness for `optimize_plan`."""
    groups = _validated_groups(catalog)
    combos = prod(len(g) for g in groups)
    if combos > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{combos} combinations exceed the enumeration limit")
    winner = None
    winner_key = None
    for combo in product(*groups):
        total_cost = sum(v.cost for v in combo)
        if budget is not None and total_cost > budget:
            continue
        key = (
            sum(v.time for v in combo),
            total_cost,
            tuple(v.variant_id for v in combo),
        )
        if winner_key is None or key < winner_key:
            winner, winner_key = combo, key
    if winner is None:
        raise Infeasible(f"budget {budget} cannot cover the campaign")
    return _as_plan(winner, budget)


@dataclass(frozen=True)
class BijectivityBreak:
    """One witness for a broken requirement-to-procedure assignment."""

    kind: str
    requirement_id: str | None = None
    procedure_id: str | None = None


def check_bijectivity(
    requirements: Sequence[Requirement], procedures: Sequence[TestProcedure]
) -> tuple[int, tuple[BijectivityBreak, ...]]:
    """Check the one-to-one requirement/procedure assignment.

    Returns (1, ()) when every requirement sources exactly one procedure
    and every procedure sources from exactly one listed requirement;
    otherwise (0, witnesses).
    """
    breaks: list[BijectivityBreak] = []
    req_ids = [r.id for r in requirements]
    seen: set[str] = set()
    for rid in req_ids:
        if rid in seen:
            breaks.append(BijectivityBreak("duplicate-id", requirement_id=rid))
        seen.add(rid)

    sourced: dict[str, list[str]] = {}
    for proc in procedures:
        sourced.setdefault(proc.requirement_id, []).append(proc.id)
    for rid, proc_ids in sourced.items():
        if rid not in seen:
            for pid in proc_ids:
                breaks.append(
                    BijectivityBreak("orphan-procedure", requirement_id=rid, procedure_id=pid)
                )
        elif len(proc_ids) > 1:
            for pid in proc_ids:
                breaks.append(
                    BijectivityBreak("shared-source", requirement_id=rid, procedure_id=pid)
                )
    for rid in req_ids:
        if rid not in sourced:
            breaks.append(BijectivityBreak("missing-procedure", requirement_id=rid))
    return (0 if breaks else 1), tuple(breaks)
