"""Campaign planning: pick one procedure variant per requirement.

Every claimed requirement still gets tested; the choice is only between
variants (say, a manual walkthrough versus a scripted run) that trade
money for bench time.  The planner minimizes total bench time subject to
the money budget, breaking ties toward lower cost and then lower variant
ids so plans are reproducible: the plan is the selection with the least
(total time, total cost, variant ids in claim order) key.

`optimize_plan` finds it exactly with one memoized search over
(requirement index, budget left).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

from .errors import Infeasible, Refused, listed, refuse, shown, type_problem


@dataclass(frozen=True)
class ProcedureVariant:
    """One way to execute the procedure for a requirement.

    `time` is bench hours, `cost` is money in abstract units; both are
    nonnegative integers.
    """

    requirement_id: str
    variant_id: str
    time: int
    cost: int

    def __post_init__(self):
        if {type(self.time), type(self.cost)} != {int}:
            problem = f"time and cost must be integers: {shown(self.time)}, {shown(self.cost)}"
        elif self.time >= 0 and self.cost >= 0:
            return
        else:
            problem = "negative time or cost"
        raise Refused(f"{listed((self.requirement_id, self.variant_id), '/')}: {problem}")


@dataclass(frozen=True)
class CampaignPlan:
    """Chosen variant per requirement, in claim order, with the totals."""

    chosen: tuple[ProcedureVariant, ...]
    total_time: int
    total_cost: int
    budget: int | None


def duplicate_variant_problem(variants: Iterable[ProcedureVariant]) -> str | None:
    """``duplicate variant(s): r1/a`` naming each (requirement, variant) id pair given twice."""
    found = Counter((v.requirement_id, v.variant_id) for v in variants)
    dup = sorted(listed(pair, "/") for pair, count in found.items() if count > 1)
    return f"duplicate variant(s): {listed(dup)}" if dup else None


def _validated_groups(
    catalog: Mapping[str, Sequence[ProcedureVariant]],
) -> list[tuple[ProcedureVariant, ...]]:
    groups = []
    for rid, variants in catalog.items():
        stray = [v.variant_id for v in variants if v.requirement_id != rid]
        refuse(
            not variants and f"requirement {shown(rid, str)} has no procedure variants",
            duplicate_variant_problem(variants),
            stray and f"variants filed under {shown(rid, str)} but naming another requirement:"
            f" {shown(stray)}",
        )
        groups.append(tuple(variants))
    return groups


def budget_problem(budget: int | None) -> str | None:
    """Why a budget is neither None, for no cap, nor an integer >= 0, or None."""
    if budget is None or type(budget) is int and budget >= 0:
        return None
    return type_problem("budget", budget, int) or f"budget must be nonnegative: {shown(budget)}"


def _as_plan(chosen: Sequence[ProcedureVariant], budget: int | None) -> CampaignPlan:
    return CampaignPlan(
        chosen=tuple(chosen),
        total_time=sum(v.time for v in chosen),
        total_cost=sum(v.cost for v in chosen),
        budget=budget,
    )


def optimize_plan(
    catalog: Mapping[str, Sequence[ProcedureVariant]], budget: int | None = None
) -> CampaignPlan:
    """Exact minimum-time plan within the budget; `budget=None` lifts the cap.

    Raises Infeasible when even the cheapest variant per requirement
    overruns the budget.  Without a budget the same search runs under a
    limit no selection can overrun: the dearest variant of every group.
    """
    groups = _validated_groups(catalog)
    refuse(budget_problem(budget))
    limit = sum(max(v.cost for v in g) for g in groups) if budget is None else budget

    @cache
    def best(i: int, remaining: int) -> tuple[tuple, tuple[ProcedureVariant, ...]] | None:
        # The least (time, cost, variant ids) key for groups i.. with this much
        # money, compared lexicographically, and the variants that reach it;
        # None when nothing fits.
        if i == len(groups):
            return (0, 0, ()), ()
        found = None
        for v in groups[i]:
            if v.cost > remaining:
                continue
            tail = best(i + 1, remaining - v.cost)
            if tail is None:
                continue
            (time, cost, ids), chosen = tail
            key = (v.time + time, v.cost + cost, (v.variant_id, *ids))
            if found is None or key < found[0]:
                found = key, (v, *chosen)
        return found

    found = best(0, limit)
    if found is None:
        floor = sum(min(v.cost for v in g) for g in groups)
        raise Infeasible(
            f"budget {shown(budget)} cannot cover the campaign;"
            f" cheapest selection costs {shown(floor)}"
        )
    return _as_plan(found[1], budget)
