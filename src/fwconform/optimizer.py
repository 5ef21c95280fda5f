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

from dataclasses import dataclass
from functools import cache
from typing import Mapping, Sequence

from .errors import Infeasible, refuse


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
        if self.time < 0 or self.cost < 0:
            raise ValueError(f"{self.requirement_id}/{self.variant_id}: negative time or cost")


@dataclass(frozen=True)
class CampaignPlan:
    """Chosen variant per requirement, in claim order, with the totals."""

    chosen: tuple[ProcedureVariant, ...]
    total_time: int
    total_cost: int
    budget: int | None


def _validated_groups(
    catalog: Mapping[str, Sequence[ProcedureVariant]],
) -> list[tuple[ProcedureVariant, ...]]:
    groups = []
    for rid, variants in catalog.items():
        names = [v.variant_id for v in variants]
        stray = [v.variant_id for v in variants if v.requirement_id != rid]
        refuse(
            not variants and f"requirement {rid} has no procedure variants",
            len(set(names)) != len(names) and f"requirement {rid} has duplicate variant ids",
            stray and f"variants filed under {rid} but naming another requirement: {stray}",
        )
        groups.append(tuple(variants))
    return groups


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
    refuse(budget is not None and budget < 0 and f"budget must be nonnegative: {budget}")
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
            f"budget {budget} cannot cover the campaign; cheapest selection costs {floor}"
        )
    return _as_plan(found[1], budget)
