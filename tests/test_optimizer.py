import random

import pytest

from _oracles import oracle_plan
from _support import BRUTE_FORCE_LIMIT, TooLarge, brute_force_plan
from fwconform.errors import FwconformError, Infeasible
from fwconform.optimizer import ProcedureVariant, optimize_plan


def v(rid, vid, time, cost):
    return ProcedureVariant(rid, vid, time, cost)


TWO_REQS = {
    "r1": [v("r1", "manual", 5, 1), v("r1", "scripted", 2, 4)],
    "r2": [v("r2", "manual", 3, 1)],
}


def picks(plan):
    return [(c.requirement_id, c.variant_id) for c in plan.chosen]


def test_generous_budget_buys_the_fast_variant():
    plan = optimize_plan(TWO_REQS, budget=5)
    assert (plan.total_time, plan.total_cost) == (5, 5)
    assert picks(plan) == [("r1", "scripted"), ("r2", "manual")]


def test_tight_budget_forces_the_slow_variant():
    plan = optimize_plan(TWO_REQS, budget=4)
    assert (plan.total_time, plan.total_cost) == (8, 2)
    assert picks(plan) == [("r1", "manual"), ("r2", "manual")]


def test_no_budget_means_fastest_everywhere():
    plan = optimize_plan(TWO_REQS)
    assert (plan.total_time, plan.total_cost, plan.budget) == (5, 5, None)


def test_infeasible_budget_names_the_floor():
    with pytest.raises(Infeasible, match="cheapest selection costs 2"):
        optimize_plan(TWO_REQS, budget=1)


def test_negative_budget_is_a_usage_error():
    with pytest.raises(ValueError, match="^budget must be nonnegative: -1$") as caught:
        optimize_plan(TWO_REQS, budget=-1)
    assert isinstance(caught.value, FwconformError)


def test_negative_time_or_cost_is_rejected_at_construction():
    with pytest.raises(ValueError):
        v("r1", "bad", -1, 0)
    with pytest.raises(ValueError):
        v("r1", "bad", 0, -1)


def test_catalog_validation_errors():
    for catalog, text in (
        ({"r1": []}, "requirement r1 has no procedure variants"),
        ({"r1": [v("r1", "a", 1, 1), v("r1", "a", 2, 2)]}, "duplicate variant ids"),
        ({"r1": [v("r2", "a", 1, 1)]}, "naming another requirement"),
    ):
        with pytest.raises(ValueError, match=text) as caught:
            optimize_plan(catalog)
        assert isinstance(caught.value, FwconformError)


def test_time_ties_break_toward_lower_cost_then_variant_id():
    catalog = {
        "r1": [v("r1", "b", 3, 2), v("r1", "a", 3, 2), v("r1", "c", 3, 5)],
    }
    plan = optimize_plan(catalog, budget=9)
    assert picks(plan) == [("r1", "a")]


def test_plan_preserves_catalog_order():
    catalog = {
        "zeta": [v("zeta", "only", 1, 0)],
        "alpha": [v("alpha", "only", 1, 0)],
    }
    assert [c.requirement_id for c in optimize_plan(catalog, 0).chosen] == ["zeta", "alpha"]


def test_zero_cost_variants_fit_a_zero_budget():
    catalog = {"r1": [v("r1", "free", 4, 0), v("r1", "paid", 1, 1)]}
    plan = optimize_plan(catalog, budget=0)
    assert picks(plan) == [("r1", "free")]
    assert plan.total_cost == 0


def test_brute_force_refuses_oversized_catalogs():
    catalog = {
        f"r{i}": [v(f"r{i}", f"v{j}", 1, 0) for j in range(10)] for i in range(7)
    }
    assert 10**7 > BRUTE_FORCE_LIMIT
    with pytest.raises(TooLarge):
        brute_force_plan(catalog)


def test_exact_search_matches_enumeration_and_the_oracle():
    rng = random.Random(608)
    for trial in range(250):
        catalog = {}
        for i in range(rng.randrange(1, 5)):
            rid = f"r{i}"
            catalog[rid] = [
                v(rid, f"v{j}", rng.randrange(0, 9), rng.randrange(0, 9))
                for j in range(rng.randrange(1, 4))
            ]
        budget = rng.choice([None, rng.randrange(0, 20)])
        expected = oracle_plan(list(catalog.values()), budget)
        if expected is None:
            with pytest.raises(Infeasible):
                optimize_plan(catalog, budget)
            with pytest.raises(Infeasible):
                brute_force_plan(catalog, budget)
            continue
        fast = optimize_plan(catalog, budget)
        slow = brute_force_plan(catalog, budget)
        for plan in (fast, slow):
            assert (plan.total_time, plan.total_cost) == expected[:2], trial
            assert tuple(c.variant_id for c in plan.chosen) == expected[2], trial
        assert fast.chosen == slow.chosen


def test_no_budget_plans_as_a_budget_of_the_dearest_variants():
    rng = random.Random(1010)
    for trial in range(500):
        catalog = {}
        for i in range(rng.randrange(1, 6)):
            rid = f"r{i}"
            catalog[rid] = [
                v(rid, f"v{j}", rng.randrange(0, 5), rng.randrange(0, 9))
                for j in range(rng.randrange(1, 5))
            ]
        dearest = sum(max(c.cost for c in group) for group in catalog.values())
        unlimited = optimize_plan(catalog, None)
        assert unlimited.chosen == optimize_plan(catalog, dearest).chosen, trial
        assert unlimited.budget is None
