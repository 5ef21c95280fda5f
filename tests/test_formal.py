import dataclasses

import pytest
from hypothesis import given, strategies as st

from fwconform.errors import Refused
from fwconform.firewall import AuthMode
from fwconform.formal import (
    ALL_REQUIREMENTS,
    CampaignVerdict,
    Capabilities,
    CriterionResult,
    FirewallProfile,
    ProcedureOutcome,
    Requirement,
    RequirementKind,
    TestProcedure,
    aggregate_verdict,
    claim_bit,
    develop_procedure,
)
from _oracles import oracle_conform
from _support import check_bijectivity

FULL = FirewallProfile("sut", tuple(ALL_REQUIREMENTS))
CORE = ("r1", "r2", "r3")


def test_catalog_covers_the_three_core_requirements():
    assert {"r1", "r2", "r3"} <= set(ALL_REQUIREMENTS)
    assert ALL_REQUIREMENTS["r1"].kind is RequirementKind.NET_FILTER
    assert ALL_REQUIREMENTS["r2"].kind is RequirementKind.ADMIN_AUTH
    assert ALL_REQUIREMENTS["r3"].kind is RequirementKind.INTEGRITY_CONTROL
    ids = list(ALL_REQUIREMENTS)
    assert len(set(ids)) == len(ids)


def test_develop_procedure_is_deterministic_and_injective():
    procs = [develop_procedure(FULL, r) for r in ALL_REQUIREMENTS.values()]
    again = [develop_procedure(FULL, r) for r in ALL_REQUIREMENTS.values()]
    assert procs == again
    ids = [p.id for p in procs]
    assert len(set(ids)) == len(ids)
    for proc, req in zip(procs, ALL_REQUIREMENTS.values()):
        assert proc.requirement_id == req.id
        assert proc.steps, "plan must be non-empty"


def test_develop_procedure_capability_gates():
    no_link = FirewallProfile("s", ("r1-link",), Capabilities(link_layer=False))
    with pytest.raises(Refused):
        develop_procedure(no_link, ALL_REQUIREMENTS["r1-link"])
    no_fields = FirewallProfile("s", ("r1-fields",), Capabilities(filter_fields=()))
    with pytest.raises(Refused):
        develop_procedure(no_fields, ALL_REQUIREMENTS["r1-fields"])
    no_auth = FirewallProfile("s", ("r2",), Capabilities(auth_mode=None))
    with pytest.raises(Refused):
        develop_procedure(no_auth, ALL_REQUIREMENTS["r2"])
    no_trigger = FirewallProfile("s", ("r3",), Capabilities(integrity_trigger=False))
    with pytest.raises(Refused):
        develop_procedure(no_trigger, ALL_REQUIREMENTS["r3"])


def test_local_auth_procedure_omits_the_capture_steps():
    remote = develop_procedure(FULL, ALL_REQUIREMENTS["r2"])
    local_profile = FirewallProfile("s", ("r2",), Capabilities(auth_mode=AuthMode.LOCAL))
    local = develop_procedure(local_profile, ALL_REQUIREMENTS["r2"])
    assert len(remote.steps) == 6
    assert len(local.steps) == 4
    assert not any("capture" in s for s in local.steps)


def test_bijectivity_holds_for_a_clean_development():
    reqs = list(ALL_REQUIREMENTS.values())
    procs = [develop_procedure(FULL, r) for r in reqs]
    bit, breaks = check_bijectivity(reqs, procs)
    assert bit == 1 and breaks == ()


def test_bijectivity_break_witnesses():
    reqs = [ALL_REQUIREMENTS["r1"], ALL_REQUIREMENTS["r2"]]
    procs = [develop_procedure(FULL, r) for r in reqs]

    bit, breaks = check_bijectivity(reqs, procs[:1])
    assert bit == 0
    assert ("missing-procedure", "r2") in [(b.kind, b.requirement_id) for b in breaks]

    twin = dataclasses.replace(procs[0], id="sut/r1-bis")
    bit, breaks = check_bijectivity(reqs, procs + [twin])
    assert bit == 0
    assert {b.kind for b in breaks} == {"shared-source"}

    stray = dataclasses.replace(procs[0], id="sut/rX", requirement_id="rX")
    bit, breaks = check_bijectivity(reqs, procs + [stray])
    assert bit == 0
    assert ("orphan-procedure", "rX") in [(b.kind, b.requirement_id) for b in breaks]

    bit, breaks = check_bijectivity(reqs + [reqs[0]], procs)
    assert bit == 0
    assert "duplicate-id" in {b.kind for b in breaks}


def test_claim_bit_reads_the_profile():
    profile = FirewallProfile("s", ("r1", "r3"))
    assert claim_bit(profile, "r1") == 1
    assert claim_bit(profile, "r2") == 0


def test_outcome_bit_must_agree_with_criteria():
    crits = (CriterionResult("a", 1), CriterionResult("b", 0))
    with pytest.raises(ValueError):
        ProcedureOutcome(1, crits)
    built = ProcedureOutcome.from_criteria(crits)
    assert built.passed == 0


def test_campaign_rejects_claims_outside_the_catalog():
    with pytest.raises(ValueError, match="^claims outside the catalog: r99$"):
        FirewallProfile("s", ("r1", "r99"))


def test_aggregate_requires_alignment():
    claims = [(ALL_REQUIREMENTS[r], 1) for r in CORE]
    with pytest.raises(Refused):
        aggregate_verdict(claims, {"r1": ProcedureOutcome(1), "r2": ProcedureOutcome(1)})
    full = {r: ProcedureOutcome(1) for r in CORE}
    with pytest.raises(Refused):
        aggregate_verdict(claims, dict(full, r9=ProcedureOutcome(1)))
    with pytest.raises(Refused):
        aggregate_verdict(claims + [claims[0]], full)


def test_aggregate_preserves_scope_order_and_counts():
    claims = [(ALL_REQUIREMENTS[r], 1) for r in ("r3", "r1")]
    verdict = aggregate_verdict(claims, {"r3": ProcedureOutcome(1), "r1": ProcedureOutcome(0)})
    assert verdict.pairs == (("r3", 1, 1), ("r1", 1, 0))
    assert verdict.n == 2
    assert verdict.conform == 0


def test_unclaimed_requirement_in_scope_sinks_the_verdict():
    claims = [(ALL_REQUIREMENTS["r1"], 1), (ALL_REQUIREMENTS["r2"], 0)]
    verdict = aggregate_verdict(claims, {"r1": ProcedureOutcome(1)})
    assert verdict.pairs == (("r1", 1, 1), ("r2", 0, 0))
    assert verdict.conform == 0


@pytest.mark.parametrize(
    "pairs, n, conform",
    [
        ((("r1", 1, 1), ("r2", 1, 0)), 2, 1),  # a verdict bit the pairs do not give
        ((("r1", 1, 1),), 1, 0),
        ((("r1", 7, 1),), 9, 1),  # a bit that is not a bit, and a scope size that is off
        ((("r1", 1, 1),), 2, 1),
        ((("r1", 1, 2),), 1, 1),
        ((), 0, 0),
    ],
)
def test_verdict_must_agree_with_its_pairs(pairs, n, conform):
    with pytest.raises(ValueError):
        CampaignVerdict(pairs, n, conform)


def test_empty_scope_is_vacuously_conform():
    assert aggregate_verdict([], {}).conform == 1


@given(
    frs=st.tuples(*[st.integers(0, 1)] * 3),
    fcs=st.tuples(*[st.integers(0, 1)] * 3),
)
def test_aggregate_equals_the_product_oracle(frs, fcs):
    claims = [(ALL_REQUIREMENTS[r], fr) for r, fr in zip(CORE, frs)]
    outcomes = {r: ProcedureOutcome(fc) for r, fc in zip(CORE, fcs)}
    verdict = aggregate_verdict(claims, outcomes)
    assert verdict.conform == oracle_conform(frs, fcs)
    assert verdict.n == 3
