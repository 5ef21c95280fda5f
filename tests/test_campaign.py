from dataclasses import replace
from pathlib import Path

import pytest

from fwconform.campaign import child_seed, run_campaign
from fwconform.errors import FwconformError, InapplicableRule, ScenarioValidationError
from fwconform.firewall import Fault
from fwconform.scenario import load_scenario, parse_scenario, validate_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"

MINIMAL = """\
[profile]
name demo
claims r1

[topology]
external probe 198.51.100.10
internal target 203.0.113.20

[rules]
allow probe target
"""


def test_child_seeds_are_stable_and_distinct():
    assert child_seed(42, "r1") == child_seed(42, "r1")
    assert child_seed(42, "r1") != child_seed(42, "r2")
    assert child_seed(42, "r1") != child_seed(43, "r1")


def test_campaign_uses_one_bench_seed_per_requirement():
    report = run_campaign(load_scenario(str(REFERENCE)))
    payloads = {
        rec.procedure.requirement_id: tuple(p.payload for p in rec.evidence.packet_in)
        for rec in report.procedures
        if rec.evidence.__class__.__name__ == "FilterEvidence"
    }
    assert len(set(payloads.values())) == len(payloads)


def test_unclaimed_requirement_in_scope_sinks_the_verdict():
    scenario = replace(parse_scenario(MINIMAL), requirements=("r1", "r3"))
    report = run_campaign(scenario)
    assert report.campaign.pairs == (("r1", 1, 1), ("r3", 0, 0))
    assert report.campaign.conform == 0
    # only the claimed requirement was actually exercised
    assert [rec.procedure.requirement_id for rec in report.procedures] == ["r1"]


def test_scenario_fault_section_drives_the_run():
    scenario = parse_scenario(MINIMAL + "\n[faults]\ninject skip_journal:pass_allowed\n")
    report = run_campaign(scenario)
    assert report.campaign.conform == 0
    assert report.metadata.faults == ("skip_journal:pass_allowed",)


def test_explicit_fault_list_replaces_the_scenario_one():
    scenario = parse_scenario(MINIMAL + "\n[faults]\ninject skip_journal:pass_allowed\n")
    report = run_campaign(scenario, faults=())
    assert report.campaign.conform == 1
    assert report.metadata.faults == ()


def test_runtime_failures_name_the_procedure():
    # Claims r1-fields against a rule set with no field constraint; the
    # validator would refuse this, so feed the campaign directly.
    scenario = replace(
        parse_scenario(MINIMAL),
        claims=("r1-fields",),
        requirements=("r1-fields",),
    )
    with pytest.raises(InapplicableRule, match=r"procedure demo/r1-fields: "):
        run_campaign(scenario)


@pytest.mark.parametrize(
    "scenario_text, spec, message",
    [
        (REFERENCE.read_text(), "invert_rule:99", "rule index outside the 4-rule set"),
        (REFERENCE.read_text(), "blind_integrity:ghost", "unknown file 'ghost'"),
        (MINIMAL.replace("claims r1", "claims r1\nauth local"), "leak_credentials",
         "needs remote sign-on mode"),
    ],
    ids=["invert_rule", "blind_integrity", "leak_credentials"],
)
def test_run_campaign_refuses_an_inapplicable_fault(scenario_text, spec, message):
    scenario = parse_scenario(scenario_text)
    with pytest.raises(ScenarioValidationError, match=f"fault {spec}: {message}"):
        run_campaign(scenario, faults=[Fault.parse(spec)])
    with pytest.raises(ScenarioValidationError, match=f"fault {spec}: {message}"):
        run_campaign(replace(scenario, faults=(Fault.parse(spec),)))


@pytest.mark.parametrize("account", ["con pw-long-enough", "sole pw-long-enough", "alice a"])
def test_compliant_product_with_short_credentials_conforms(account):
    text = REFERENCE.read_text().replace(
        "account alice s3cret!pass\naccount bob hunter-two", f"account {account}"
    )
    scenario = parse_scenario(text)
    assert scenario.accounts[0].identifier == account.split()[0]
    assert validate_scenario(scenario) == []
    report = run_campaign(scenario)
    assert report.campaign.conform == 1


_MACS = MINIMAL.replace(
    "198.51.100.10", "198.51.100.10 02:00:5e:10:00:01"
).replace("203.0.113.20", "203.0.113.20 02:00:5e:20:00:01")


@pytest.mark.parametrize(
    "scenario_text, problem",
    [
        (
            _MACS.replace("claims r1", "claims r1-link\nlink-layer off"),
            "r1-link claimed but link-layer is off",
        ),
        (
            MINIMAL.replace("claims r1", "claims r1-fields\nfilter-fields ttl")
            + "allow probe target proto=6\n",
            "r1-fields claimed but filter-fields lacks proto",
        ),
        (
            MINIMAL.replace("claims r1", "claims r2\nauth none")
            + "\n[accounts]\naccount root topsecret\n",
            "r2 claimed but auth is none",
        ),
        (
            MINIMAL.replace("claims r1", "claims r3\nintegrity-trigger off")
            + "\n[files]\nfile a text:x\n",
            "r3 claimed but integrity-trigger is off",
        ),
        (
            MINIMAL.replace("claims r1", "claims r1-link"),
            "r1-link claimed but host(s) without link address: probe, target",
        ),
        (
            MINIMAL.replace("claims r1", "claims r1-fields"),
            "r1-fields claimed but no rule constrains proto or ttl",
        ),
        (
            MINIMAL.replace("claims r1", "claims r2")
            + "\n[accounts]\naccount root topsecret\n"
            + "\n[attempts]\nattempt root topsecret\nattempt root topsecret\n",
            "attempt list must mix registered and unregistered identifiers"
            " and passwords in all four combinations",
        ),
    ],
    ids=[
        "link-layer", "filter-fields", "auth", "integrity-trigger",
        "link-addresses", "field-rule", "attempt-coverage",
    ],
)
def test_validate_and_run_campaign_give_one_text_per_precondition(scenario_text, problem):
    scenario = parse_scenario(scenario_text)
    assert validate_scenario(scenario) == [problem]
    with pytest.raises(FwconformError) as caught:
        run_campaign(scenario)
    owner_text = problem.split(" claimed but ", 1)[-1]
    assert owner_text in str(caught.value)
