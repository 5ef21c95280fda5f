from dataclasses import replace
from pathlib import Path

import pytest

from fwconform.campaign import child_seed, run_campaign
from fwconform.errors import InapplicableRule, ScenarioValidationError
from fwconform.firewall import Fault
from fwconform.scenario import load_scenario, parse_scenario

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
