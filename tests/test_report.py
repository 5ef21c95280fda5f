import json
from pathlib import Path

import pytest

from fwconform.campaign import run_campaign
from fwconform.errors import ReportFormatError
from fwconform.firewall import Fault
from fwconform.report import (
    SCHEMA,
    export_report,
    parse_report,
    render_human,
    report_from_dict,
    report_to_dict,
    strip_timestamps,
)
from fwconform.scenario import load_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(str(REFERENCE))


@pytest.fixture(scope="module")
def report(scenario):
    return run_campaign(scenario)


@pytest.fixture(scope="module")
def leaky_report(scenario):
    return run_campaign(scenario, faults=(Fault.parse("leak_credentials"),))


def test_machine_format_is_stable_json(report):
    text = export_report(report)
    assert text.endswith("\n")
    data = json.loads(text)
    assert data["schema"] == SCHEMA
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_write_then_read_loses_nothing(report):
    assert parse_report(export_report(report)) == report


def test_dict_round_trip_covers_every_evidence_kind(report):
    kinds = {rec.evidence.__class__.__name__ for rec in report.procedures}
    assert kinds == {"FilterEvidence", "AuthEvidence", "IntegrityEvidence"}
    assert report_from_dict(report_to_dict(report)) == report


def test_round_trip_preserves_faulty_runs(leaky_report):
    clone = parse_report(export_report(leaky_report))
    assert clone == leaky_report
    assert clone.metadata.faults == ("leak_credentials",)
    assert clone.campaign.conform == 0


def test_reruns_differ_only_in_the_timestamp(scenario):
    a = export_report(run_campaign(scenario))
    b = export_report(run_campaign(scenario))
    assert strip_timestamps(a) == strip_timestamps(b)
    human_a = export_report(run_campaign(scenario), fmt="human")
    human_b = export_report(run_campaign(scenario), fmt="human")
    assert strip_timestamps(human_a) == strip_timestamps(human_b)


def test_parse_rejects_garbage():
    with pytest.raises(ReportFormatError, match="not valid JSON"):
        parse_report("{nope")
    with pytest.raises(ReportFormatError, match="unknown report schema"):
        parse_report('{"schema": "something-else/9"}')
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(json.dumps({"schema": SCHEMA, "metadata": {}}))


@pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
def test_parse_rejects_json_that_is_not_an_object(text):
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(text)


def test_export_rejects_unknown_formats(report):
    with pytest.raises(ValueError):
        export_report(report, fmt="yaml")


def test_human_summary_of_a_clean_run(report):
    text = render_human(report)
    assert "conformance verdict: CONFORM (5/5 claims upheld)" in text
    assert "plan: total time 9, cost 6, budget 8" in text
    assert "r1: scripted (time 3, cost 3)" in text
    assert text.count("[ok]") == 4 + 4 + 4 + 4 + 1
    assert "[FAIL]" not in text
    assert "faults injected" not in text


def test_human_summary_of_a_faulty_run(leaky_report):
    text = render_human(leaky_report)
    assert "conformance verdict: NONCONFORM (4/5 claims upheld)" in text
    assert "faults injected: leak_credentials" in text
    assert "[FAIL] no-plaintext-credentials-captured" in text


def test_human_summary_never_shows_a_password(report, leaky_report, scenario):
    for rep in (report, leaky_report):
        text = render_human(rep)
        for account in scenario.accounts:
            assert account.password not in text


def test_strip_timestamps_touches_only_the_created_lines(report):
    machine = export_report(report)
    stripped = strip_timestamps(machine)
    assert '"created_at": ""' in stripped
    assert stripped.count("\n") == machine.count("\n")
    human = export_report(report, fmt="human")
    assert "\ncreated:\n" in strip_timestamps(human)
