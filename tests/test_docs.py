"""The documents list every fault kind, profile key, requirement, criterion and report key."""

import json
import re
from pathlib import Path

import pytest

from fwconform.campaign import run_campaign
from fwconform.firewall import FaultName
from fwconform.formal import ALL_REQUIREMENTS
from fwconform.report import export_report
from fwconform.scenario import _PROFILE_KEYS, load_scenario

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FORMAT = (ROOT / "docs" / "scenario-format.md").read_text(encoding="utf-8")
SCHEMA = (ROOT / "docs" / "report-schema.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def reference_report():
    return run_campaign(load_scenario(str(ROOT / "scenarios" / "reference.scn")))


def _section(text: str, heading: str) -> str:
    """The body under `heading`, up to the next heading of any level."""
    body = text.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def _matches(text: str, pattern: str) -> set[str]:
    return set(re.findall(pattern, text, flags=re.MULTILINE))


def test_every_fault_kind_is_in_the_inject_list_and_the_faults_section():
    inject_list = _section(README, "## Fault injection").split("```")[1]
    listed = _matches(inject_list, r"^(\w+)")
    in_format = _matches(_section(FORMAT, "## [faults]"), r"`(\w+)[:`]")
    kinds = {name.value for name in FaultName}
    assert kinds <= listed
    assert kinds <= in_format


def test_every_profile_key_has_a_row_in_the_profile_table():
    rows = _matches(_section(FORMAT, "## [profile]"), r"^\| `([\w-]+)")
    assert set(_PROFILE_KEYS) <= rows


def test_every_requirement_has_a_row_in_the_catalog_table():
    rows = _matches(README, r"^\| `([\w-]+)` \|")
    assert set(ALL_REQUIREMENTS) <= rows


def test_the_criteria_table_lists_each_kinds_labels_in_report_order(reference_report):
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", _section(SCHEMA, "### criteria"), re.MULTILINE)
    documented = {kind: re.findall(r"`([\w-]+)`", cell) for kind, cell in rows}
    records = reference_report.procedures
    produced = {rec.kind.value: [c.label for c in rec.outcome.criteria] for rec in records}
    assert len(rows) == len(documented) == 5
    assert documented == produced


def _keys(value) -> set[str]:
    """Every object key anywhere in a JSON value."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_the_schema_names_every_key_of_the_reference_report(reference_report):
    prose = "".join(SCHEMA.split("```")[::2])  # outside fenced code blocks
    named = {w for span in re.findall(r"`([^`]+)`", prose) for w in re.findall(r"\w+", span)}
    named |= _matches(prose, r"^## (\w+)$")
    keys = _keys(json.loads(export_report(reference_report)))
    assert keys - named == set()
