"""Reference report bytes, pinned by digest.

Each case is the reference campaign, compliant or under one fault of the
acceptance suite's attribution table.  Its machine and human reports,
with the timestamp blanked, must hash to the sha256 stored in
`data/reference-digests.json`.  A change that alters report bytes on
purpose replaces the stored digests by hand with the ones a failure
prints, and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fwconform.campaign import run_campaign
from fwconform.firewall import Fault
from fwconform.report import export_report, strip_timestamps
from fwconform.scenario import load_scenario
from test_acceptance import ATTRIBUTION, REFERENCE

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "reference-digests.json").read_text("utf-8")
)
CASES = ["compliant", *ATTRIBUTION]


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(str(REFERENCE))


def test_every_case_has_stored_digests():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_reference_report_bytes_are_unchanged(scenario, case):
    faults = None if case == "compliant" else [Fault.parse(case)]
    report = run_campaign(scenario, faults)
    got = {
        form: hashlib.sha256(strip_timestamps(export_report(report, form)).encode()).hexdigest()
        for form in ("machine", "human")
    }
    changed = {form: digest for form, digest in got.items() if digest != DIGESTS[case][form]}
    assert not changed, f"{case}: report bytes changed, new sha256 {changed}"
