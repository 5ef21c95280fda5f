"""Report bytes, pinned by digest.

Each reference case is the reference campaign, compliant or under one
fault of the acceptance suite's attribution table.  Its machine and human
reports, with the timestamp blanked, must hash to the sha256 stored in
`data/reference-digests.json`.  The many-hosts case, `data/many-hosts.scn`,
repeats three dozen link addresses hundreds of times and overrides some
of them, and its digests are stored below.  A change that alters report
bytes on purpose replaces the stored digests by hand with the ones a
failure prints, and says so.
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
MANY_HOSTS = Path(__file__).resolve().parent / "data" / "many-hosts.scn"
MANY_HOSTS_DIGESTS = {
    "machine": "ba23a91265286a6b2b7863667449d7ccdc89a9e6f03e2481b6697c9ae78574f4",
    "human": "ab82d78405bddb0b44a744180c6522e8728bc73287a32a74b1163d498f5a394d",
}


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(str(REFERENCE))


def test_every_case_has_stored_digests():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_reference_report_bytes_are_unchanged(scenario, case):
    faults = None if case == "compliant" else [Fault.parse(case)]
    changed = _changed(run_campaign(scenario, faults), DIGESTS[case])
    assert not changed, f"{case}: report bytes changed, new sha256 {changed}"


def test_many_hosts_report_bytes_are_unchanged():
    changed = _changed(run_campaign(load_scenario(str(MANY_HOSTS))), MANY_HOSTS_DIGESTS)
    assert not changed, f"many-hosts: report bytes changed, new sha256 {changed}"


def _changed(report, digests: dict) -> dict:
    """The sha256 of each form of `report` whose stripped text no longer hashes to `digests`."""
    got = {
        form: hashlib.sha256(strip_timestamps(export_report(report, form)).encode()).hexdigest()
        for form in ("machine", "human")
    }
    return {form: digest for form, digest in got.items() if digest != digests[form]}
