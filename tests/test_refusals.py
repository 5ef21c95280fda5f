"""Every refusal is a `Refused` in the words of the layer that owns the rule."""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from fwconform.errors import FwconformError, Refused
from fwconform.firewall import (
    AdminAccount,
    Address,
    Fault,
    FaultName,
    FileArtifact,
    FilterRule,
    Mutation,
    Packet,
    RuleAction,
    link_address,
)
from fwconform.formal import CampaignVerdict, CriterionResult, ProcedureOutcome
from fwconform.optimizer import ProcedureVariant
from fwconform.report import export_report, parse_report
from fwconform.testbench import TrafficSpec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "reference-leak-credentials.json"
# The scenario parser and the report codec raise plain ValueError and
# TypeError inside, and turn each into ScenarioParseError or ReportFormatError.
PLAIN_RAISES_ALLOWED = {"scenario.py", "report.py"}


EXT, INT = Address("198.51.100.10"), Address("203.0.113.20")


def _surrogate_export():
    report = parse_report(GOLDEN.read_text(encoding="utf-8"))
    export_report(replace(report, metadata=replace(report.metadata, profile="\ud800\udfff")))


REFUSALS = {
    "address": (
        lambda: Address("10.0.0.01"),
        "not a canonical dotted-quad network address: '10.0.0.01'",
    ),
    "link-address": (lambda: link_address("zz"), "bad link-layer address: 'zz'"),
    "address-link-type": (lambda: Address("1.2.3.4", 5), "bad link-layer address: 5"),
    "packet": (lambda: Packet(EXT, INT, ttl=256), "ttl out of range: 256"),
    "packet-proto-type": (lambda: Packet(EXT, INT, proto="6"), "proto out of range: '6'"),
    "packet-ttl-type": (lambda: Packet(EXT, INT, ttl=None), "ttl out of range: None"),
    "packet-proto-bool": (lambda: Packet(EXT, INT, proto=True), "proto out of range: True"),
    "packet-ttl-float": (lambda: Packet(EXT, INT, ttl=64.0), "ttl out of range: 64.0"),
    "packet-proto-unhashable": (lambda: Packet(EXT, INT, proto=[6]), "proto out of range: [6]"),
    "rule-proto-float": (
        lambda: FilterRule(RuleAction.ALLOW, "a", "b", proto=6.0),
        "proto out of range: 6.0",
    ),
    "rule-ttl-unhashable": (
        lambda: FilterRule(RuleAction.ALLOW, "a", "b", ttl_min=[1]),
        "ttl out of range: [1]",
    ),
    "traffic-ttl-bool": (lambda: TrafficSpec("a", "b", ttl=True), "ttl out of range: True"),
    "traffic-proto-unhashable": (lambda: TrafficSpec("a", "b", proto={}), "proto out of range: {}"),
    "rule-field": (
        lambda: FilterRule(RuleAction.ALLOW, "a", "b", proto=300),
        "proto out of range: 300",
    ),
    "rule-ttl-range": (
        lambda: FilterRule(RuleAction.ALLOW, "a", "b", ttl_min=90, ttl_max=10),
        "empty ttl range 90-10",
    ),
    "traffic": (lambda: TrafficSpec("a", "b", ttl=300), "ttl out of range: 300"),
    "traffic-mac": (
        lambda: TrafficSpec("a", "b", src_link="zz"),
        "bad link-layer address: 'zz'",
    ),
    "mutation": (lambda: Mutation("f", "chop"), "unknown mutation kind 'chop'"),
    "mutation-apply": (
        lambda: Mutation("f", "flip", offset=9).apply(b"ab"),
        "flip offset 9 beyond end of f (2 bytes)",
    ),
    "mutation-offset-type": (
        lambda: Mutation("f", "flip", offset="1").apply(b"ab"),
        "mutation offset must be an integer: '1'",
    ),
    "mutation-data-type": (
        lambda: Mutation("f", "append", data="x").apply(b"ab"),
        "mutation data must be bytes: 'x'",
    ),
    "account-identifier-type": (
        lambda: AdminAccount(5, "x"),
        "account identifier must be a string: 5",
    ),
    "account-password-type": (
        lambda: AdminAccount("root", b"x"),
        "account password must be a string: b'x'",
    ),
    "file-id-type": (lambda: FileArtifact(1, b""), "file id must be a string: 1"),
    "file-content-type": (
        lambda: FileArtifact("a.conf", "text"),
        "file content must be bytes: 'text'",
    ),
    "fault": (
        lambda: Fault(FaultName.ACCEPT_ANY_PASSWORD, "x"),
        "fault accept_any_password takes no parameter",
    ),
    "fault-name": (lambda: Fault("nope"), "unknown fault: 'nope'"),
    "fault-spec": (lambda: Fault.parse("nope:1"), "unknown fault: 'nope'"),
    "variant": (
        lambda: ProcedureVariant("r1", "a", time=-1, cost=0),
        "r1/a: negative time or cost",
    ),
    "variant-type": (
        lambda: ProcedureVariant("r1", "a", time="1", cost=0),
        "r1/a: time and cost must be integers: '1', 0",
    ),
    "outcome": (
        lambda: ProcedureOutcome(1, (CriterionResult("a", 0),)),
        "outcome bit disagrees with its criteria",
    ),
    "verdict": (
        lambda: CampaignVerdict((("r1", 1, 2),), 1, 0),
        "bits must be 0 or 1, n the row count, conform 1 iff every bit is 1",
    ),
    "export": (
        _surrogate_export,
        'a surrogate pair would read back as one character: "\\ud800\\udfff"',
    ),
}


@pytest.mark.parametrize("build, problem", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_value_type_refuses_with_refused(build, problem):
    with pytest.raises(Refused) as caught:
        build()
    assert str(caught.value) == problem
    assert isinstance(caught.value, ValueError)
    assert isinstance(caught.value, FwconformError)


def _plain_raises(path: Path) -> list[int]:
    """Line numbers of each ``raise ValueError(...)`` or ``raise TypeError(...)`` in `path`."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                lines.append(node.lineno)
    return lines


def test_only_the_parser_and_the_codec_raise_plain_value_or_type_errors():
    modules = sorted((ROOT / "src" / "fwconform").glob("*.py"))
    assert len(modules) > len(PLAIN_RAISES_ALLOWED)
    found = {
        path.name: _plain_raises(path) for path in modules if path.name not in PLAIN_RAISES_ALLOWED
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
