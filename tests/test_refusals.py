"""Every refusal is a `Refused` in the words of the layer that owns the rule."""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fwconform.errors import FwconformError, Refused, ReportFormatError
from fwconform.firewall import (
    AdminAccount,
    Address,
    Fault,
    FaultName,
    FaultyFirewall,
    FileArtifact,
    FilterRule,
    Mutation,
    Packet,
    RuleAction,
    link_address,
)
from fwconform.formal import CampaignVerdict, CriterionResult, FirewallProfile, ProcedureOutcome
from fwconform.optimizer import ProcedureVariant, optimize_plan
from fwconform.report import export_report, parse_report, report_from_dict
from fwconform.testbench import TrafficSpec

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "reference-leak-credentials.json"
# The scenario parser and the report codec raise plain ValueError and
# TypeError inside, and turn each into ScenarioParseError or ReportFormatError.
PLAIN_RAISES_ALLOWED = {"scenario.py", "report.py"}


EXT, INT = Address("198.51.100.10"), Address("203.0.113.20")
# Past the interpreter's 4300-digit limit for writing an int in decimal.
HUGE = 10**5000
NAMED_HUGE = "<16610-bit integer>"


def _nested(depth: int, wrap=lambda value: [value]):
    """A value nested `depth` levels deep, past the recursion limit for a large depth."""
    value = []
    for _ in range(depth):
        value = wrap(value)
    return value


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
    # Each value below is one no refusal text can write in decimal or repr.
    "packet-proto-huge": (
        lambda: Packet(EXT, INT, proto=HUGE), f"proto out of range: {NAMED_HUGE}"
    ),
    "rule-ttl-huge": (
        lambda: FilterRule(RuleAction.ALLOW, "a", "b", ttl_min=HUGE),
        f"ttl out of range: {NAMED_HUGE}",
    ),
    "traffic-ttl-huge-negative": (
        lambda: TrafficSpec("a", "b", ttl=-HUGE), f"ttl out of range: -{NAMED_HUGE}"
    ),
    "address-huge": (
        lambda: Address(HUGE), f"not a canonical dotted-quad network address: {NAMED_HUGE}"
    ),
    "account-identifier-huge": (
        lambda: AdminAccount(HUGE, "x"), f"account identifier must be a string: {NAMED_HUGE}"
    ),
    "account-identifier-deep": (
        lambda: AdminAccount(_nested(100_000), "x"),
        "account identifier must be a string: an array nested past the recursion limit",
    ),
    "file-id-huge": (lambda: FileArtifact(HUGE, b""), f"file id must be a string: {NAMED_HUGE}"),
    "mutation-kind-huge": (lambda: Mutation("f", HUGE), f"unknown mutation kind {NAMED_HUGE}"),
    "mutation-offset-huge-negative": (
        lambda: Mutation("f", "flip", -HUGE).apply(b"abc"),
        f"flip offset -{NAMED_HUGE} is negative",
    ),
    "fault-blind-integrity-huge": (
        lambda: Fault(FaultName.BLIND_INTEGRITY, HUGE),
        f"blind_integrity parameter must be a string: {NAMED_HUGE}",
    ),
    "fault-ignore-field-huge": (
        lambda: Fault(FaultName.IGNORE_FIELD, HUGE),
        f"ignore_field parameter must be one of link, proto, ttl: {NAMED_HUGE}",
    ),
    "variant-cost-huge": (
        lambda: ProcedureVariant("r1", "a", 1.5, HUGE),
        f"r1/a: time and cost must be integers: 1.5, {NAMED_HUGE}",
    ),
    "plan-budget-huge-negative": (
        lambda: optimize_plan({"r1": [ProcedureVariant("r1", "a", 1, 1)]}, -HUGE),
        f"budget must be nonnegative: -{NAMED_HUGE}",
    ),
    "profile-claim-int": (
        lambda: FirewallProfile("p", (5,)), "unknown requirement id(s) claimed: 5"
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


# Calls whose arguments are refusal texts; every f-string in a ``*_problem``
# or ``*_problems`` function and in a ``raise`` is one too.
REFUSING_CALLS = {"Refused", "refuse", "say", "Infeasible"}


def _refusal_texts(tree: ast.AST, exempt_raises: set[int]) -> list[ast.JoinedStr]:
    """The f-strings that build refusal texts in a module's syntax tree, leaving
    out the ``raise`` statements on the `exempt_raises` lines."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.endswith(("_problem", "_problems")):
            roots.append(node)
        elif isinstance(node, ast.Raise) and node.lineno not in exempt_raises:
            roots.append(node)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in REFUSING_CALLS:
                roots.append(node)
            elif isinstance(func, ast.Attribute) and func.attr == "append":
                # problems.append(...) or self.problems.append(...)
                if ast.unparse(func.value).endswith("problems"):
                    roots.append(node)
    found = {id(n): n for root in roots for n in ast.walk(root) if isinstance(n, ast.JoinedStr)}
    return list(found.values())


def _writes_a_value_itself(placeholder: ast.FormattedValue) -> bool:
    """Whether a placeholder writes a value with ``!r``/``!s``, ``repr``/``str``, or a join
    that does not name each item through ``shown``."""
    if placeholder.conversion in (ord("r"), ord("s")):
        return True
    for node in ast.walk(placeholder.value):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id in ("repr", "str", "map"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr == "join":
            names = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
            if "shown" not in names:
                return True
    return False


def test_no_refusal_text_writes_a_value_itself():
    """Every refusal names a caller's value through `errors.shown` (or `listed`,
    `type_problem` and the codec's `_show`, which call it), never by itself:
    an int past the digit limit or a list nested past the recursion limit
    would crash the very refusal that names it.  The scenario parser's plain
    raises name the file's own tokens, which are always strings."""
    found = {}
    for path in sorted((ROOT / "src" / "fwconform").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set(_plain_raises(path)) if path.name == "scenario.py" else set()
        for text in _refusal_texts(tree, exempt):
            for part in text.values:
                if isinstance(part, ast.FormattedValue) and _writes_a_value_itself(part):
                    found.setdefault(path.name, []).append(part.lineno)
    assert found == {}


def test_the_dict_decoder_names_an_integer_too_long_to_write():
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    data["metadata"]["tool"] = HUGE
    with pytest.raises(ReportFormatError) as caught:
        report_from_dict(data)
    assert str(caught.value) == f"malformed report: tool: expected string, got {NAMED_HUGE}"


def _invert_rule(param):
    FaultyFirewall(faults=[Fault(FaultName.INVERT_RULE, param)])


def _flip(offset):
    Mutation("f", "flip", offset).apply(b"abc")


def _string(value):
    return isinstance(value, str)


def _string_or_none(value):
    return value is None or isinstance(value, str)


def _none(value):
    return value is None


def _nothing(value):
    return False


def _positive_int(value):
    return type(value) is int and value > 0


# Each field a value type checks: how to build (and use) the type with one
# value in that field, and which of the values drawn below the field may take.
CHECKED_FIELDS = {
    "Address.net": (Address, _string),
    "Address.link": (lambda v: Address("1.2.3.4", v), _string_or_none),
    "Packet.proto": (lambda v: Packet(EXT, INT, proto=v), _nothing),
    "Packet.ttl": (lambda v: Packet(EXT, INT, ttl=v), _nothing),
    "FilterRule.proto": (lambda v: FilterRule(RuleAction.ALLOW, "a", "b", proto=v), _none),
    "FilterRule.ttl_min": (lambda v: FilterRule(RuleAction.ALLOW, "a", "b", ttl_min=v), _none),
    "FilterRule.ttl_max": (lambda v: FilterRule(RuleAction.ALLOW, "a", "b", ttl_max=v), _none),
    "FilterRule.src_link": (
        lambda v: FilterRule(RuleAction.ALLOW, "a", "b", src_link=v), _string_or_none
    ),
    "TrafficSpec.proto": (lambda v: TrafficSpec("a", "b", proto=v), _none),
    "TrafficSpec.ttl": (lambda v: TrafficSpec("a", "b", ttl=v), _none),
    "TrafficSpec.dst_link": (lambda v: TrafficSpec("a", "b", dst_link=v), _string_or_none),
    "AdminAccount.identifier": (lambda v: AdminAccount(v, "x"), _string),
    "AdminAccount.password": (lambda v: AdminAccount("root", v), _string),
    "FileArtifact.file_id": (lambda v: FileArtifact(v, b""), _string),
    "FileArtifact.content": (lambda v: FileArtifact("f", v), lambda v: isinstance(v, bytes)),
    "Mutation.kind": (lambda v: Mutation("f", v), _string),
    "Mutation.offset": (_flip, _nothing),
    "Mutation.data": (lambda v: Mutation("f", "append", data=v), lambda v: isinstance(v, bytes)),
    "Fault.name": (Fault, _nothing),
    "Fault.invert_rule": (_invert_rule, _nothing),
    "Fault.ignore_field": (lambda v: Fault(FaultName.IGNORE_FIELD, v), _string),
    "Fault.blind_integrity": (lambda v: Fault(FaultName.BLIND_INTEGRITY, v), _string),
    "ProcedureVariant.time": (lambda v: ProcedureVariant("r1", "a", v, 0), _positive_int),
    "ProcedureVariant.cost": (lambda v: ProcedureVariant("r1", "a", 0, v), _positive_int),
}
_DEEP = [_nested(100_000), _nested(100_000, lambda value: {"a": value})]
BAD_VALUES = st.one_of(
    st.sampled_from([HUGE, -HUGE, 2**20000, [HUGE], {"a": -HUGE}, *_DEEP]),
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.lists(st.integers(0, 300), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(sorted(CHECKED_FIELDS)), value=BAD_VALUES)
def test_a_field_given_a_value_it_cannot_take_is_refused(field, value):
    build, takes = CHECKED_FIELDS[field]
    assume(not takes(value))
    with pytest.raises(Refused):
        build(value)
