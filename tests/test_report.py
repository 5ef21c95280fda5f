import gc
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwconform.cli as cli
import fwconform.report as report_module
from fwconform.campaign import run_campaign
from fwconform.errors import FwconformError, ReportFormatError
from fwconform.firewall import Address, Fault
from fwconform.report import (
    SCHEMA,
    export_report,
    parse_report,
    render_human,
    report_from_dict,
    report_to_dict,
    strip_timestamps,
)
from fwconform.scenario import load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "scenarios" / "reference.scn"
# The reference scenario run under leak_credentials, timestamp stripped: all
# three evidence kinds, credential findings and a fault list in one report.
GOLDEN = Path(__file__).resolve().parent / "data" / "reference-leak-credentials.json"
GOLDEN_TEXT = GOLDEN.read_text(encoding="utf-8")


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


def test_machine_report_matches_the_committed_reference(leaky_report):
    # Pins every key name and value layout: a codec that renamed a key the
    # same way on both sides would still pass the round-trip tests.
    data = json.loads(GOLDEN_TEXT)
    assert {p["evidence"]["type"] for p in data["procedures"]} == {"filter", "auth", "integrity"}
    assert any(p["evidence"].get("findings") for p in data["procedures"])
    assert data["metadata"]["faults"] == ["leak_credentials"]
    assert strip_timestamps(export_report(leaky_report)) == GOLDEN_TEXT
    assert export_report(parse_report(GOLDEN_TEXT)) == GOLDEN_TEXT


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
    with pytest.raises(ReportFormatError, match="^malformed report: unknown report schema 'x'$"):
        report_from_dict({"schema": "x"})
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(json.dumps({"schema": SCHEMA, "metadata": {}}))


@pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
def test_parse_rejects_json_that_is_not_an_object(text):
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(text)


DEEP_JSON = {
    "arrays": "[" * 100_000 + "]" * 100_000,
    "objects": '{"a":' * 100_000 + "1" + "}" * 100_000,
}


@pytest.mark.parametrize("text", DEEP_JSON.values(), ids=DEEP_JSON.keys())
def test_parse_rejects_json_nested_past_the_recursion_limit(text):
    with pytest.raises(ReportFormatError, match="malformed report: maximum recursion depth"):
        parse_report(text)


def test_parse_rejects_an_integer_past_the_digit_limit():
    text = GOLDEN_TEXT.replace('"seed": 42', '"seed": ' + "9" * 5000)
    with pytest.raises(ReportFormatError) as caught:
        parse_report(text)
    assert str(caught.value) == (
        "malformed report: Exceeds the limit (4300 digits) for integer string conversion:"
        " value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit"
    )


def test_parse_rejects_a_member_nested_near_the_recursion_limit():
    # Around the limit the nesting exhausts either the JSON reader or the
    # text of the type mismatch it causes; both are malformed input.
    limit = sys.getrecursionlimit()
    for depth in range(limit - 100, limit + 10, 2):
        nested = "[" * depth + "]" * depth
        text = GOLDEN_TEXT.replace('"tool": "fwconform"', f'"tool": {nested}')
        with pytest.raises(ReportFormatError, match="malformed report"):
            parse_report(text)


@pytest.mark.parametrize(
    "wrap, kind",
    [(lambda v: [v], "an array"), (lambda v: {"a": v}, "an object")],
    ids=["array", "object"],
)
def test_dict_decoder_names_a_member_nested_past_the_recursion_limit(wrap, kind):
    nested = []
    for _ in range(5000):
        nested = wrap(nested)
    data = json.loads(GOLDEN_TEXT)
    data["metadata"]["tool"] = nested
    with pytest.raises(ReportFormatError) as caught:
        report_from_dict(data)
    assert str(caught.value) == (
        f"malformed report: tool: expected string, got {kind} nested past the recursion limit"
    )


def _golden_with(*changes) -> str:
    """The golden report with the value at each (path, value) change replaced, as JSON text."""
    data = json.loads(GOLDEN_TEXT)
    for path, value in changes:
        if not path:
            return json.dumps(value)
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = value
    return json.dumps(data)


# A value of the wrong JSON type, array length or enum value at each path.
WRONG_VALUES = [
    (("campaign", "pairs", 0), [1]),
    (("campaign", "pairs", 0), ["r1", 1, 1, 1]),
    (("campaign", "pairs", 0), ["r1", None, 1]),
    (("campaign", "pairs"), "r1"),
    (("campaign", "pairs"), {"r1": [1, 1]}),
    (("campaign", "conform"), True),
    (("metadata", "seed"), "42"),
    (("metadata", "seed"), 42.0),
    (("metadata", "tool"), 7),
    (("metadata", "faults"), "leak_credentials"),
    (("plan", "budget"), "8"),
    (("procedures", 3, "evidence", "probes", 0), ["before", "203.0.113.20"]),
    (("procedures", 3, "evidence", "probes", 0), "before"),
    (("procedures", 0, "evidence", "packet_in", 0, "src"), ["198.51.100.10", None]),
    (("procedures", 0, "evidence", "packet_in", 0, "payload"), 7),
    (("procedures", 0, "evidence", "rules", 0, "proto"), "6"),
    (("procedures", 0, "evidence", "type"), "firewall"),
    (("procedures", 0, "evidence", "type"), ["filter"]),
    (("procedures", 0, "steps"), None),
    (("procedures", 0, "criteria", 0, "bit"), None),
    (("procedures", 0, "kind"), "bogus"),
    (("procedures", 0, "evidence", "level"), "wide"),
]


@pytest.mark.parametrize("path, value", WRONG_VALUES)
def test_parse_rejects_values_of_the_wrong_type_or_length(path, value):
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(_golden_with((path, value)))


@pytest.mark.parametrize("path, value", WRONG_VALUES)
def test_report_from_dict_refuses_as_parse_report_does(path, value):
    text = _golden_with((path, value))
    with pytest.raises(ReportFormatError) as parsed:
        parse_report(text)
    with pytest.raises(ReportFormatError) as decoded:
        report_from_dict(json.loads(text))
    assert str(decoded.value) == str(parsed.value)


@pytest.mark.parametrize(
    "data, problem",
    [
        ({"schema": SCHEMA, "metadata": {}}, "'campaign'"),
        (["x"], 'expected a JSON object, got ["x"]'),
        (
            json.loads(_golden_with((("procedures", 0, "kind"), "bogus"))),
            'not a RequirementKind value: "bogus"',
        ),
        (
            json.loads(_golden_with((("procedures", 0, "evidence", "level"), "wide"))),
            'not a FilterLevel value: "wide"',
        ),
    ],
    ids=["missing-member", "not-an-object", "kind", "level"],
)
def test_the_dict_entry_names_the_problem(data, problem):
    with pytest.raises(ReportFormatError) as caught:
        report_from_dict(data)
    assert str(caught.value) == f"malformed report: {problem}"


_RECORDS = json.loads(GOLDEN_TEXT)["procedures"]
_PAIRS = json.loads(GOLDEN_TEXT)["campaign"]["pairs"]


# Reports that decode and whose bits agree, yet that no campaign could have
# written: one record per claimed row, none for an unknown id or an unclaimed
# row, each record of its requirement's kind with that kind's evidence at that
# kind's level, and a verdict that is the one its claim bits and records give.
@pytest.mark.parametrize(
    "changes, problem",
    [
        (
            [
                (("campaign", "pairs"), [*_PAIRS, ["r9", 1, 1]]),
                (("campaign", "n"), 6),
                (("procedures",), [*_RECORDS, {**_RECORDS[4], "requirement": "r9"}]),
            ],
            "unknown requirement id(s) listed: r9",
        ),
        (
            [(("procedures", 3, "kind"), "integrity-control")],
            "reference-fw/r2: integrity-control record with auth evidence,"
            " expected admin-auth record with auth evidence",
        ),
        (
            [(("procedures", 4, "evidence"), _RECORDS[3]["evidence"])],
            "reference-fw/r3: integrity-control record with auth evidence,"
            " expected integrity-control record with integrity evidence",
        ),
        (
            [(("procedures", 0, "evidence", "level"), "fields")],
            "reference-fw/r1: net-filter record with fields-level filter evidence,"
            " expected net-filter record with network-level filter evidence",
        ),
        (
            [(("procedures",), [_RECORDS[0], *_RECORDS])],
            "duplicate requirement record(s): r1",
        ),
        ([(("procedures",), _RECORDS[1:])], "no outcome for r1"),
        (
            [(("campaign", "pairs", 4), ["r3", 0, 1]), (("procedures",), _RECORDS[:4])],
            "campaign verdict is not the one its claim bits and records give",
        ),
        (
            [(("campaign", "pairs", 4), ["r3", 0, 1]), (("procedures", 4, "claim"), 0)],
            "reference-fw/r3: record or its pairs row does not claim it",
        ),
        (
            [(("campaign", "pairs", 4), ["r3", 0, 1])],
            "reference-fw/r3: record or its pairs row does not claim it",
        ),
    ],
    ids=[
        "unknown-id", "kind", "evidence-type", "level", "record-twice", "record-missing",
        "unclaimed-row-upheld", "unclaimed-record", "unclaimed-row-recorded",
    ],
)
def test_a_report_no_campaign_could_write_is_refused(tmp_path, capsys, changes, problem):
    text = _golden_with(*changes)
    for read in (parse_report, lambda t: report_from_dict(json.loads(t))):
        with pytest.raises(ReportFormatError) as caught:
            read(text)
        assert str(caught.value) == f"malformed report: {problem}"
    forged = tmp_path / "forged.json"
    forged.write_text(text)
    assert cli.main(["report", str(forged)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"malformed report: {problem}" in err


@pytest.mark.parametrize(
    "changes",
    [
        [(("campaign", "conform"), 1)],
        [(("campaign", "pairs", 0, 1), 7), (("campaign", "n"), 9)],
        [(("campaign", "pairs", 3, 2), 2)],
        [(("campaign", "n"), 9)],
        # A campaign block that agrees with itself, not with the r2 record.
        [(("campaign", "pairs", 3, 2), 1), (("campaign", "conform"), 1)],
        [(("procedures", 0, "claim"), 0)],
        [(("procedures", 3, "requirement"), "r3")],
    ],
    ids=["conform", "bit-and-n", "upheld-2", "n", "pairs-row", "claim", "requirement"],
)
def test_parse_rejects_a_forged_verdict(changes):
    with pytest.raises(ReportFormatError, match="malformed report"):
        parse_report(_golden_with(*changes))


def _paths(value, prefix=()):
    """Every path into a JSON value, keeping up to three items per list."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value[:3]):
            yield from _paths(item, prefix + (index,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(list(_paths(json.loads(GOLDEN_TEXT)))), value=_JSON)
def test_parse_either_rejects_or_returns_a_renderable_report(path, value):
    try:
        report = parse_report(_golden_with((path, value)))
    except ReportFormatError:
        return
    export_report(report, "machine")
    export_report(report, "human")


# Text that JSON must escape: quotes, backslashes, control characters, line
# separators, non-ASCII, astral characters and lone surrogates.  A high
# surrogate just before a low one would read back as one astral character,
# in any JSON, so such pairs are left out.
_SPECIAL = ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udfff", "é", "😀"]
_AWKWARD = st.text(
    st.characters(exclude_categories=()) | st.sampled_from(_SPECIAL), max_size=12
).filter(lambda t: not re.search("[\ud800-\udbff][\udc00-\udfff]", t))


@settings(max_examples=150, deadline=None)
@given(profile=_AWKWARD, texts=st.lists(st.tuples(_AWKWARD, _AWKWARD), min_size=1, max_size=6))
def test_machine_text_is_canonical_json_whatever_the_strings(profile, texts):
    golden = parse_report(GOLDEN_TEXT)
    records = []
    for i, rec in enumerate(golden.procedures):
        criteria = tuple(
            replace(c, label=texts[(i + j) % len(texts)][0], detail=texts[(i + j) % len(texts)][1])
            for j, c in enumerate(rec.outcome.criteria)
        )
        records.append(replace(rec, outcome=replace(rec.outcome, criteria=criteria)))
    report = replace(
        golden,
        metadata=replace(golden.metadata, profile=profile),
        procedures=tuple(records),
    )
    text = export_report(report)
    assert text == json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    assert parse_report(text) == report


@pytest.mark.parametrize("profile", ["\ud800\udfff", "x\udbff\udc00y"])
def test_export_refuses_a_surrogate_pair_that_would_read_back_as_one_character(report, profile):
    forged = replace(report, metadata=replace(report.metadata, profile=profile))
    with pytest.raises(ValueError, match="surrogate pair would read back as one character"):
        export_report(forged)


@pytest.mark.parametrize("profile", ["\ud800", "\udfff\ud800", "\ud800-\udfff", "😀\udc00"])
def test_lone_surrogates_and_astral_characters_read_back_unchanged(report, profile):
    forged = replace(report, metadata=replace(report.metadata, profile=profile))
    assert parse_report(export_report(forged)) == forged


# The source address of the first two packets of the first procedure: one
# host, so the second is a repeat of an address the parse has already built.
_FIRST, _SECOND = [("procedures", 0, "evidence", "packet_in", i, "src") for i in (0, 1)]


def _golden_without(path, key) -> str:
    data = json.loads(GOLDEN_TEXT)
    parent = data
    for step in path:
        parent = parent[step]
    del parent[key]
    return json.dumps(data)


def _addresses(value):
    """Every address object in a JSON value, as a (net, link) pair."""
    if isinstance(value, dict):
        if value.keys() == {"net", "link"}:
            yield value["net"], value["link"]
        for item in value.values():
            yield from _addresses(item)
    elif isinstance(value, list):
        for item in value:
            yield from _addresses(item)


@pytest.mark.parametrize(
    "member, value, error",
    [
        ("net", True, "net: expected string, got true"),
        ("net", 1, "net: expected string, got 1"),
        ("net", ["198.51.100.10"], 'net: expected string, got ["198.51.100.10"]'),
        ("net", {}, "net: expected string, got {}"),
        ("link", True, "link: expected null or string, got true"),
        ("link", 1, "link: expected null or string, got 1"),
        ("link", ["02:00:5e:10:00:01"], 'link: expected null or string, got ["02:00:5e:10:00:01"]'),
        ("link", {}, "link: expected null or string, got {}"),
    ],
)
def test_a_repeated_address_is_type_checked_like_the_first(member, value, error):
    data = json.loads(GOLDEN_TEXT)
    first = data["procedures"][0]["evidence"]["packet_in"][0]["src"]
    assert data["procedures"][0]["evidence"]["packet_in"][1]["src"] == first
    for path in (_SECOND, _FIRST):  # a repeat; a first sighting right after a clean parse
        parse_report(GOLDEN_TEXT)
        with pytest.raises(ReportFormatError) as caught:
            parse_report(_golden_with((path + (member,), value)))
        assert str(caught.value) == f"malformed report: {error}"


@pytest.mark.parametrize("path", [_SECOND, _FIRST])
def test_an_address_without_its_link_member_is_refused_wherever_it_comes(path):
    parse_report(GOLDEN_TEXT)
    with pytest.raises(ReportFormatError) as caught:
        parse_report(_golden_without(path, "link"))
    assert str(caught.value) == "malformed report: 'link'"


def test_a_parse_that_failed_midway_leaves_the_next_one_clean(leaky_report):
    for broken in (
        _golden_with((_SECOND + ("net",), "198.51.100.256")),
        _golden_with((("campaign", "n"), 9)),  # refused after every address is built
    ):
        with pytest.raises(ReportFormatError):
            parse_report(broken)
        clean = parse_report(GOLDEN_TEXT)
        assert clean.procedures == leaky_report.procedures
        assert export_report(clean) == GOLDEN_TEXT


def test_either_spelling_of_a_mac_decodes_to_one_address():
    upper = _golden_with((_SECOND + ("link",), "02:00:5E:10:00:01"))
    clean, mixed = parse_report(GOLDEN_TEXT), parse_report(upper)
    assert mixed == clean
    assert export_report(mixed) == GOLDEN_TEXT


def test_parse_builds_each_distinct_address_once_while_its_codec_lives(monkeypatch):
    distinct = set(_addresses(json.loads(GOLDEN_TEXT)))
    assert len(distinct) < len(list(_addresses(json.loads(GOLDEN_TEXT))))
    built = []
    check = Address.__post_init__
    monkeypatch.setattr(Address, "__post_init__", lambda a: built.append(a) or check(a))
    report_module._codec.cache_clear()  # fresh codecs, so empty address caches
    parse_report(GOLDEN_TEXT)
    assert len(built) == len(distinct)
    assert {(a.net, a.link) for a in built} == distinct
    built.clear()
    parse_report(GOLDEN_TEXT)  # every address comes from the cache
    assert built == []


def test_machine_text_of_a_generated_scenario_is_canonical_json(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import scengen

    generated = scengen.generate(scengen.Shape(8, 8, 20, 5, True), 3, "small-grid")
    report = run_campaign(parse_scenario(generated.text))
    text = export_report(report)
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert parse_report(text) == report


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_and_run_leave_the_garbage_collector_as_they_found_it(scenario, enabled):
    calls = [
        lambda: parse_report(GOLDEN_TEXT),
        lambda: parse_report("{nope"),
        lambda: parse_report(_golden_with((("campaign", "n"), 9))),
        lambda: run_campaign(scenario),
        lambda: run_campaign(replace(scenario, seed=-1)),
    ]
    was = gc.isenabled()
    try:
        for call in calls:
            (gc.enable if enabled else gc.disable)()
            try:
                call()
            except FwconformError:
                pass
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_export_rejects_unknown_formats(report):
    for fmt in ("yaml", "pdf"):
        with pytest.raises(ValueError, match=f"^unknown report format '{fmt}'$") as caught:
            export_report(report, fmt)
        assert isinstance(caught.value, FwconformError)


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
