from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwconform.testbench
from _products import IgnoresWrites
from test_acceptance import ATTRIBUTION
from fwconform.campaign import child_seed, run_campaign
from fwconform.errors import FwconformError, Infeasible, ScenarioValidationError
from fwconform.firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Fault,
    FaultName,
    FileArtifact,
    FilterRule,
    Mutation,
    RuleAction,
)
from fwconform.formal import Capabilities
from fwconform.optimizer import ProcedureVariant
from fwconform.scenario import Scenario, load_scenario, parse_scenario, validate_scenario
from fwconform.testbench import Host, TrafficSpec

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
    # Claims r1-fields against a rule set with no field constraint, built in
    # code past the parser: the campaign refuses it before any procedure
    # runs, with the validator's own problem list.
    scenario = replace(
        parse_scenario(MINIMAL),
        claims=("r1-fields",),
        requirements=("r1-fields",),
    )
    with pytest.raises(ScenarioValidationError) as caught:
        run_campaign(scenario)
    assert caught.value.problems == ["r1-fields claimed but no rule constrains proto or ttl"]


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


# Fault pairs whose attribution rows name disjoint requirements: a filter
# fault with a sign-on or integrity fault, or a sign-on fault with
# blind_integrity.  Each fault degrades its own mechanism of one product.
DISJOINT_PAIRS = [
    (a, b)
    for a, b in combinations(ATTRIBUTION, 2)
    if ATTRIBUTION[a].keys().isdisjoint(ATTRIBUTION[b])
]


def test_every_cross_mechanism_pair_of_attributed_faults_is_combined():
    assert len(DISJOINT_PAIRS) == 6 * 5 + 4 * 1


@pytest.mark.parametrize("pair", DISJOINT_PAIRS, ids="+".join)
def test_two_faults_on_disjoint_requirements_fail_the_union_of_their_rows(pair):
    scenario = load_scenario(str(REFERENCE))
    report = run_campaign(scenario, faults=tuple(Fault.parse(spec) for spec in pair))
    failed = {}
    for rec in report.procedures:
        broken = {c.label for c in rec.outcome.criteria if c.bit == 0}
        if broken:
            failed[rec.procedure.requirement_id] = broken
    assert report.metadata.faults == pair
    assert failed == {**ATTRIBUTION[pair[0]], **ATTRIBUTION[pair[1]]}


def test_a_product_that_ignores_writes_fails_only_the_detection_criterion(monkeypatch):
    monkeypatch.setattr(fwconform.testbench, "Firewall", IgnoresWrites)
    report = run_campaign(load_scenario(str(REFERENCE)))
    failed = {
        (rec.procedure.requirement_id, c.label, c.detail)
        for rec in report.procedures
        for c in rec.outcome.criteria
        if c.bit == 0
    }
    assert not report.campaign.conform
    assert failed == {
        ("r3", "detections-match-modifications", "unflagged edit(s): screen.conf, engine.bin")
    }


@pytest.mark.parametrize(
    "index, written", [(10**5000, ""), (-(10**5000), "-")], ids=["huge", "huge-negative"]
)
def test_run_campaign_refuses_a_rule_index_too_long_to_write_in_decimal(index, written):
    scenario = parse_scenario(REFERENCE.read_text())
    with pytest.raises(ScenarioValidationError) as caught:
        run_campaign(scenario, faults=[Fault(FaultName.INVERT_RULE, index)])
    assert caught.value.problems == [
        f"fault invert_rule:{written}<16610-bit integer>: rule index outside the 4-rule set"
    ]


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
        (MINIMAL.replace("claims r1", "claims r2"), "r2 claimed but no accounts registered"),
        (MINIMAL.replace("claims r1", "claims r3"), "r3 claimed but no files to monitor"),
    ],
    ids=[
        "link-layer", "filter-fields", "auth", "integrity-trigger",
        "link-addresses", "field-rule", "attempt-coverage", "accounts", "files",
    ],
)
def test_validate_and_run_campaign_give_one_text_per_precondition(scenario_text, problem):
    scenario = parse_scenario(scenario_text)
    assert validate_scenario(scenario) == [problem]
    with pytest.raises(FwconformError) as caught:
        run_campaign(scenario)
    owner_text = problem.split(" claimed but ", 1)[-1]
    assert owner_text in str(caught.value)


_BASE = parse_scenario(MINIMAL)
_TARGET = _BASE.internal[0]
_LINKED = {
    "external": (Host("probe", Address("198.51.100.10", "02:00:5e:10:00:01")),),
    "internal": (Host("target", Address("203.0.113.20", "02:00:5e:20:00:01")),),
}
_ROOT = (AdminAccount("root", "topsecret"),)


def _claiming(claim, **changes):
    return dict(claims=(claim,), requirements=(claim,), **changes)


# One scenario built in code per rule `validate_scenario` states, with a
# problem it must report.
_REFUSED = {
    "no-name": (dict(name=""), "profile has no name"),
    "no-claims": (dict(claims=(), requirements=()), "profile claims no requirements"),
    "duplicate-claims": (dict(claims=("r1", "r1")), "duplicate claim ids"),
    "duplicate-listed": (dict(requirements=("r1", "r1")), "duplicate requirement ids listed"),
    "unknown-claim": (
        dict(claims=("r1", "r9"), requirements=("r1", "r9")),
        "unknown requirement id(s) claimed: r9",
    ),
    "unknown-listed": (
        dict(requirements=("r1", "r9")), "unknown requirement id(s) listed: r9"
    ),
    "claim-outside-list": (
        dict(requirements=()), "claim(s) outside the requirement list: r1"
    ),
    "negative-seed": (dict(seed=-1), "seed must be nonnegative: -1"),
    "negative-budget": (dict(budget=-1), "budget must be nonnegative: -1"),
    "text-seed": (dict(seed="7"), "seed must be an integer: '7'"),
    "float-seed": (dict(seed=1.5), "seed must be an integer: 1.5"),
    "no-seed": (dict(seed=None), "seed must be an integer: None"),
    "text-budget": (dict(budget="3"), "budget must be an integer: '3'"),
    "bool-budget": (dict(budget=True), "budget must be an integer: True"),
    "huge-negative-seed": (
        dict(seed=-(10**5000)), "seed must be nonnegative: -<16610-bit integer>"
    ),
    "huge-negative-budget": (
        dict(budget=-(10**5000)), "budget must be nonnegative: -<16610-bit integer>"
    ),
    "int-claim": (dict(claims=(5,), requirements=(5,)), "unknown requirement id(s) claimed: 5"),
    "link-layer-off": (
        _claiming("r1-link", capabilities=Capabilities(link_layer=False), **_LINKED),
        "r1-link claimed but link-layer is off",
    ),
    "filter-fields": (
        _claiming(
            "r1-fields",
            capabilities=Capabilities(filter_fields=("ttl",)),
            rules=(FilterRule(RuleAction.ALLOW, "probe", "target", proto=6),),
        ),
        "r1-fields claimed but filter-fields lacks proto",
    ),
    "auth-none": (
        _claiming("r2", capabilities=Capabilities(auth_mode=None), accounts=_ROOT),
        "r2 claimed but auth is none",
    ),
    "integrity-trigger-off": (
        _claiming(
            "r3",
            capabilities=Capabilities(integrity_trigger=False),
            files=(FileArtifact("a", b"x"),),
        ),
        "r3 claimed but integrity-trigger is off",
    ),
    "link-addresses": (
        _claiming("r1-link"), "r1-link claimed but host(s) without link address: probe, target"
    ),
    "field-rule": (
        _claiming("r1-fields"), "r1-fields claimed but no rule constrains proto or ttl"
    ),
    "no-accounts": (_claiming("r2"), "r2 claimed but no accounts registered"),
    "no-files": (_claiming("r3"), "r3 claimed but no files to monitor"),
    "no-external": (dict(external=()), "no external hosts"),
    "no-internal": (dict(internal=()), "no internal hosts"),
    "duplicate-host-name": (
        dict(internal=(_TARGET, Host("probe", Address("203.0.113.21")))),
        "duplicate host name(s): probe",
    ),
    "address-twice": (
        dict(internal=(_TARGET, Host("mirror", Address("203.0.113.20")))),
        "duplicate host address(es): 203.0.113.20",
    ),
    "rule-unknown-host": (
        dict(rules=(FilterRule(RuleAction.ALLOW, "probe", "ghost"),)),
        "rule 1: destination 'ghost' is not an internal host",
    ),
    "rule-inside-out": (
        dict(rules=_BASE.rules + (FilterRule(RuleAction.DENY, "target", "probe", order=1),)),
        "rule 2: source 'target' is not an external host",
    ),
    "traffic-inside-out": (
        dict(traffic=(TrafficSpec("target", "probe"),)),
        "packet 1: source 'target' is not an external host",
    ),
    "traffic-unknown-host": (
        dict(traffic=(TrafficSpec("ghost", "target"),)),
        "packet 1: source 'ghost' is not an external host",
    ),
    "empty-traffic": (dict(traffic=()), "traffic list is empty"),
    "duplicate-rule-order": (dict(rules=_BASE.rules * 2), "duplicate rule order(s): 0"),
    "duplicate-account": (
        _claiming("r2", accounts=_ROOT + (AdminAccount("root", "other"),)),
        "duplicate account identifier(s): root",
    ),
    "attempt-coverage": (
        _claiming("r2", accounts=_ROOT, attempts=(("root", "topsecret"),)),
        "attempt list must mix registered and unregistered identifiers"
        " and passwords in all four combinations",
    ),
    "duplicate-file": (
        _claiming("r3", files=(FileArtifact("a", b"x"), FileArtifact("a", b"y"))),
        "duplicate file id(s): a",
    ),
    "mutation-unknown-file": (
        _claiming("r3", files=(FileArtifact("a", b"x"),), mutations=(Mutation("ghost", "none"),)),
        "mutation 1: unknown file 'ghost'",
    ),
    "flip-past-end": (
        _claiming("r3", files=(FileArtifact("a", b"x"),), mutations=(Mutation("a", "flip", 5),)),
        "mutation 1: flip offset 5 beyond end of a (1 bytes)",
    ),
    "negative-flip": (
        _claiming("r3", files=(FileArtifact("a", b"x"),), mutations=(Mutation("a", "flip", -1),)),
        "mutation 1: flip offset -1 is negative",
    ),
    "duplicate-variant": (
        dict(variants=(ProcedureVariant("r1", "a", 1, 0),) * 2),
        "duplicate variant(s): r1/a",
    ),
    "stray-variant": (
        dict(variants=(ProcedureVariant("r2", "a", 1, 0),)),
        "variant(s) for unclaimed requirement(s): r2",
    ),
    "int-stray-variant": (
        dict(variants=(ProcedureVariant(5, "a", 1, 0),)),
        "variant(s) for unclaimed requirement(s): 5",
    ),
    "huge-flip": (
        _claiming(
            "r3", files=(FileArtifact("a", b"x"),), mutations=(Mutation("a", "flip", 10**5000),)
        ),
        "mutation 1: flip offset <16610-bit integer> beyond end of a (1 bytes)",
    ),
    "malformed-management": (
        dict(management="bogus"),
        "management: not a canonical dotted-quad network address: 'bogus'",
    ),
    "management-leading-zero": (
        dict(management="198.18.0.01"),
        "management: not a canonical dotted-quad network address: '198.18.0.01'",
    ),
}


@pytest.mark.parametrize("changes, problem", _REFUSED.values(), ids=_REFUSED.keys())
def test_run_campaign_refuses_what_validate_refuses(changes, problem):
    scenario = replace(_BASE, **changes)
    problems = validate_scenario(scenario)
    assert problem in problems
    with pytest.raises(ScenarioValidationError) as caught:
        run_campaign(scenario)
    assert caught.value.problems == problems


# Small scenarios built in code, every value one the parser could produce.
# About half draw one flaw: the part it names is drawn from values that may
# break the rules about it, every other part is drawn well-formed.  One flaw
# at a time puts scenarios right at each rule's edge, where a check that
# `validate` lacks would let a broken scenario through to the run.
_FLAWS = (
    "name", "claims", "requirements", "capabilities", "seed", "hosts", "links", "endpoints",
    "traffic", "accounts", "attempts", "files", "variants", "budget", "faults",
)
_REAL = ["r1", "r1-link", "r1-fields", "r2", "r3"]
_MACS = st.none() | st.sampled_from(["02:00:00:00:00:01", "02:00:00:00:00:02"])
_PROTOS = st.none() | st.sampled_from([6, 17])
_TTLS = st.none() | st.tuples(st.integers(0, 64), st.integers(64, 255))
_IDS = st.sampled_from(["root", "ops"])
_PASSWORDS = st.sampled_from(["topsecret", "hunter two"])
_GOOD_FAULTS = ["ignore_field:ttl", "skip_journal:pass_denied", "accept_any_password"]
_BAD_FAULTS = ["invert_rule:3", "leak_credentials", "blind_integrity:g"]


@st.composite
def _scenarios(draw):
    flawed = draw(st.none() | st.sampled_from(_FLAWS))

    def pick(part, good, bad):
        return draw(bad if part == flawed else good)

    def segment(names, net, mac):
        def host(i):
            linked = pick("links", st.just(True), st.booleans())
            return Host(names[i], Address(f"{net}{i + 1}", f"{mac}{i + 1}" if linked else None))

        indexes = draw(st.lists(st.integers(0, 1), min_size=1, max_size=2, unique=True))
        return tuple(host(i) for i in indexes)

    claims = tuple(
        pick(
            "claims",
            st.lists(st.sampled_from(_REAL), min_size=1, max_size=3, unique=True),
            st.lists(st.sampled_from(_REAL + ["r9"]), max_size=3),
        )
    )
    external = segment(["e1", "e2"], "198.51.100.", "02:00:00:00:01:0")
    internal = segment(["i1", "i2"], "203.0.113.", "02:00:00:00:02:0")
    # A host that repeats an outside host's name and address.
    internal += pick("hosts", st.just(()), st.just(external[:1]))
    ends = st.tuples(
        st.sampled_from([h.name for h in external]), st.sampled_from([h.name for h in internal])
    )
    rules = []
    for order in range(draw(st.integers(0, 3))):
        src, dst = pick("endpoints", ends, st.tuples(st.just("i1"), st.just("ghost")))
        ttl = draw(_TTLS)
        rules.append(
            FilterRule(
                draw(st.sampled_from(list(RuleAction))), src, dst,
                src_link=draw(_MACS), dst_link=draw(_MACS), proto=draw(_PROTOS),
                ttl_min=ttl and ttl[0], ttl_max=ttl and ttl[1], order=order,
            )
        )
    traffic = None
    if draw(st.booleans()):
        traffic = tuple(
            TrafficSpec(
                *pick("traffic", ends, ends.map(lambda e: e[::-1])),
                proto=draw(_PROTOS),
                ttl=draw(st.none() | st.integers(0, 255)),
                src_link=draw(_MACS),
            )
            for _ in range(pick("traffic", st.integers(1, 3), st.integers(0, 3)))
        )
    accounts = tuple(
        AdminAccount(identifier, draw(_PASSWORDS))
        for identifier in pick(
            "accounts",
            st.lists(_IDS, min_size=1, max_size=2, unique=True),
            st.lists(_IDS, max_size=2),
        )
    )
    files = tuple(
        FileArtifact(file_id, b"ab")
        for file_id in pick(
            "files", st.just(["f"]) | st.just(["f", "g"]), st.lists(st.just("f"), max_size=2)
        )
    )
    mutation = st.one_of(
        st.builds(Mutation, st.just("f"), st.just("none")),
        st.builds(Mutation, st.just("f"), st.just("flip"), st.integers(0, 1)),
        st.builds(Mutation, st.just("f"), st.just("append"), data=st.just(b"!")),
        st.builds(Mutation, st.just("f"), st.just("replace"), data=st.just(b"xyz")),
    )
    bad_mutation = st.builds(Mutation, st.sampled_from(["f", "h"]), st.just("flip"), st.just(9))
    variant = st.builds(
        ProcedureVariant,
        st.sampled_from(claims or ["r1"]),
        st.sampled_from(["fast", "cheap"]),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    return Scenario(
        name=pick("name", st.just("demo"), st.just("")),
        claims=claims,
        requirements=pick(
            "requirements",
            st.just(claims),
            st.just(claims + claims[:1])
            | st.lists(st.sampled_from(_REAL + ["r9"]), max_size=4).map(tuple),
        ),
        capabilities=Capabilities(
            auth_mode=pick("capabilities", st.sampled_from(list(AuthMode)), st.none()),
            link_layer=pick("capabilities", st.just(True), st.booleans()),
            filter_fields=pick(
                "capabilities",
                st.just(("proto", "ttl")),
                st.sampled_from([(), ("proto",), ("ttl",)]),
            ),
            integrity_trigger=pick("capabilities", st.just(True), st.booleans()),
        ),
        seed=pick("seed", st.integers(0, 3), st.just(-1)),
        external=external,
        internal=internal,
        rules=tuple(rules),
        traffic=traffic,
        accounts=accounts,
        files=files,
        mutations=tuple(
            pick("files", mutation, bad_mutation) for _ in range(draw(st.integers(0, 2)))
        ),
        attempts=pick(
            "attempts",
            st.none(),
            st.lists(
                st.tuples(_IDS | st.just("nobody"), _PASSWORDS | st.just("guess")),
                min_size=1,
                max_size=6,
            ).map(tuple),
        ),
        variants=tuple(
            pick(
                "variants",
                st.lists(variant, max_size=3, unique_by=lambda v: (v.requirement_id, v.variant_id)),
                st.lists(variant | variant.map(lambda v: replace(v, requirement_id="r9")),
                         max_size=3),
            )
        ),
        budget=pick("budget", st.none() | st.integers(0, 6), st.just(-1)),
        faults=tuple(
            Fault.parse(pick("faults", st.sampled_from(_GOOD_FAULTS), st.sampled_from(_BAD_FAULTS)))
            for _ in range(draw(st.integers(0, 1)))
        ),
    )


@settings(max_examples=200, deadline=None)
@given(scenario=_scenarios())
def test_run_campaign_runs_exactly_what_validate_accepts(scenario):
    problems = validate_scenario(scenario)
    try:
        report = run_campaign(scenario)
    except ScenarioValidationError as exc:
        assert problems and exc.problems == problems
    except Infeasible:
        assert not problems
    else:
        assert not problems
        assert report.campaign.n == len(scenario.requirements)
