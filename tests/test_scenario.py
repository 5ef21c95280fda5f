from dataclasses import replace
from pathlib import Path

import pytest

from fwconform.errors import Refused, ScenarioParseError, ScenarioValidationError
from fwconform.firewall import (
    AdminAccount, Address, AuthMode, FaultName, FileArtifact, FilterRule, RuleAction,
)
from fwconform.formal import Capabilities
from fwconform.scenario import (
    check_scenario,
    load_scenario,
    parse_scenario,
    resolve_rules,
    validate_scenario,
)
from fwconform.testbench import Host, Testbench, TrafficSpec

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


def test_reference_scenario_parses_into_the_expected_shape():
    sc = parse_scenario(REFERENCE.read_text())
    assert sc.name == "reference-fw"
    assert sc.claims == ("r1", "r1-link", "r1-fields", "r2", "r3")
    assert sc.requirements == sc.claims
    assert sc.capabilities == Capabilities(auth_mode=AuthMode.REMOTE)
    assert sc.seed == 42
    assert [h.name for h in sc.external] == ["ext1", "ext2"]
    assert [h.name for h in sc.internal] == ["int1", "int2"]
    assert [r.order for r in sc.rules] == [0, 1, 2, 3]
    assert sc.rules[2].src_link == "02:00:5e:10:00:02"
    assert (sc.rules[2].ttl_min, sc.rules[2].ttl_max) == (32, 128)
    assert len(sc.traffic) == 7
    assert sc.traffic[3].ttl == 5
    assert [a.identifier for a in sc.accounts] == ["alice", "bob"]
    assert [f.file_id for f in sc.files] == ["screen.conf", "engine.bin", "policy.db"]
    assert sc.files[1].content == bytes.fromhex("7f454c4600010203")
    assert [m.kind for m in sc.mutations] == ["flip", "append"]
    assert len(sc.variants) == 5
    assert sc.budget == 8
    assert sc.faults == ()
    assert sc.attempts is None
    assert validate_scenario(sc) == []


def test_minimal_scenario_defaults():
    sc = parse_scenario(MINIMAL)
    assert sc.requirements == ("r1",)
    assert sc.traffic is None and sc.attempts is None and sc.budget is None
    (free,) = sc.variant_catalog()["r1"]
    assert (free.variant_id, free.time, free.cost) == ("standard", 1, 0)
    assert validate_scenario(sc) == []


def test_parse_reports_every_bad_line_with_its_number():
    text = "\n".join(
        [
            "[profile]",
            "name demo",
            "claims r1",
            "seed minus-one",  # line 4
            "stance strict",  # line 5
            "[nonsense]",  # line 6
            "whatever",
            "[topology]",
            "external probe 198.51.100.999",  # line 9
            "internal target 203.0.113.20",
            "[rules]",
            "allow probe target ttl=9-5",  # line 12
        ]
    )
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(text)
    problems = caught.value.problems
    assert [p.split(":")[0] for p in problems] == [
        "line 4",
        "line 5",
        "line 6",
        "line 7",
        "line 9",
        "line 12",
    ]
    assert "empty ttl range" in problems[-1]


def test_directive_before_any_section_is_an_error():
    with pytest.raises(ScenarioParseError, match="outside any section"):
        parse_scenario("name demo\n")


def test_macs_are_normalized_to_lowercase():
    sc = parse_scenario(
        MINIMAL.replace(
            "external probe 198.51.100.10",
            "external probe 198.51.100.10 02:00:5E:10:00:AA",
        )
    )
    assert sc.external[0].address.link == "02:00:5e:10:00:aa"


def test_rule_and_traffic_macs_use_the_address_check():
    text = MINIMAL.replace("probe target", "probe target src-mac=02:00:5E:10:00:AA")
    assert parse_scenario(text).rules[0].src_link == "02:00:5e:10:00:aa"
    bad = text + "\n[traffic]\npacket probe target dst-mac=02:00:5e:10:00\n"
    bad = bad.replace("src-mac=02:00:5E:10:00:AA", "src-mac=zz:00:5e:10:00:aa")
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(bad)
    assert caught.value.problems == [
        "line 10: bad link-layer address: 'zz:00:5e:10:00:aa'",
        "line 13: bad link-layer address: '02:00:5e:10:00'",
    ]


_RULE = FilterRule(RuleAction.ALLOW, "probe", "target")
_SPEC = TrafficSpec("probe", "target")

# Records built or replaced in code with a value they must refuse, and the
# owner's text for it.
_UNBUILDABLE = {
    "rule-proto": (
        lambda: FilterRule(RuleAction.ALLOW, "probe", "target", proto=300),
        "proto out of range: 300",
    ),
    "rule-ttl": (lambda: replace(_RULE, ttl_min=-1), "ttl out of range: -1"),
    "rule-ttl-max": (lambda: replace(_RULE, ttl_min=0, ttl_max=256), "ttl out of range: 256"),
    "rule-empty-ttl": (lambda: replace(_RULE, ttl_min=90, ttl_max=10), "empty ttl range 90-10"),
    "rule-mac": (lambda: replace(_RULE, src_link="zz"), "bad link-layer address: 'zz'"),
    "traffic-ttl": (lambda: TrafficSpec("probe", "target", ttl=300), "ttl out of range: 300"),
    "traffic-proto": (lambda: replace(_SPEC, proto=-1), "proto out of range: -1"),
    "traffic-mac": (lambda: replace(_SPEC, dst_link="zz"), "bad link-layer address: 'zz'"),
}


@pytest.mark.parametrize("build, text", _UNBUILDABLE.values(), ids=_UNBUILDABLE.keys())
def test_records_refuse_bad_values_when_built(build, text):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == text


def test_records_store_macs_in_lower_case():
    mac = "02:00:5E:10:00:AA"
    assert replace(_RULE, src_link=mac, dst_link=mac).dst_link == mac.lower()
    assert TrafficSpec("probe", "target", src_link=mac).src_link == mac.lower()


# A bad option value on a [rules] or [traffic] line, and the same value
# given to the record in code.
_BAD_OPTIONS = {
    "allow probe target proto=300": lambda: replace(_RULE, proto=300),
    "allow probe target ttl=300": lambda: replace(_RULE, ttl_min=300, ttl_max=300),
    "allow probe target ttl=10-300": lambda: replace(_RULE, ttl_min=10, ttl_max=300),
    "allow probe target ttl=90-10": lambda: replace(_RULE, ttl_min=90, ttl_max=10),
    "allow probe target src-mac=zz": lambda: replace(_RULE, src_link="zz"),
    "packet probe target proto=-1": lambda: replace(_SPEC, proto=-1),
    "packet probe target ttl=300": lambda: replace(_SPEC, ttl=300),
    "packet probe target dst-mac=zz": lambda: replace(_SPEC, dst_link="zz"),
}


@pytest.mark.parametrize("directive, build", _BAD_OPTIONS.items(), ids=_BAD_OPTIONS.keys())
def test_a_bad_option_value_reads_the_same_at_parse_time_as_in_code(directive, build):
    section = "rules" if directive.startswith("allow") else "traffic"
    text = f"{MINIMAL}\n[{section}]\n{directive}\n"
    with pytest.raises(ValueError) as built:
        build()
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(text)
    assert caught.value.problems == [f"line {len(text.splitlines())}: {built.value}"]


# One malformed line per parser problem, with the section it sits in and
# the exact problem it gives.
_BAD_LINES = {
    "no-value": ("profile", "seed", "profile directive 'seed' needs a value"),
    "auth": ("profile", "auth sometimes", "auth must be local, remote or none: 'sometimes'"),
    "on-off": ("profile", "link-layer maybe", "expected on or off: 'maybe'"),
    "filter-fields": (
        "profile", "filter-fields proto mtu", "filter-fields accepts proto and ttl: ['mtu']"
    ),
    "topology": (
        "topology", "external probe", "expected: external|internal <name> <address> [<mac>]"
    ),
    "packet": ("traffic", "packet probe", "expected: packet <src-host> <dst-host> [options]"),
    "account": ("accounts", "account alice", "expected: account <identifier> <password>"),
    "file": ("files", "file x", "expected: file <id> text:...|hex:..."),
    "mutate": ("mutations", "mutate x", "expected: mutate <file-id> flip|append|replace|none ..."),
    "attempt": ("attempts", "attempt alice", "expected: attempt <identifier> <password>"),
    "budget": ("variants", "budget 1 2", "expected: budget <amount>|unlimited"),
    "variant": (
        "variants", "variant r1 manual time=1", "expected: variant <requirement> <id> time=N cost=N"
    ),
    "inject": ("faults", "inject a b", "expected: inject <fault-spec>"),
    "key-value": ("rules", "allow probe target ttl", "expected key=value, got 'ttl'"),
    "unknown-option": (
        "rules",
        "allow probe target mtu=9",
        "unknown option 'mtu', expected one of src-mac, dst-mac, proto, ttl",
    ),
    "given-twice": ("rules", "allow probe target proto=6 proto=17", "option 'proto' given twice"),
    "variant-twice": ("variants", "variant r1 manual time=1 time=2", "option 'time' given twice"),
    "variant-option": (
        "variants",
        "variant r1 manual time=1 speed=2",
        "unknown option 'speed', expected one of time, cost",
    ),
    "none-argument": ("mutations", "mutate x none 3", "mutate ... none takes no argument"),
    "flip-offset": ("mutations", "mutate x flip", "mutate ... flip needs a byte offset"),
    "append-payload": ("mutations", "mutate x append", "mutate ... append needs a payload"),
    "mutation-kind": ("mutations", "mutate x chop 3", "unknown mutation kind 'chop'"),
    "profile-key": ("profile", "stance strict", "unknown profile directive 'stance'"),
    "management": (
        "profile", "management bogus", "not a canonical dotted-quad network address: 'bogus'"
    ),
    "foreign-keyword": ("files", "account alice pw", "expected: file <id> text:...|hex:..."),
    "rule-arity": ("rules", "allow probe", "expected: allow|deny <src-host> <dst-host> [options]"),
    "topology-arity": (
        "topology",
        "external a 1.2.3.4 02:00:00:00:00:01 extra",
        "expected: external|internal <name> <address> [<mac>]",
    ),
    "budget-amount": ("variants", "budget lots", "invalid literal for int() with base 10: 'lots'"),
    "inject-arity": ("faults", "inject", "expected: inject <fault-spec>"),
}


@pytest.mark.parametrize("section, line, problem", _BAD_LINES.values(), ids=_BAD_LINES.keys())
def test_each_malformed_line_gives_its_exact_problem(section, line, problem):
    text = f"{MINIMAL}\n[{section}]\n{line}\n"
    with pytest.raises(ScenarioParseError) as caught:
        parse_scenario(text)
    assert caught.value.problems == [f"line {len(text.splitlines())}: {problem}"]


def test_requirements_and_management_land_in_the_scenario():
    sc = parse_scenario(
        MINIMAL.replace("claims r1", "claims r1\nrequirements r1 r2\nmanagement 198.18.7.7")
    )
    assert (sc.claims, sc.requirements, sc.management) == (("r1",), ("r1", "r2"), "198.18.7.7")


def test_a_loaded_scenario_is_a_value():
    first, second = load_scenario(str(REFERENCE)), load_scenario(str(REFERENCE))
    assert first == second and first is not second
    assert hash(first) == hash(second)


def test_single_ttl_value_pins_both_bounds():
    sc = parse_scenario(MINIMAL.replace("allow probe target", "allow probe target ttl=64"))
    assert (sc.rules[0].ttl_min, sc.rules[0].ttl_max) == (64, 64)


def test_profile_switches():
    text = MINIMAL.replace(
        "claims r1",
        "claims r1\nauth none\nlink-layer off\nfilter-fields none\nintegrity-trigger off",
    )
    sc = parse_scenario(text)
    assert sc.capabilities == Capabilities(
        link_layer=False, filter_fields=(), auth_mode=None, integrity_trigger=False
    )
    assert validate_scenario(sc) == []


def test_negative_seed_and_budget_are_validation_problems():
    sc = parse_scenario(
        MINIMAL.replace("claims r1", "claims r1\nseed -3") + "\n[variants]\nbudget -1\n"
    )
    assert (sc.seed, sc.budget) == (-3, -1)
    assert validate_scenario(sc) == [
        "seed must be nonnegative: -3",
        "budget must be nonnegative: -1",
    ]


def test_unlimited_budget_keyword():
    sc = parse_scenario(MINIMAL + "\n[variants]\nbudget unlimited\n")
    assert sc.budget is None


def test_payloads_reject_unknown_prefixes():
    with pytest.raises(ScenarioParseError, match="text: or hex:"):
        parse_scenario(MINIMAL + "\n[files]\nfile x raw:oops\n")


def test_inject_lines_become_faults():
    sc = parse_scenario(MINIMAL + "\n[faults]\ninject invert_rule:0\n")
    assert sc.faults[0].name is FaultName.INVERT_RULE
    assert sc.faults[0].param == 0
    assert validate_scenario(sc) == []


def test_validation_collects_independent_problems():
    sc = parse_scenario(MINIMAL)
    broken = replace(
        sc,
        claims=("r1", "r1", "r9"),
        requirements=("r1",),
        accounts=sc.accounts,
    )
    problems = validate_scenario(broken)
    assert any("duplicate claim ids" in p for p in problems)
    assert any("unknown requirement id(s) claimed: r9" in p for p in problems)
    assert any("outside the requirement list" in p for p in problems)
    assert len(problems) >= 3


def test_validation_capability_gates():
    text = MINIMAL.replace("claims r1", "claims r1 r1-link r1-fields r2 r3\nauth none")
    problems = validate_scenario(parse_scenario(text))
    assert any("r1-link claimed but host(s) without link address" in p for p in problems)
    assert any("no rule constrains proto or ttl" in p for p in problems)
    assert any("r2 claimed but auth is none" in p for p in problems)
    assert any("r3 claimed but no files to monitor" in p for p in problems)


def test_validation_messages_are_pinned():
    text = MINIMAL.replace(
        "claims r1",
        "claims r1 r1-link r1-fields r2 r3\nauth none\nlink-layer off\n"
        "filter-fields ttl\nintegrity-trigger off",
    )
    text += "\n[accounts]\naccount root topsecret\n"
    text += "\n[attempts]\nattempt root topsecret\nattempt root topsecret\n"
    problems = validate_scenario(parse_scenario(text))
    assert sorted(problems) == sorted(
        [
            "r1-link claimed but link-layer is off",
            "r1-fields claimed but filter-fields lacks proto",
            "r1-fields claimed but no rule constrains proto or ttl",
            "r2 claimed but auth is none",
            "r3 claimed but integrity-trigger is off",
            "r1-link claimed but host(s) without link address: probe, target",
            "attempt list must mix registered and unregistered identifiers"
            " and passwords in all four combinations",
            "r3 claimed but no files to monitor",
        ]
    )


def test_gathered_problems_keep_their_order():
    # `validate` lists the bench's topology problems, then the product's
    # configuration problems, then the endpoints; a bench refuses with the
    # product's problem before its own.
    twins = (Host("t", Address("203.0.113.20")), Host("t", Address("203.0.113.21")))
    sc = replace(
        parse_scenario(MINIMAL),
        external=(),
        internal=twins,
        rules=(FilterRule(RuleAction.ALLOW, "t", "t"), FilterRule(RuleAction.DENY, "t", "t")),
        accounts=(AdminAccount("alice", "a"), AdminAccount("alice", "b")),
        files=(FileArtifact("a", b"x"), FileArtifact("a", b"y")),
    )
    assert validate_scenario(sc) == [
        "no external hosts",
        "duplicate host name(s): t",
        "duplicate rule order(s): 0",
        "duplicate account identifier(s): alice",
        "duplicate file id(s): a",
        "rule 1: source 't' is not an external host",
        "rule 2: source 't' is not an external host",
    ]
    with pytest.raises(Refused) as caught:
        Testbench((), twins, rules=sc.rules)
    assert str(caught.value) == "duplicate rule order(s): 0"


def test_validation_checks_rule_and_traffic_direction():
    text = MINIMAL + "\ndeny target probe\n\n[traffic]\npacket target probe\n"
    problems = validate_scenario(parse_scenario(text))
    assert any("rule 2: source 'target' is not an external host" in p for p in problems)
    assert any("packet 1: source 'target' is not an external host" in p for p in problems)


def test_validation_replays_mutations_in_order():
    # The second mutation's offset only exists after the first append.
    good = parse_scenario(
        MINIMAL
        + "\n[files]\nfile a text:x\n\n[mutations]\nmutate a append text:yz\nmutate a flip 2\n"
    )
    assert validate_scenario(good) == []
    bad = parse_scenario(
        MINIMAL + "\n[files]\nfile a text:x\n\n[mutations]\nmutate a flip 2\nmutate ghost none\n"
    )
    problems = validate_scenario(bad)
    assert any("mutation 1" in p and "offset" in p for p in problems)
    assert any("mutation 2: unknown file 'ghost'" in p for p in problems)


def test_validation_requires_attempt_coverage():
    text = MINIMAL.replace("claims r1", "claims r1 r2")
    text += "\n[accounts]\naccount root topsecret\n"
    text += "\n[attempts]\nattempt root topsecret\nattempt root topsecret\n"
    problems = validate_scenario(parse_scenario(text))
    assert any("all four combinations" in p for p in problems)


def test_validation_checks_fault_applicability():
    text = (
        MINIMAL.replace("claims r1", "claims r1\nauth local")
        + "\n[faults]\ninject invert_rule:5\ninject blind_integrity:ghost\ninject leak_credentials\n"
    )
    problems = validate_scenario(parse_scenario(text))
    assert any("invert_rule:5: rule index outside the 1-rule set" in p for p in problems)
    assert any("blind_integrity:ghost: unknown file 'ghost'" in p for p in problems)
    assert any("leak_credentials: needs remote sign-on mode" in p for p in problems)


def test_variant_bookkeeping_problems():
    text = MINIMAL + "\n[variants]\n"
    text += "variant r1 a time=1 cost=1\nvariant r1 a time=2 cost=2\nvariant r9 b time=1 cost=1\n"
    problems = validate_scenario(parse_scenario(text))
    assert any("duplicate variant(s): r1/a" in p for p in problems)
    assert any("unclaimed requirement(s): r9" in p for p in problems)


def test_resolve_rules_swaps_names_for_addresses():
    sc = parse_scenario(MINIMAL)
    (rule,) = resolve_rules(sc)
    assert (rule.src, rule.dst) == ("198.51.100.10", "203.0.113.20")
    # original rule keeps the names
    assert (sc.rules[0].src, sc.rules[0].dst) == ("probe", "target")


def test_check_scenario_raises_with_the_full_problem_list():
    sc = replace(parse_scenario(MINIMAL), external=(), claims=("r9",))
    with pytest.raises(ScenarioValidationError) as caught:
        check_scenario(sc)
    assert len(caught.value.problems) >= 2


def test_load_scenario_reads_and_validates(tmp_path):
    assert load_scenario(str(REFERENCE)).name == "reference-fw"
    bad = tmp_path / "bad.scn"
    bad.write_text(MINIMAL.replace("claims r1", "claims r9"))
    with pytest.raises(ScenarioValidationError):
        load_scenario(str(bad))
    with pytest.raises(OSError):
        load_scenario(str(tmp_path / "missing.scn"))
