from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwconform.errors import FwconformError, Refused
from fwconform.firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Fault,
    FaultName,
    FileArtifact,
    FilterRule,
    Mutation,
    Packet,
    RuleAction,
    Segment,
    fault_problem,
)
from fwconform.formal import (
    ALL_REQUIREMENTS,
    Capabilities,
    FirewallProfile,
    ProcedureOutcome,
    RequirementKind,
    aggregate_verdict,
    capability_problem,
    develop_procedure,
)
from fwconform.optimizer import ProcedureVariant, optimize_plan
from fwconform import testbench
from fwconform.scenario import load_scenario, resolve_rules
from fwconform.testbench import (
    FilterEvidence,
    FilterLevel,
    Host,
    TrafficSpec,
    account_problem,
    attempt_coverage_problem,
    build_testbench,
    endpoint_problems,
    filter_level_problem,
    generate_packets,
    monitored_file_problem,
    run_auth_procedure,
    run_filter_procedure,
    run_integrity_procedure,
    scan_for_plaintext_credentials,
)
from fwconform.verdict import evaluate_auth_criteria, evaluate_filter_criteria

EXT = [
    Host("ext1", Address("198.51.100.10", "02:00:5e:10:00:01")),
    Host("ext2", Address("198.51.100.11", "02:00:5e:10:00:02")),
]
INT = [
    Host("int1", Address("203.0.113.20", "02:00:5e:20:00:01")),
    Host("int2", Address("203.0.113.21", "02:00:5e:20:00:02")),
]
ACCOUNTS = [AdminAccount("alice", "s3cret!pass"), AdminAccount("bob", "hunter-two")]
REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"


def allow(src, dst, order=0, **kw):
    return FilterRule(RuleAction.ALLOW, src, dst, order=order, **kw)


def deny(src, dst, order=0, **kw):
    return FilterRule(RuleAction.DENY, src, dst, order=order, **kw)


def bench(**kw):
    kw.setdefault("external", EXT)
    kw.setdefault("internal", INT)
    return build_testbench(**kw)


def test_build_rejects_empty_segments():
    with pytest.raises(Refused):
        bench(external=[])
    with pytest.raises(Refused):
        bench(internal=[])


def test_build_rejects_shared_addresses_and_names():
    with pytest.raises(Refused):
        bench(internal=[Host("x", Address("198.51.100.10"))])
    with pytest.raises(ValueError):
        bench(internal=[Host("ext1", Address("203.0.113.20"))])


@pytest.mark.parametrize(
    "external, internal, text",
    [
        (EXT, [], "no internal hosts"),
        ([], INT, "no external hosts"),
        (EXT, [Host("ext1", INT[0].address)], "duplicate host name(s): ext1"),
        (
            EXT,
            [Host("x", Address("198.51.100.10"))],
            "duplicate host address(es): 198.51.100.10",
        ),
        (
            EXT,
            [*INT, Host("x", INT[1].address)],
            "duplicate host address(es): 203.0.113.21",
        ),
    ],
    ids=["no-inside", "no-outside", "twin-name", "shared-address", "address-twice-inside"],
)
def test_a_bench_built_directly_checks_its_segments(external, internal, text):
    for build in (
        lambda: testbench.Testbench(external, internal),
        lambda: bench(external=external, internal=internal),
    ):
        with pytest.raises(Refused) as caught:
            build()
        assert str(caught.value) == text


def test_the_bench_builds_its_product_from_its_own_copies():
    rules = [deny("198.51.100.10", "203.0.113.21", 5), allow("198.51.100.10", "203.0.113.20", 2)]
    b = testbench.Testbench(EXT, INT, iter(rules), iter(ACCOUNTS), seed=3)
    assert testbench.build_testbench is testbench.Testbench
    assert b.rules == (rules[1], rules[0]) and b.accounts == tuple(ACCOUNTS)
    ev = run_auth_procedure(b)
    assert [a.granted for a in ev.attempts] == [1, 0, 0, 0, 1]
    assert [p[3] for p in ev.probes] == ["forwarded", "dropped"] * 2


@pytest.mark.parametrize(
    "spec, kw, text",
    [
        ("invert_rule:7", {}, "fault invert_rule:7: rule index outside the 4-rule set"),
        ("blind_integrity:nope", {}, "fault blind_integrity:nope: unknown file 'nope'"),
        (
            "leak_credentials",
            {"auth_mode": AuthMode.LOCAL},
            "fault leak_credentials: needs remote sign-on mode",
        ),
    ],
    ids=["invert_rule", "blind_integrity", "leak_credentials"],
)
def test_a_bench_refuses_a_fault_its_product_cannot_apply(spec, kw, text):
    scenario = load_scenario(str(REFERENCE))
    with pytest.raises(ValueError) as caught:
        build_testbench(
            scenario.external,
            scenario.internal,
            rules=resolve_rules(scenario),
            accounts=scenario.accounts,
            files=scenario.files,
            faults=[Fault.parse(spec)],
            **kw,
        )
    assert str(caught.value) == text


def test_a_bench_refuses_rule_endpoints_that_are_not_its_hosts_addresses():
    # Host names are not addresses: unresolved, the rules match no probe,
    # and an inverted rule would go unseen.
    scenario = load_scenario(str(REFERENCE))
    kw = dict(accounts=scenario.accounts, files=scenario.files)
    with pytest.raises(Refused) as caught:
        build_testbench(scenario.external, scenario.internal, rules=scenario.rules, **kw)
    assert str(caught.value) == "rule 1: source 'ext1' is not an external host"
    b = build_testbench(
        scenario.external,
        scenario.internal,
        rules=resolve_rules(scenario),
        faults=[Fault.parse("invert_rule:0")],
        **kw,
    )
    criteria = evaluate_filter_criteria(
        run_filter_procedure(b, FilterLevel.NETWORK, scenario.traffic)
    )
    assert [c.bit for c in criteria].count(0) == 2


def test_unknown_host_lookup():
    b = bench()
    with pytest.raises(Refused):
        b.host("ghost")


def test_default_traffic_is_the_cartesian_product_in_topology_order():
    b = bench(rules=[allow("198.51.100.10", "203.0.113.20", 0)])
    ev = run_filter_procedure(b)
    packets = ev.packet_in
    pairs = [(p.src.net, p.dst.net) for p in packets]
    assert pairs == [
        ("198.51.100.10", "203.0.113.20"),
        ("198.51.100.10", "203.0.113.21"),
        ("198.51.100.11", "203.0.113.20"),
        ("198.51.100.11", "203.0.113.21"),
    ]
    tags = [p.payload_tag for p in packets]
    assert len(set(tags)) == len(tags)
    assert all(p.src.link for p in packets), "host link addresses carried over"
    assert ev.packet_out == packets[:1], "only the allowed probe is delivered"


def test_traffic_spec_overrides_fields_and_links():
    b = bench()
    spec = TrafficSpec("ext1", "int1", proto=17, ttl=9, src_link="02:00:5e:10:00:ff")
    (p,) = generate_packets(b, [spec])
    assert (p.proto, p.ttl) == (17, 9)
    assert p.src.link == "02:00:5e:10:00:ff"
    assert p.dst.link == "02:00:5e:20:00:01"


def test_generated_payloads_are_seed_stable():
    one = generate_packets(bench(seed=7))
    two = generate_packets(bench(seed=7))
    other = generate_packets(bench(seed=8))
    assert [p.payload for p in one] == [p.payload for p in two]
    assert [p.payload for p in one] != [p.payload for p in other]


def test_filter_run_collects_all_five_artifacts():
    rules = [allow("198.51.100.10", "203.0.113.20", 0)]
    b = bench(rules=rules)
    ev = run_filter_procedure(b)
    assert ev.level is FilterLevel.NETWORK
    assert len(ev.packet_in) == 4
    assert [(p.src.net, p.dst.net) for p in ev.packet_out] == [
        ("198.51.100.10", "203.0.113.20")
    ]
    assert [e.subject for e in ev.journal_allowed] == [("198.51.100.10", "203.0.113.20")]
    assert len(ev.journal_denied) == 3


def test_filter_run_resets_taps_between_runs():
    rules = [allow("198.51.100.10", "203.0.113.20", 0)]
    b = bench(rules=rules)
    first = run_filter_procedure(b)
    second = run_filter_procedure(b)
    assert len(second.packet_in) == len(first.packet_in) == 4
    assert len(second.journal_allowed) == 1


def test_link_level_requires_link_addresses_everywhere():
    bare = [Host("ext1", Address("198.51.100.10"))]
    b = build_testbench(bare, INT, rules=[allow("198.51.100.10", "203.0.113.20", 0)])
    with pytest.raises(Refused):
        run_filter_procedure(b, FilterLevel.LINK)


def test_fields_level_requires_a_constrained_rule():
    rules = [allow("198.51.100.10", "203.0.113.20", 0)]
    b = bench(rules=rules)
    with pytest.raises(Refused):
        run_filter_procedure(b, FilterLevel.FIELDS)


def test_auth_default_attempts_cover_the_four_combinations():
    b = bench(rules=[allow("198.51.100.10", "203.0.113.20", 0)], accounts=ACCOUNTS)
    ev = run_auth_procedure(b)
    assert [a.granted for a in ev.attempts] == [1, 0, 0, 0, 1]
    assert ev.findings == ()
    assert len(ev.journal) >= 5


@pytest.mark.parametrize(
    "faults, failed",
    [
        ((), []),
        (("accept_unknown_id",), ["unregistered-credentials-rejected"]),
        (("accept_any_password",), ["unregistered-credentials-rejected"]),
    ],
    ids=["compliant", "accept_unknown_id", "accept_any_password"],
)
def test_default_attempts_step_past_an_account_named_like_them(faults, failed):
    # The account takes the default wrong identifier and wrong password, so the
    # defaults become fresh strings that no account registers.
    account = AdminAccount("outsider", "open-sesame")
    b = bench(accounts=[account], faults=[Fault.parse(f) for f in faults])
    ev = run_auth_procedure(b)
    assert [(a.identifier, a.password) for a in ev.attempts] == [
        ("outsider", "open-sesame"),
        ("outsider", "open-sesame-x"),
        ("outsider-x", "open-sesame"),
        ("outsider-x", "open-sesame-x"),
        ("outsider", "open-sesame"),
    ]
    assert [c.label for c in evaluate_auth_criteria(ev) if not c.bit] == failed


def test_auth_rejects_thin_attempt_lists():
    b = bench(accounts=ACCOUNTS)
    with pytest.raises(Refused):
        run_auth_procedure(b, attempts=[("alice", "s3cret!pass")])
    empty = bench()
    with pytest.raises(Refused):
        run_auth_procedure(empty)


def test_auth_remote_mode_captures_the_exchange_and_probes():
    rules = [allow("198.51.100.10", "203.0.113.20", 0), deny("198.51.100.10", "203.0.113.21", 1)]
    b = bench(rules=rules, accounts=ACCOUNTS)
    ev = run_auth_procedure(b)
    assert ev.mode is AuthMode.REMOTE
    # 5 attempts * 2 console packets, plus one forwarded probe per stage
    assert len(ev.captures) == 12
    stages = [p[0] for p in ev.probes]
    assert stages == ["before", "before", "after", "after"]
    assert {p[3] for p in ev.probes} == {"forwarded", "dropped"}


def _sign_on_bench():
    rules = [allow("198.51.100.10", "203.0.113.20", 0), deny("198.51.100.10", "203.0.113.21", 1)]
    management = Address("192.0.2.1", "02:00:5e:00:00:01")
    return bench(rules=rules, accounts=ACCOUNTS, management=management)


def test_auth_remote_captures_are_pinned_field_by_field():
    ev = run_auth_procedure(_sign_on_bench())
    out, into = Address("198.51.100.10"), Address("203.0.113.20")
    console, mgmt = INT[0].address, Address("192.0.2.1", "02:00:5e:00:00:01")
    tokens = ["bea921cf8abd0781", "2ce9f33f1ae744c8", "6bec9a8699aa0449", "bf386c2fe8877741"]
    verdicts = ["granted", "refused", "refused", "refused", "granted"]
    exchange = []
    for i, (token, verdict) in enumerate(zip(tokens + tokens[:1], verdicts)):
        request = b"console-signon attempt=%d token=%s" % (i, token.encode())
        reply = b"console-verdict attempt=%d %s" % (i, verdict.encode())
        exchange += [
            (console, mgmt, 99, 64, 3 + 2 * i, request, Segment.INTERNAL),
            (mgmt, console, 99, 64, 4 + 2 * i, reply, Segment.INTERNAL),
        ]
    assert [
        (p.src, p.dst, p.proto, p.ttl, p.payload_tag, p.payload, p.ingress) for p in ev.captures
    ] == [
        (out, into, 6, 64, 1, b"probe", Segment.EXTERNAL),
        *exchange,
        (out, into, 6, 64, 13, b"probe", Segment.EXTERNAL),
    ]


def test_a_second_auth_run_captures_only_its_own_exchange_and_probes():
    b = _sign_on_bench()
    first = run_auth_procedure(b)
    second = run_auth_procedure(b)
    assert len(second.captures) == len(first.captures) == 12
    assert [p.payload_tag for p in second.captures] == [15, *range(17, 27), 27]
    assert [p.payload.split(b" ")[1] for p in second.captures[1:-1]] == [
        b"attempt=%d" % n for n in range(5, 10) for _ in ("request", "reply")
    ]


def test_a_filter_run_after_an_auth_run_delivers_only_filter_probes():
    b = _sign_on_bench()
    run_auth_procedure(b)
    ev = run_filter_procedure(b)
    assert ev.packet_out == ev.packet_in[:1]
    assert ev.packet_out[0].payload.startswith(b"pkt:")


def test_auth_local_mode_captures_nothing():
    b = bench(accounts=ACCOUNTS, auth_mode=AuthMode.LOCAL)
    ev = run_auth_procedure(b)
    assert ev.captures == ()
    assert ev.findings == ()
    assert [a.granted for a in ev.attempts] == [1, 0, 0, 0, 1]


def test_scan_finds_credential_substrings():
    packets = (
        Packet(Address("203.0.113.20"), Address("198.18.0.1"), payload_tag=9,
               payload=b"attempt=2 id=alice pwd=s3cret!pass"),
    )
    findings = scan_for_plaintext_credentials(packets, ACCOUNTS)
    assert {(f.account_id, f.piece, f.attempt_index) for f in findings} == {
        ("alice", "identifier", 2),
        ("alice", "password", 2),
    }
    assert scan_for_plaintext_credentials(packets, [AdminAccount("zoe", "qq")]) == ()
    # The attempt number is read from the payload; without one it is -1.
    untagged = (replace(packets[0], payload=b"id=alice pwd=s3cret!pass"),)
    findings = scan_for_plaintext_credentials(untagged, ACCOUNTS)
    assert {(f.piece, f.attempt_index) for f in findings} == {("identifier", -1), ("password", -1)}


@pytest.mark.parametrize(
    "account",
    [
        AdminAccount("con", "pw-long-enough"),
        AdminAccount("sole", "pw-long-enough"),
        AdminAccount("0", "pw-long-enough"),
        AdminAccount("probe", "pw-long-enough"),
        AdminAccount("root", "a"),
        AdminAccount("root", "granted"),
        AdminAccount("root", "0"),
    ],
    ids=lambda a: f"{a.identifier}/{a.password}",
)
def test_scan_ignores_the_console_framing(account):
    # The fixed text of the remote sign-on exchange ("console-signon",
    # "attempt=0", "granted") and the screening probes' payload contain
    # these credentials as substrings; a compliant product leaks nothing.
    rules = [allow("198.51.100.10", "203.0.113.20", 0), deny("198.51.100.10", "203.0.113.21", 1)]
    ev = run_auth_procedure(bench(rules=rules, accounts=[account]))
    assert ev.captures
    assert ev.findings == ()


def test_scan_matches_a_whole_password_with_spaces_and_equals_signs():
    accounts = [AdminAccount("alice", "top secret=x"), AdminAccount("x", "secret")]
    packets = (
        Packet(Address("203.0.113.20"), Address("198.18.0.1"), payload_tag=4,
               payload=b"console-signon attempt=1 id=alice pwd=top secret=x"),
    )
    findings = scan_for_plaintext_credentials(packets, accounts)
    assert [(f.account_id, f.piece, f.attempt_index) for f in findings] == [
        ("alice", "identifier", 1),
        ("alice", "password", 1),
    ]


_IDENTIFIERS = st.text("0123456789abcdefonsl-", min_size=1, max_size=4)
_PASSWORDS = st.text("0123456789abcdefgnrtd= ", min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(
    accounts=st.lists(
        st.tuples(_IDENTIFIERS, _PASSWORDS), min_size=1, max_size=3,
        unique_by=lambda a: a[0],
    ),
    leak=st.booleans(),
)
def test_scan_finds_exactly_the_credentials_sent_in_the_clear(accounts, leak):
    accounts = [AdminAccount(i, p) for i, p in accounts]
    faults = [Fault(FaultName.LEAK_CREDENTIALS)] if leak else []
    rules = [allow("198.51.100.10", "203.0.113.20", 0), deny("198.51.100.10", "203.0.113.21", 1)]
    ev = run_auth_procedure(bench(rules=rules, accounts=accounts, faults=faults))
    found = {(f.attempt_index, f.account_id, f.piece) for f in ev.findings}
    sent = set()
    if leak:
        for index, attempt in enumerate(ev.attempts):
            for account in accounts:
                if account.identifier == attempt.identifier:
                    sent.add((index, account.identifier, "identifier"))
                if account.password == attempt.password:
                    sent.add((index, account.identifier, "password"))
    assert found == sent


def test_integrity_ground_truth_is_content_change():
    files = [FileArtifact("a", b"aa"), FileArtifact("b", b"bb"), FileArtifact("c", b"cc")]
    b = bench(files=files)
    mutations = [
        Mutation("a", "append", data=b"!"),
        Mutation("b", "none"),
        # two flips at the same offset cancel out: content unchanged
        Mutation("c", "flip", offset=0),
        Mutation("c", "flip", offset=0),
    ]
    ev = run_integrity_procedure(b, mutations)
    by_id = {r.file_id: r for r in ev.files}
    assert (by_id["a"].modified, by_id["a"].detected) == (1, 1)
    assert (by_id["b"].modified, by_id["b"].detected) == (0, 0)
    assert (by_id["c"].modified, by_id["c"].detected) == (0, 0)
    assert [e.subject for e in ev.journal] == [("a",)]


def test_integrity_needs_monitored_files():
    with pytest.raises(ValueError):
        run_integrity_procedure(bench(), [])


def test_procedure_errors_carry_the_owner_text():
    # Every input a layer refuses raises `Refused`, a ValueError carrying the
    # owner's text; `validate_scenario` reports the claim preconditions among
    # these behind "<claim> claimed but".
    rules = [allow("198.51.100.10", "203.0.113.20", 0)]
    bare = [Host("ext1", Address("198.51.100.10"))]
    twin = [Host("ext1", Address("203.0.113.20"))]
    orders = rules + [deny("198.51.100.10", "203.0.113.21", 0)]
    accounts = ACCOUNTS + [AdminAccount("alice", "other")]
    files = [FileArtifact("a", b"x"), FileArtifact("a", b"y")]
    inside_out = [deny("203.0.113.20", "198.51.100.10")]
    no_auth = FirewallProfile("s", ("r2",), Capabilities(auth_mode=None))
    inverted = Fault.parse("invert_rule:1")
    scenario = load_scenario(str(REFERENCE))
    reference = build_testbench(
        scenario.external,
        scenario.internal,
        rules=resolve_rules(scenario),
        files=scenario.files,
        faults=[Fault.parse("invert_rule:0")],
    )
    files_before = reference.fw.files
    half_valid = [
        Mutation("screen.conf", "append", data=b"x"),
        Mutation("screen.conf", "flip", offset=99),
    ]
    inside_out_traffic = [TrafficSpec("int1", "ext1"), TrafficSpec("int2", "ext2")]
    variant = ProcedureVariant("r1", "a", time=1, cost=0)
    quiet = bench(rules=rules)
    cases = [
        (
            lambda: run_filter_procedure(build_testbench(bare, INT, rules=rules), FilterLevel.LINK),
            filter_level_problem(FilterLevel.LINK, bare + INT, rules),
        ),
        (
            lambda: run_filter_procedure(bench(rules=rules), FilterLevel.FIELDS),
            filter_level_problem(FilterLevel.FIELDS, EXT + INT, rules),
        ),
        (lambda: run_auth_procedure(bench()), account_problem(())),
        (
            lambda: run_auth_procedure(bench(accounts=ACCOUNTS), attempts=[("x", "y")]),
            attempt_coverage_problem([("x", "y")], ACCOUNTS),
        ),
        (lambda: run_integrity_procedure(bench()), monitored_file_problem(())),
        (lambda: bench(internal=twin), "duplicate host name(s): ext1"),
        (lambda: bench(rules=orders), "duplicate rule order(s): 0"),
        (lambda: bench(accounts=accounts), "duplicate account identifier(s): alice"),
        (lambda: bench(files=files), "duplicate file id(s): a"),
        (
            lambda: develop_procedure(no_auth, ALL_REQUIREMENTS["r2"]),
            f"r2: {capability_problem(RequirementKind.ADMIN_AUTH, no_auth.capabilities)}",
        ),
        (
            lambda: aggregate_verdict([(ALL_REQUIREMENTS["r1"], 1)], {}),
            "no outcome for r1",
        ),
        (lambda: bench().host("ghost"), "no host named 'ghost' on the bench"),
        (
            lambda: bench(files=files[:1]).fw.modify_file(Mutation("z", "flip", offset=0)),
            "no such monitored file: z",
        ),
        (
            lambda: bench(files=files[:1]).fw.run_integrity_check(),
            "integrity baselines were never recorded",
        ),
        (
            lambda: evaluate_filter_criteria(
                FilterEvidence(FilterLevel.NETWORK, tuple(rules), (), (), (), ())
            ),
            "no probe traffic sent",
        ),
        (
            lambda: bench(rules=rules, faults=[inverted]),
            fault_problem(inverted, len(rules), (), AuthMode.REMOTE),
        ),
        (
            lambda: bench(rules=inside_out),
            endpoint_problems("rule", inside_out, {"198.51.100.10"}, {"203.0.113.20"})[0],
        ),
        (
            lambda: run_integrity_procedure(reference, half_valid),
            "mutation 2: flip offset 99 beyond end of screen.conf (20 bytes)",
        ),
        (
            lambda: run_filter_procedure(reference, FilterLevel.NETWORK, inside_out_traffic),
            "packet 1: source 'int1' is not an external host",
        ),
        (lambda: run_filter_procedure(quiet, FilterLevel.NETWORK, ()), "traffic list is empty"),
        (
            lambda: FirewallProfile("s", ("r1", "r99")),
            "unknown requirement id(s) claimed: r99",
        ),
        (lambda: optimize_plan({"r1": [variant, variant]}), "duplicate variant(s): r1/a"),
        (
            lambda: aggregate_verdict([(ALL_REQUIREMENTS["r1"], 1)] * 2, {"r1": ProcedureOutcome(1)}),
            "duplicate claim ids",
        ),
    ]
    for run, text in cases:
        assert text
        with pytest.raises(Refused) as caught:
            run()
        assert str(caught.value) == text
        assert isinstance(caught.value, ValueError)
        assert isinstance(caught.value, FwconformError)
    assert reference.fw.files == files_before  # refused before any edit
    assert quiet.fw.export_journal() == ()  # refused before any packet was sent
