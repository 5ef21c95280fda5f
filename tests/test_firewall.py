import ast
import inspect
import ipaddress
import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwconform.firewall as firewall
from _oracles import oracle_forwarded_tags
from fwconform.errors import Refused
from fwconform.firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Decision,
    Fault,
    FaultName,
    FaultyFirewall,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEntry,
    JournalEvent,
    Mutation,
    Packet,
    RuleAction,
    digest,
    packet_field_problem,
    split_filter_journal,
)

A = "198.51.100.10"
B = "203.0.113.20"
C = "203.0.113.21"


def packet(src=A, dst=B, **kw):
    return Packet(src=Address(src), dst=Address(dst), **kw)


def allow(src, dst, order, **kw):
    return FilterRule(RuleAction.ALLOW, src, dst, order=order, **kw)


def deny(src, dst, order, **kw):
    return FilterRule(RuleAction.DENY, src, dst, order=order, **kw)


def inject_fault(fw, fault):
    """A `FaultyFirewall` copy of the compliant `fw`, degraded by one fault.

    The copy is built from `fw`'s order-sorted rules and is otherwise
    identical, including journal state and baselines.
    """
    assert type(fw) is Firewall, "inject_fault starts from the compliant product"
    copy = FaultyFirewall(
        rules=fw._rules,
        accounts=fw._accounts,
        files=[FileArtifact(file_id, content) for file_id, content in fw.files.items()],
        auth_mode=fw.auth_mode,
        management=fw.management,
        faults=(fault,),
    )
    copy._baselines = fw._baselines
    copy._journal = list(fw._journal)
    copy._auth_attempt_count = fw._auth_attempt_count
    return copy


# -- addresses ----------------------------------------------------------------

def test_address_rejects_noncanonical_net():
    with pytest.raises(ValueError):
        Address("198.051.100.10")
    with pytest.raises(ValueError):
        Address("not-an-address")


def _canonical_by_ipaddress(text: str) -> bool:
    """The address check the pattern replaced: parse it, print it, compare."""
    try:
        return str(ipaddress.IPv4Address(text)) == text
    except ValueError:
        return False


# Every spelling of one octet up to three characters, and forms around the edges.
_OCTETS = [str(i) for i in range(1000)] + [f"{i:02d}" for i in range(100)] + [
    f"{i:03d}" for i in range(100)
]
_EDGE_FORMS = [
    "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.2.3", "1.2.3.4.5", "1..2.3", ".1.2.3",
    "1.2.3.", "", " 1.2.3.4", "1.2.3.4 ", "1.2.3.4\n", "+1.2.3.4", "-1.2.3.4", "1.2.3.-4",
    "0x1.2.3.4", "1e2.2.3.4", "1_0.2.3.4", "1.2.3.4/32", "1.2.3.4:80", "0001.2.3.4",
    "\uff11.2.3.4", "\u0661.2.3.4", "1.2.3.\u0664", "\u00b9.2.3.4", "1,2,3,4", "1.2.3.4%0",
]


@pytest.mark.parametrize("position", range(4))
def test_address_accepts_exactly_the_canonical_dotted_quads(position):
    forms = [".".join(o if i == position else "9" for i in range(4)) for o in _OCTETS]
    for text in forms + _EDGE_FORMS:
        try:
            Address(text)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _canonical_by_ipaddress(text), text


def test_address_normalizes_mac_case():
    assert Address(A, "02:00:5E:10:00:01").link == "02:00:5e:10:00:01"
    with pytest.raises(ValueError):
        Address(A, "02:00:5e:10:00")


def test_packet_field_ranges():
    with pytest.raises(ValueError):
        packet(proto=256)
    with pytest.raises(ValueError):
        packet(ttl=-1)
    with pytest.raises(ValueError) as caught:
        packet(ttl=300)
    assert str(caught.value) == packet_field_problem(None, 300) == "ttl out of range: 300"
    assert packet_field_problem(6, 64) is None


def test_slotted_records_stay_frozen_hashable_and_equal_by_value():
    records = (
        Address(A, "02:00:5E:10:00:01"),
        packet(proto=17, ttl=9, payload_tag=3, payload=b"x"),
        JournalEntry(1, JournalEvent.PASS_ALLOWED, (A, B)),
    )
    for record in records:
        name = fields(record)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        twin = replace(record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) and len({record, twin}) == 1
    assert len(set(records) | {Address(B), packet(ttl=10)}) == 5
    # replace() builds through __init__, so the guards run again.
    assert replace(records[0], link="02:00:5E:AA:00:01").link == "02:00:5e:aa:00:01"
    with pytest.raises(Refused, match="not a canonical dotted-quad"):
        replace(records[0], net="198.051.100.10")
    with pytest.raises(Refused, match="^ttl out of range: 256$"):
        replace(records[1], ttl=256)


# -- screening ----------------------------------------------------------------

def _class_body(name):
    module = ast.parse(inspect.getsource(firewall))
    return next(n for n in module.body if isinstance(n, ast.ClassDef) and n.name == name)


def test_the_compliant_product_names_no_fault():
    names = {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(_class_body("Firewall"))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert not {"Fault", "FaultName", "fault_problem", "_params", "faults"} & names
    assert "faults" not in inspect.signature(Firewall).parameters
    # The benchmark times screening by rebinding Firewall.filter_packet,
    # which reaches the faulty product only while it inherits the method.
    faulty = {n.name for n in _class_body("FaultyFirewall").body if isinstance(n, ast.FunctionDef)}
    assert "filter_packet" not in faulty
    assert FaultyFirewall.filter_packet is Firewall.filter_packet


def test_single_allow_rule_forwards_and_journals():
    fw = Firewall(rules=[allow(A, B, 0)])
    assert fw.filter_packet(packet()) is Decision.FORWARDED
    entries = fw.export_journal()
    assert [(e.event, e.subject) for e in entries] == [
        (JournalEvent.PASS_ALLOWED, (A, B))
    ]


def test_first_match_wins_over_later_allow():
    fw = Firewall(rules=[deny(A, B, 0), allow(A, B, 1)])
    assert fw.filter_packet(packet()) is Decision.DROPPED


def test_empty_rule_set_drops_by_default():
    fw = Firewall()
    assert fw.filter_packet(packet()) is Decision.DROPPED
    assert fw.export_journal()[0].event is JournalEvent.PASS_DENIED


def test_rule_order_decides_not_list_position():
    fw = Firewall(rules=[allow(A, B, 5), deny(A, B, 2)])
    assert fw.filter_packet(packet()) is Decision.DROPPED


def test_duplicate_rule_orders_rejected():
    with pytest.raises(ValueError):
        Firewall(rules=[allow(A, B, 0), deny(A, C, 0)])


def test_field_constraints_narrow_the_match():
    fw = Firewall(rules=[allow(A, B, 0, proto=6, ttl_min=32, ttl_max=128)])
    assert fw.filter_packet(packet(proto=6, ttl=64)) is Decision.FORWARDED
    assert fw.filter_packet(packet(proto=17, ttl=64)) is Decision.DROPPED
    assert fw.filter_packet(packet(proto=6, ttl=5)) is Decision.DROPPED
    assert fw.filter_packet(packet(proto=6, ttl=129)) is Decision.DROPPED


def test_link_constraints_narrow_the_match():
    fw = Firewall(rules=[allow(A, B, 0, src_link="02:00:5e:10:00:01")])
    good = Packet(Address(A, "02:00:5e:10:00:01"), Address(B))
    spoof = Packet(Address(A, "02:00:5e:10:00:ff"), Address(B))
    assert fw.filter_packet(good) is Decision.FORWARDED
    assert fw.filter_packet(spoof) is Decision.DROPPED


def test_journal_sequence_is_monotone_and_export_is_a_copy():
    fw = Firewall(rules=[allow(A, B, 0)], accounts=[AdminAccount("alice", "s3cret")], files=files())
    fw.activate_integrity()
    fw.modify_file(Mutation("a.conf", "append", data=b"!"))
    for _ in range(2):
        fw.filter_packet(packet())
        fw.filter_packet(packet(dst=C))
        fw.authenticate("alice", "s3cret")
        fw.run_integrity_check()
    entries = fw.export_journal()
    assert [e.seq for e in entries] == list(range(1, 9))
    assert fw.export_journal() == entries
    allowed, denied = split_filter_journal(iter(entries))
    assert [e.seq for e in allowed] == [1, 5] and [e.seq for e in denied] == [2, 6]
    assert {e.event for e in allowed} == {JournalEvent.PASS_ALLOWED}
    assert {e.event for e in denied} == {JournalEvent.PASS_DENIED}


# -- sign-on -------------------------------------------------------------------

def test_authenticate_registered_pair():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")])
    assert fw.authenticate("alice", "s3cret") == 1


def test_authenticate_wrong_password_or_id():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")])
    assert fw.authenticate("alice", "wrong") == 0
    assert fw.authenticate("mallory", "s3cret") == 0
    events = [e.event for e in fw.export_journal()]
    assert events == [JournalEvent.AUTH_REJECTED, JournalEvent.AUTH_REJECTED]


def test_remote_mode_emits_console_exchange():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")], auth_mode=AuthMode.REMOTE)
    fw.authenticate("alice", "s3cret")
    ((request, reply),) = fw.console_sent
    assert b"alice" not in request and b"s3cret" not in request
    assert b"granted" in reply


def test_local_mode_emits_nothing():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")], auth_mode=AuthMode.LOCAL)
    fw.authenticate("alice", "s3cret")
    assert fw.console_sent == []


# -- integrity ------------------------------------------------------------------

def files():
    return [FileArtifact("a.conf", b"alpha"), FileArtifact("b.bin", b"\x7fELF")]


def test_integrity_check_needs_baselines():
    fw = Firewall(files=files())
    with pytest.raises(Refused):
        fw.run_integrity_check()


def test_integrity_flags_exactly_the_changed_files():
    fw = Firewall(files=files())
    fw.activate_integrity()
    fw.modify_file(Mutation("a.conf", "append", data=b"!"))
    report = fw.run_integrity_check()
    assert report == {"a.conf": 1, "b.bin": 0}
    alarms = [e for e in fw.export_journal() if e.event is JournalEvent.INTEGRITY_ALARM]
    assert [e.subject for e in alarms] == [("a.conf",)]


def test_modify_file_keeps_baseline_digest():
    fw = Firewall(files=files())
    fw.activate_integrity()
    before = fw._baselines["a.conf"]
    fw.modify_file(Mutation("a.conf", "replace", data=b"other"))
    assert fw.files["a.conf"] == b"other"
    assert fw._baselines["a.conf"] == before == digest(b"alpha")


def test_modify_unknown_file():
    fw = Firewall(files=files())
    with pytest.raises(Refused):
        fw.modify_file(Mutation("ghost", "none"))


def test_mutation_kinds():
    assert Mutation("f", "flip", offset=0).apply(b"\x00ab") == b"\xffab"
    assert Mutation("f", "append", data=b"xy").apply(b"ab") == b"abxy"
    assert Mutation("f", "replace", data=b"z").apply(b"ab") == b"z"
    assert Mutation("f", "none").apply(b"ab") == b"ab"
    with pytest.raises(ValueError, match=r"flip offset 9 beyond end of f \(2 bytes\)"):
        Mutation("f", "flip", offset=9).apply(b"ab")
    # Python would index from the end and edit the last byte.
    with pytest.raises(ValueError, match="flip offset -1 is negative"):
        Mutation("f", "flip", offset=-1).apply(b"ab")


def test_a_mutation_refuses_an_unknown_kind_when_built():
    with pytest.raises(ValueError) as caught:
        Mutation("f", "chop")
    assert str(caught.value) == "unknown mutation kind 'chop'"


# -- faults ---------------------------------------------------------------------

def test_fault_parse_round_trip():
    for spec in (
        "invert_rule:3",
        "invert_rule:-1",  # validation, not parsing, says it cannot apply
        "ignore_field:ttl",
        "skip_journal:pass_denied",
        "accept_any_password",
        "accept_unknown_id",
        "omit_auth_journal",
        "blind_integrity:a.conf",
        "leak_credentials",
    ):
        assert Fault.parse(spec).spec_text() == spec


def test_fault_parse_rejects_bad_specs():
    for spec in ("nonsense", "invert_rule", "invert_rule:x", "ignore_field:mtu",
                 "skip_journal:auth", "accept_any_password:yes"):
        with pytest.raises(ValueError):
            Fault.parse(spec)


@pytest.mark.parametrize("raw", ["0_1", "+1", " 1", "01", "-0", "\uff11"])
def test_fault_parse_takes_an_invert_rule_index_in_plain_decimal_only(raw):
    # int() reads each of these, but the report would print another spec.
    with pytest.raises(ValueError) as caught:
        Fault.parse(f"invert_rule:{raw}")
    assert str(caught.value) == f"invert_rule parameter must be an integer: {raw!r}"


_PARAMS = ("link", "proto", "ttl", "pass_allowed", "pass_denied", "a.conf")
_FAULT_SPECS = st.builds(
    "{}{}{}".format,
    st.sampled_from([n.value for n in FaultName]),
    st.sampled_from([":", ""]),
    st.from_regex(r"[-+ _0-9\uff11]{0,4}", fullmatch=True)
    | st.sampled_from(_PARAMS)
    | st.text(),
)


@settings(max_examples=1000)
@given(_FAULT_SPECS)
def test_a_spec_that_parses_prints_back_as_given(spec):
    try:
        fault = Fault.parse(spec)
    except ValueError:
        return
    assert fault.spec_text() == spec


def test_invert_rule_flips_the_matched_action():
    fw = Firewall(rules=[allow(A, B, 0), deny(A, C, 1)])
    bad = inject_fault(fw, Fault(FaultName.INVERT_RULE, 0))
    assert bad.filter_packet(packet()) is Decision.DROPPED
    assert bad.filter_packet(packet(dst=C)) is Decision.DROPPED
    # journal reflects what the faulty product actually did
    assert all(e.event is JournalEvent.PASS_DENIED for e in bad.export_journal())
    assert fw.filter_packet(packet()) is Decision.FORWARDED


def _flip(rule):
    action = RuleAction.DENY if rule.action is RuleAction.ALLOW else RuleAction.ALLOW
    return replace(rule, action=action)


_WITHOUT_FIELD = {
    "link": dict(src_link=None, dst_link=None),
    "proto": dict(proto=None),
    "ttl": dict(ttl_min=None, ttl_max=None),
}


def test_indexed_matcher_under_faults_agrees_with_the_oracle():
    # Several rules share each (src, dst) pair and their orders are
    # shuffled against list position, so a matcher that counted
    # invert_rule's index within a bucket, or in list order, would
    # flip the wrong rule.
    rng = random.Random(41)
    srcs = [A, "198.51.100.11"]
    dsts = [B, C]
    macs = ["02:00:5e:00:00:01", "02:00:5e:00:00:02", None]
    for _ in range(300):
        rules = [
            FilterRule(
                rng.choice((RuleAction.ALLOW, RuleAction.DENY)),
                rng.choice(srcs),
                rng.choice(dsts),
                order=order,
                src_link=rng.choice(macs),
                dst_link=rng.choice(macs),
                proto=rng.choice((None, 6, 17)),
                ttl_min=rng.choice((None, 10, 64)),
                ttl_max=rng.choice((None, 80, 255)),
            )
            for order in rng.sample(range(100), rng.randrange(2, 13))
        ]
        ordered = sorted(rules, key=lambda r: r.order)
        first_pair = (ordered[0].src, ordered[0].dst)
        seen, deep = set(), []
        for k, rule in enumerate(ordered):
            pair = (rule.src, rule.dst)
            if pair in seen or pair != first_pair:
                deep.append(k)
            seen.add(pair)
        k = rng.choice(deep)
        packets = [
            Packet(
                Address(rng.choice(srcs), rng.choice(macs)),
                Address(rng.choice(dsts), rng.choice(macs)),
                proto=rng.choice((6, 17)),
                ttl=rng.choice((5, 64, 200)),
                payload_tag=tag,
            )
            for tag in range(20)
        ]
        invert = Fault(FaultName.INVERT_RULE, k)
        flipped = ordered[:k] + [_flip(ordered[k])] + ordered[k + 1 :]
        cases = [((invert,), flipped)]
        for name, dropped in _WITHOUT_FIELD.items():
            ignore = Fault(FaultName.IGNORE_FIELD, name)
            cases.append(((ignore,), [replace(r, **dropped) for r in rules]))
            # Both rewrites on one rule: flipped, then blanked.
            cases.append(((ignore, invert), [replace(r, **dropped) for r in flipped]))
        for faults, demanded in cases:
            fw = FaultyFirewall(rules=rules, faults=faults)
            forwarded = {
                p.payload_tag for p in packets if fw.filter_packet(p) is Decision.FORWARDED
            }
            expected = oracle_forwarded_tags(demanded, packets)
            specs = [f.spec_text() for f in faults]
            assert forwarded == expected, specs
            # The journal says what the faulty product did to each packet.
            journal = fw.export_journal()
            assert [e.subject for e in journal] == [(p.src.net, p.dst.net) for p in packets]
            allowed = [e.event is JournalEvent.PASS_ALLOWED for e in journal]
            assert allowed == [p.payload_tag in expected for p in packets], specs


def test_invert_rule_index_must_exist():
    fw = Firewall(rules=[allow(A, B, 0)])
    with pytest.raises(ValueError):
        inject_fault(fw, Fault(FaultName.INVERT_RULE, 1))


@pytest.mark.parametrize(
    "fault, problem",
    [
        (Fault(FaultName.INVERT_RULE, 1), "invert_rule:1: rule index outside the 1-rule set"),
        (Fault(FaultName.INVERT_RULE, -1), "invert_rule:-1: rule index outside the 1-rule set"),
        (Fault(FaultName.BLIND_INTEGRITY, "A.CONF"), "blind_integrity:A.CONF: unknown file 'A.CONF'"),
        (Fault(FaultName.BLIND_INTEGRITY, "a"), "blind_integrity:a: unknown file 'a'"),
        (Fault(FaultName.BLIND_INTEGRITY, "ghost"), "blind_integrity:ghost: unknown file 'ghost'"),
        (Fault(FaultName.LEAK_CREDENTIALS), "leak_credentials: needs remote sign-on mode"),
    ],
)
def test_inject_fault_says_why_a_fault_cannot_apply(fault, problem):
    fw = Firewall(rules=[allow(A, B, 0)], files=files(), auth_mode=AuthMode.LOCAL)
    with pytest.raises(ValueError) as caught:
        inject_fault(fw, fault)
    assert str(caught.value) == f"fault {problem}"


@pytest.mark.parametrize(
    "name, param, problem",
    [
        (FaultName.INVERT_RULE, "0", "invert_rule parameter must be an integer: '0'"),
        (FaultName.INVERT_RULE, True, "invert_rule parameter must be an integer: True"),
        (FaultName.INVERT_RULE, None, "fault invert_rule needs a parameter (rule index)"),
        (
            FaultName.IGNORE_FIELD,
            "payload",
            "ignore_field parameter must be one of link, proto, ttl: 'payload'",
        ),
        (
            FaultName.SKIP_JOURNAL,
            "auth",
            "skip_journal parameter must be one of pass_allowed, pass_denied: 'auth'",
        ),
        (FaultName.ACCEPT_ANY_PASSWORD, "x", "fault accept_any_password takes no parameter"),
        (FaultName.BLIND_INTEGRITY, "", "fault blind_integrity needs a parameter (file id)"),
        (FaultName.BLIND_INTEGRITY, 3, "blind_integrity parameter must be a string: 3"),
        ("invert_rule", 0, "unknown fault: 'invert_rule'"),
    ],
)
def test_a_fault_refuses_a_bad_parameter_when_built(name, param, problem):
    # The same text whether the fault is built in code or parsed from a spec.
    with pytest.raises(ValueError) as built:
        Fault(name, param)
    assert str(built.value) == problem
    if isinstance(param, str) and name is not FaultName.INVERT_RULE:
        with pytest.raises(ValueError) as parsed:
            Fault.parse(f"{name.value}:{param}")
        assert str(parsed.value) == problem


def test_ignore_field_widens_the_match():
    fw = Firewall(rules=[allow(A, B, 0, proto=6)])
    bad = inject_fault(fw, Fault(FaultName.IGNORE_FIELD, "proto"))
    assert fw.filter_packet(packet(proto=17)) is Decision.DROPPED
    assert bad.filter_packet(packet(proto=17)) is Decision.FORWARDED


def test_skip_journal_suppresses_one_event_kind():
    fw = Firewall(rules=[allow(A, B, 0)])
    bad = inject_fault(fw, Fault(FaultName.SKIP_JOURNAL, "pass_allowed"))
    bad.filter_packet(packet())
    bad.filter_packet(packet(dst=C))
    events = [e.event for e in bad.export_journal()]
    assert events == [JournalEvent.PASS_DENIED]


def test_accept_any_password_still_needs_a_known_id():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")])
    bad = inject_fault(fw, Fault(FaultName.ACCEPT_ANY_PASSWORD))
    assert bad.authenticate("alice", "anything") == 1
    assert bad.authenticate("mallory", "anything") == 0


def test_accept_unknown_id_inverts_the_id_check():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")])
    bad = inject_fault(fw, Fault(FaultName.ACCEPT_UNKNOWN_ID))
    assert bad.authenticate("mallory", "anything") == 1
    assert bad.authenticate("alice", "wrong") == 0


def test_omit_auth_journal_drops_signon_records_only():
    fw = Firewall(rules=[allow(A, B, 0)], accounts=[AdminAccount("alice", "s3cret")])
    bad = inject_fault(fw, Fault(FaultName.OMIT_AUTH_JOURNAL))
    bad.authenticate("alice", "s3cret")
    bad.filter_packet(packet())
    events = [e.event for e in bad.export_journal()]
    assert events == [JournalEvent.PASS_ALLOWED]


def test_blind_integrity_hides_one_file():
    fw = Firewall(files=files())
    fw.activate_integrity()
    bad = inject_fault(fw, Fault(FaultName.BLIND_INTEGRITY, "a.conf"))
    bad.modify_file(Mutation("a.conf", "append", data=b"!"))
    bad.modify_file(Mutation("b.bin", "append", data=b"!"))
    assert bad.run_integrity_check() == {"a.conf": 0, "b.bin": 1}


def test_blind_integrity_needs_a_known_file():
    fw = Firewall(files=files())
    with pytest.raises(ValueError):
        inject_fault(fw, Fault(FaultName.BLIND_INTEGRITY, "ghost"))


def test_leak_credentials_needs_remote_mode():
    fw = Firewall(auth_mode=AuthMode.LOCAL)
    with pytest.raises(ValueError):
        inject_fault(fw, Fault(FaultName.LEAK_CREDENTIALS))


def test_leak_credentials_puts_secrets_on_the_wire():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")], auth_mode=AuthMode.REMOTE)
    bad = inject_fault(fw, Fault(FaultName.LEAK_CREDENTIALS))
    bad.authenticate("alice", "s3cret")
    assert any(b"s3cret" in payload for exchange in bad.console_sent for payload in exchange)


def test_inject_fault_leaves_the_original_untouched():
    fw = Firewall(rules=[allow(A, B, 0)])
    fw.filter_packet(packet())
    bad = inject_fault(fw, Fault(FaultName.SKIP_JOURNAL, "pass_allowed"))
    bad.filter_packet(packet())
    assert len(fw.export_journal()) == 1
    assert len(bad.export_journal()) == 1  # inherited entry only, new one skipped
    assert type(fw) is Firewall
    assert bad.faults == (Fault(FaultName.SKIP_JOURNAL, "pass_allowed"),)
