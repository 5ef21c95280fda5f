import random
from dataclasses import replace

import pytest

from _oracles import oracle_forwarded_tags
from fwconform.errors import InapplicableFault, MechanismInactive, UnknownFile
from fwconform.firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Decision,
    Fault,
    FaultName,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEvent,
    Mutation,
    Packet,
    RuleAction,
    digest,
    inject_fault,
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


# -- addresses ----------------------------------------------------------------

def test_address_rejects_noncanonical_net():
    with pytest.raises(ValueError):
        Address("198.051.100.10")
    with pytest.raises(ValueError):
        Address("not-an-address")


def test_address_normalizes_mac_case():
    assert Address(A, "02:00:5E:10:00:01").link == "02:00:5e:10:00:01"
    with pytest.raises(ValueError):
        Address(A, "02:00:5e:10:00")


def test_packet_field_ranges():
    with pytest.raises(ValueError):
        packet(proto=256)
    with pytest.raises(ValueError):
        packet(ttl=-1)


# -- screening ----------------------------------------------------------------

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
    fw = Firewall(rules=[allow(A, B, 0)])
    for _ in range(4):
        fw.filter_packet(packet())
    entries = fw.export_journal()
    assert [e.seq for e in entries] == [1, 2, 3, 4]
    assert fw.export_journal() == entries
    allowed, denied = split_filter_journal(entries)
    assert len(allowed) == 4 and denied == ()


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
    seen = []
    tags = iter(range(100, 200))
    fw.connect_console(lambda p, i: seen.append((i, p)), lambda: next(tags), Address(B))
    fw.authenticate("alice", "s3cret")
    assert len(seen) == 2
    request, reply = seen[0][1], seen[1][1]
    assert b"alice" not in request.payload and b"s3cret" not in request.payload
    assert b"granted" in reply.payload


def test_local_mode_emits_nothing():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")], auth_mode=AuthMode.LOCAL)
    seen = []
    fw.connect_console(lambda p, i: seen.append(p), lambda: 1, Address(B))
    fw.authenticate("alice", "s3cret")
    assert seen == []


# -- integrity ------------------------------------------------------------------

def files():
    return [FileArtifact("a.conf", b"alpha"), FileArtifact("b.bin", b"\x7fELF")]


def test_integrity_check_needs_baselines():
    fw = Firewall(files=files())
    with pytest.raises(MechanismInactive):
        fw.run_integrity_check()


def test_integrity_flags_exactly_the_changed_files():
    fw = Firewall(files=files())
    fw.activate_integrity()
    fw.modify_file("a.conf", Mutation("a.conf", "append", data=b"!"))
    report = fw.run_integrity_check()
    assert report == {"a.conf": 1, "b.bin": 0}
    alarms = [e for e in fw.export_journal() if e.event is JournalEvent.INTEGRITY_ALARM]
    assert [e.subject for e in alarms] == [("a.conf",)]


def test_modify_file_keeps_baseline_digest():
    fw = Firewall(files=files())
    fw.activate_integrity()
    before = fw.files["a.conf"].baseline_digest
    fw.modify_file("a.conf", Mutation("a.conf", "replace", data=b"other"))
    assert fw.files["a.conf"].baseline_digest == before == digest(b"alpha")


def test_modify_unknown_file():
    fw = Firewall(files=files())
    with pytest.raises(UnknownFile):
        fw.modify_file("ghost", Mutation("ghost", "none"))


def test_mutation_kinds():
    assert Mutation("f", "flip", offset=0).apply(b"\x00ab") == b"\xffab"
    assert Mutation("f", "append", data=b"xy").apply(b"ab") == b"abxy"
    assert Mutation("f", "replace", data=b"z").apply(b"ab") == b"z"
    assert Mutation("f", "none").apply(b"ab") == b"ab"
    with pytest.raises(ValueError):
        Mutation("f", "flip", offset=9).apply(b"ab")


# -- faults ---------------------------------------------------------------------

def test_fault_parse_round_trip():
    for spec in (
        "invert_rule:3",
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
        flipped = ordered[:k] + [_flip(ordered[k])] + ordered[k + 1 :]
        cases = [(Fault(FaultName.INVERT_RULE, k), flipped)]
        cases += [
            (Fault(FaultName.IGNORE_FIELD, name), [replace(r, **dropped) for r in rules])
            for name, dropped in _WITHOUT_FIELD.items()
        ]
        for fault, demanded in cases:
            fw = Firewall(rules=rules, faults=[fault])
            forwarded = {
                p.payload_tag for p in packets if fw.filter_packet(p) is Decision.FORWARDED
            }
            assert forwarded == oracle_forwarded_tags(demanded, packets), fault.spec_text()


def test_invert_rule_index_must_exist():
    fw = Firewall(rules=[allow(A, B, 0)])
    with pytest.raises(InapplicableFault):
        inject_fault(fw, Fault(FaultName.INVERT_RULE, 1))


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
    bad.modify_file("a.conf", Mutation("a.conf", "append", data=b"!"))
    bad.modify_file("b.bin", Mutation("b.bin", "append", data=b"!"))
    assert bad.run_integrity_check() == {"a.conf": 0, "b.bin": 1}


def test_blind_integrity_needs_a_known_file():
    fw = Firewall(files=files())
    with pytest.raises(InapplicableFault):
        inject_fault(fw, Fault(FaultName.BLIND_INTEGRITY, "ghost"))


def test_leak_credentials_needs_remote_mode():
    fw = Firewall(auth_mode=AuthMode.LOCAL)
    with pytest.raises(InapplicableFault):
        inject_fault(fw, Fault(FaultName.LEAK_CREDENTIALS))


def test_leak_credentials_puts_secrets_on_the_wire():
    fw = Firewall(accounts=[AdminAccount("alice", "s3cret")], auth_mode=AuthMode.REMOTE)
    bad = inject_fault(fw, Fault(FaultName.LEAK_CREDENTIALS))
    seen = []
    tags = iter(range(100, 200))
    bad.connect_console(lambda p, i: seen.append(p), lambda: next(tags), Address(B))
    bad.authenticate("alice", "s3cret")
    assert any(b"s3cret" in p.payload for p in seen)


def test_inject_fault_leaves_the_original_untouched():
    fw = Firewall(rules=[allow(A, B, 0)])
    fw.filter_packet(packet())
    bad = inject_fault(fw, Fault(FaultName.SKIP_JOURNAL, "pass_allowed"))
    bad.filter_packet(packet())
    assert len(fw.export_journal()) == 1
    assert len(bad.export_journal()) == 1  # inherited entry only, new one skipped
    assert fw.faults == ()
