import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import oracle_filter_bits, oracle_first_match
from fwconform.campaign import run_campaign
from fwconform.errors import Refused
from fwconform.firewall import (
    FILTER_EVENTS,
    AdminAccount,
    Address,
    Fault,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEntry,
    JournalEvent,
    Mutation,
    Packet,
    RuleAction,
)
from fwconform.testbench import (
    AuthAttemptResult,
    AuthEvidence,
    FileCheckRecord,
    FilterEvidence,
    FilterLevel,
    Host,
    IntegrityEvidence,
    TrafficSpec,
    build_testbench,
    filter_level_problem,
    run_auth_procedure,
    run_filter_procedure,
    run_integrity_procedure,
)
from fwconform.verdict import (
    ATTEMPTS_JOURNALED,
    DETECTIONS_MATCH,
    DROP_MATCHES_DENY,
    FORWARD_MATCHES_ALLOW,
    JOURNAL_MATCHES_DROP,
    JOURNAL_MATCHES_FORWARD,
    NO_PLAINTEXT_CREDENTIALS,
    REGISTERED_ACCEPTED,
    UNREGISTERED_REJECTED,
    PairSet,
    evaluate_auth_criteria,
    evaluate_filter_criteria,
    evaluate_integrity_criteria,
    probe_ledger,
    _first_match_in_order,
)
from fwconform.report import export_report, parse_report
from fwconform.scenario import load_scenario

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"


def _first_match_action(rules, packet):
    """Reference screening semantics over rules in any order."""
    rule = _first_match_in_order(sorted(rules, key=lambda r: r.order), packet)
    return rule and rule.action


EXT = [
    Host("ext1", Address("198.51.100.10", "02:00:5e:10:00:01")),
    Host("ext2", Address("198.51.100.11", "02:00:5e:10:00:02")),
]
INT = [
    Host("int1", Address("203.0.113.20", "02:00:5e:20:00:01")),
    Host("int2", Address("203.0.113.21", "02:00:5e:20:00:02")),
]
RULES = [
    FilterRule(RuleAction.ALLOW, "198.51.100.10", "203.0.113.20", order=0),
    FilterRule(RuleAction.DENY, "198.51.100.10", "203.0.113.21", order=1),
    FilterRule(
        RuleAction.ALLOW,
        "198.51.100.11",
        "203.0.113.20",
        order=2,
        src_link="02:00:5e:10:00:02",
        proto=6,
        ttl_min=32,
        ttl_max=128,
    ),
]
ACCOUNTS = [AdminAccount("alice", "s3cret!pass"), AdminAccount("bob", "hunter-two")]


def parsed(specs):
    """Faults from their spec strings, e.g. ``("invert_rule:0",)``."""
    return [Fault.parse(spec) for spec in specs]


def filter_evidence(level=FilterLevel.NETWORK, faults=(), rules=RULES):
    bench = build_testbench(EXT, INT, rules=rules, faults=parsed(faults), seed=5)
    return run_filter_procedure(bench, level)


def bits(results):
    return {r.label: r.bit for r in results}


def test_pairset_mismatch_wording():
    got = PairSet({("a", "b"), ("x", "y")})
    want = PairSet({("a", "b"), ("c", "d")})
    text = got.mismatch(want)
    assert "missing" in text and "('c', 'd')" in text
    assert "unexpected" in text and "('x', 'y')" in text
    assert got.mismatch(got) == "sets agree"


def test_pairset_mismatch_clips_long_witnesses():
    got = PairSet()
    want = PairSet({(str(i), "z") for i in range(9)})
    assert "and 5 more" in got.mismatch(want)


def test_reference_matcher_agrees_with_the_oracle():
    rng = random.Random(113)
    nets = ["198.51.100.10", "198.51.100.11", "203.0.113.20"]
    links = ["02:00:5e:00:00:01", "02:00:5e:00:00:02", None]
    for _ in range(400):
        rules = []
        for order in range(rng.randrange(0, 5)):
            rules.append(
                FilterRule(
                    rng.choice([RuleAction.ALLOW, RuleAction.DENY]),
                    rng.choice(nets),
                    rng.choice(nets),
                    order=order,
                    src_link=rng.choice(links),
                    dst_link=rng.choice(links),
                    proto=rng.choice([None, 6, 17]),
                    ttl_min=rng.choice([None, 10, 64]),
                    ttl_max=rng.choice([None, 80, 255]),
                )
            )
        pkt = Packet(
            Address(rng.choice(nets), rng.choice(links)),
            Address(rng.choice(nets), rng.choice(links)),
            proto=rng.choice([6, 17]),
            ttl=rng.choice([5, 64, 200]),
            payload_tag=0,
        )
        got = _first_match_action(rules, pkt)
        want = oracle_first_match(rules, pkt)
        assert (got.value if got else None) == want


def test_compliant_filter_evidence_passes_all_four_equations():
    for level in FilterLevel:
        assert bits(evaluate_filter_criteria(filter_evidence(level))) == {
            FORWARD_MATCHES_ALLOW: 1,
            DROP_MATCHES_DENY: 1,
            JOURNAL_MATCHES_FORWARD: 1,
            JOURNAL_MATCHES_DROP: 1,
        }


def test_default_deny_probes_are_counted_in_the_breakdown():
    results = evaluate_filter_criteria(filter_evidence())
    drop = next(r for r in results if r.label == DROP_MATCHES_DENY)
    assert "falling to the default stance" in drop.detail


def test_inverted_rule_breaks_both_rule_comparisons():
    got = bits(evaluate_filter_criteria(filter_evidence(faults=("invert_rule:0",))))
    assert got == {
        FORWARD_MATCHES_ALLOW: 0,
        DROP_MATCHES_DENY: 0,
        JOURNAL_MATCHES_FORWARD: 1,
        JOURNAL_MATCHES_DROP: 1,
    }


def test_ttl_blindness_needs_the_field_level_projection():
    # A second near-miss on the same pair keeps the plain-address sets
    # identical, so only the field-extended comparison exposes the fault.
    traffic = [
        TrafficSpec("ext1", "int1"),
        TrafficSpec("ext2", "int1"),
        TrafficSpec("ext2", "int1", ttl=5),
        TrafficSpec("ext2", "int1", proto=17),
    ]

    def run(level):
        bench = build_testbench(EXT, INT, rules=RULES, faults=parsed(["ignore_field:ttl"]), seed=5)
        return bits(evaluate_filter_criteria(run_filter_procedure(bench, level, traffic)))

    assert all(run(FilterLevel.NETWORK).values())
    at_fields = run(FilterLevel.FIELDS)
    assert (at_fields[FORWARD_MATCHES_ALLOW], at_fields[DROP_MATCHES_DENY]) == (0, 0)


def test_suppressed_pass_entries_break_only_the_journal_equation():
    got = bits(evaluate_filter_criteria(filter_evidence(faults=("skip_journal:pass_allowed",))))
    assert got == {
        FORWARD_MATCHES_ALLOW: 1,
        DROP_MATCHES_DENY: 1,
        JOURNAL_MATCHES_FORWARD: 0,
        JOURNAL_MATCHES_DROP: 1,
    }


def test_filter_evaluation_needs_probe_traffic():
    ev = FilterEvidence(FilterLevel.NETWORK, tuple(RULES), (), (), (), ())
    with pytest.raises(Refused):
        evaluate_filter_criteria(ev)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 3)), max_size=6))
def test_random_rule_tables_still_satisfy_the_equations(table):
    # Whatever rules a compliant product screens with, its own traffic must
    # satisfy the four equations by construction.
    nets_src = ["198.51.100.10", "198.51.100.11", "198.51.100.12", "198.51.100.13"]
    nets_dst = ["203.0.113.20", "203.0.113.21", "203.0.113.22", "203.0.113.23"]
    rules = [
        FilterRule(
            RuleAction.ALLOW if is_allow else RuleAction.DENY,
            nets_src[a],
            nets_dst[b],
            order=i,
        )
        for i, (is_allow, a, b) in enumerate(table)
    ]
    ext = [Host(f"e{i}", Address(n)) for i, n in enumerate(nets_src)]
    int_ = [Host(f"i{i}", Address(n)) for i, n in enumerate(nets_dst)]
    bench = build_testbench(ext, int_, rules=rules, seed=3)
    results = evaluate_filter_criteria(run_filter_procedure(bench))
    assert all(r.bit == 1 for r in results)


_EXT_NETS = ["198.51.100.10", "198.51.100.11", "198.51.100.12"]
_INT_NETS = ["203.0.113.20", "203.0.113.21", "203.0.113.22"]
_SPOOFED_MAC = "02:00:5e:ff:ff:ff"


@st.composite
def _filter_benches(draw):
    """Random hosts (all with MACs), rules and traffic, near rule bounds."""
    ext = [
        Host(f"e{i}", Address(net, f"02:00:5e:10:00:0{i}"))
        for i, net in enumerate(_EXT_NETS[: draw(st.integers(1, 3))])
    ]
    int_ = [
        Host(f"i{i}", Address(net, f"02:00:5e:20:00:0{i}"))
        for i, net in enumerate(_INT_NETS[: draw(st.integers(1, 3))])
    ]
    macs = st.none() | st.sampled_from([h.address.link for h in ext + int_] + [_SPOOFED_MAC])
    rules = []
    for order in draw(st.lists(st.integers(0, 50), unique=True, max_size=6)):
        low, high = draw(st.sampled_from([None, 16, 64])), draw(st.sampled_from([None, 64, 128]))
        rules.append(
            FilterRule(
                draw(st.sampled_from(RuleAction)),
                draw(st.sampled_from(ext)).address.net,
                draw(st.sampled_from(int_)).address.net,
                order=order,
                src_link=draw(macs),
                dst_link=draw(macs),
                proto=draw(st.sampled_from([None, 6, 17])),
                ttl_min=low,
                ttl_max=high,
            )
        )
    spec = st.builds(
        TrafficSpec,
        src=st.sampled_from([h.name for h in ext]),
        dst=st.sampled_from([h.name for h in int_]),
        proto=st.none() | st.sampled_from([6, 17]),
        ttl=st.none() | st.sampled_from([15, 16, 64, 65, 128, 129]),
        src_link=macs,
        dst_link=macs,
    )
    return ext, int_, rules, draw(st.lists(spec, min_size=1, max_size=12))


@settings(max_examples=60, deadline=None)
@given(_filter_benches())
def test_ledger_and_bits_agree_with_the_oracles_under_every_filter_fault(bench_parts):
    ext, int_, rules, traffic = bench_parts
    specs = [None, "ignore_field:link", "ignore_field:proto", "ignore_field:ttl"]
    specs += ["skip_journal:pass_allowed", "skip_journal:pass_denied"]
    specs += [f"invert_rule:{k}" for k in range(len(rules))]
    levels = [lv for lv in FilterLevel if not filter_level_problem(lv, ext + int_, rules)]
    for spec in specs:
        faults = [Fault.parse(spec)] if spec else []
        bench = build_testbench(ext, int_, rules=rules, faults=faults, seed=1)
        for level in levels:
            ev = run_filter_procedure(bench, level, traffic)
            rows = probe_ledger(ev)
            out_tags = {p.payload_tag for p in ev.packet_out}
            assert len(rows) == len(ev.packet_in)
            for row, probe in zip(rows, ev.packet_in):
                assert row.pair == (probe.src.net, probe.dst.net)
                assert (row.rule and row.rule.action.value) == oracle_first_match(ev.rules, probe)
                assert row.delivered == (probe.payload_tag in out_tags)
            bits = tuple(r.bit for r in evaluate_filter_criteria(ev))
            assert bits == oracle_filter_bits(ev), (spec, level)


# Every outside-to-inside pair with default fields, then with a spoofed
# sender MAC and with a ttl outside rule 2's range: both outcomes occur.
_TRAFFIC = [
    TrafficSpec(s.name, d.name, **kw)
    for kw in ({}, {"src_link": _SPOOFED_MAC}, {"ttl": 200})
    for s in EXT
    for d in INT
]


@pytest.mark.parametrize("spec", [None, "skip_journal:pass_allowed", "skip_journal:pass_denied"])
def test_the_filter_journal_lists_each_probe_in_order_with_its_outcome(spec):
    bench = build_testbench(EXT, INT, rules=RULES, faults=parsed([spec] if spec else []), seed=3)
    skipped = spec and JournalEvent(spec.partition(":")[2])
    for level in FilterLevel:
        mark = len(bench.fw.export_journal())
        ev = run_filter_procedure(bench, level, _TRAFFIC)
        out_tags = {p.payload_tag for p in ev.packet_out}
        outcomes = [
            (JournalEvent.PASS_ALLOWED if p.payload_tag in out_tags else JournalEvent.PASS_DENIED,
             (p.src.net, p.dst.net))
            for p in ev.packet_in
        ]
        assert {event for event, _ in outcomes} == set(FILTER_EVENTS)
        journal = bench.fw.export_journal()[mark:]
        kept = [outcome for outcome in outcomes if outcome[0] is not skipped]
        assert [(e.event, e.subject) for e in journal] == kept
        assert [e.seq for e in journal] == list(range(mark + 1, mark + 1 + len(journal)))


def _level_key(packet, level):
    """A probe's comparison key at `level`, written out."""
    if level is FilterLevel.NETWORK:
        return (packet.src.net, packet.dst.net)
    if level is FilterLevel.LINK:
        return (packet.src.net, packet.src.link or "", packet.dst.net, packet.dst.link or "")
    return (packet.src.net, packet.dst.net, packet.proto, packet.ttl)


def test_the_ledger_key_is_the_probe_projected_at_the_run_level():
    # One host has no link address, so a link key holds "" for it.
    bare = Host("ext3", Address("198.51.100.12"))
    traffic = [*_TRAFFIC, TrafficSpec("ext3", "int1", proto=17), TrafficSpec("ext3", "int2")]
    bench = build_testbench([*EXT, bare], INT, rules=RULES, seed=3)
    ev = run_filter_procedure(bench, FilterLevel.NETWORK, traffic)
    for level in FilterLevel:
        rows = probe_ledger(replace(ev, level=level))
        assert [row.key for row in rows] == [_level_key(p, level) for p in ev.packet_in]
    assert ("198.51.100.12", "", "203.0.113.21", "02:00:5e:20:00:02") in {
        row.key for row in probe_ledger(replace(ev, level=FilterLevel.LINK))
    }


@pytest.mark.parametrize("spec", [None, "invert_rule:0", "ignore_field:ttl"])
def test_a_saved_report_rebuilds_the_same_ledger(spec):
    faults = [Fault.parse(spec)] if spec else None
    report = run_campaign(load_scenario(str(REFERENCE)), faults)
    reread = parse_report(export_report(report))
    live = [r.evidence for r in report.procedures if isinstance(r.evidence, FilterEvidence)]
    saved = [r.evidence for r in reread.procedures if isinstance(r.evidence, FilterEvidence)]
    assert len(live) == 3
    assert [probe_ledger(ev) for ev in saved] == [probe_ledger(ev) for ev in live]


def test_a_delivered_packet_that_was_never_sent_is_refused():
    ev = filter_evidence()
    stray = replace(ev.packet_in[0], payload_tag=999)
    with pytest.raises(Refused, match="delivered packet 999 is not a probe"):
        evaluate_filter_criteria(replace(ev, packet_out=ev.packet_out + (stray,)))


def auth_evidence(faults=(), **kw):
    bench = build_testbench(EXT, INT, rules=RULES, accounts=ACCOUNTS, faults=parsed(faults), **kw)
    return run_auth_procedure(bench)


def test_compliant_auth_evidence_passes_all_four_checks():
    results = evaluate_auth_criteria(auth_evidence())
    assert all(r.bit == 1 for r in results)
    assert [r.label for r in results] == [
        REGISTERED_ACCEPTED,
        UNREGISTERED_REJECTED,
        ATTEMPTS_JOURNALED,
        NO_PLAINTEXT_CREDENTIALS,
    ]


def test_password_wildcard_fault_is_pinned_to_one_check():
    got = bits(evaluate_auth_criteria(auth_evidence(faults=("accept_any_password",))))
    assert got == {
        REGISTERED_ACCEPTED: 1,
        UNREGISTERED_REJECTED: 0,
        ATTEMPTS_JOURNALED: 1,
        NO_PLAINTEXT_CREDENTIALS: 1,
    }
    results = evaluate_auth_criteria(auth_evidence(faults=("accept_any_password",)))
    rejected = next(r for r in results if r.label == UNREGISTERED_REJECTED)
    assert "[1]" in rejected.detail


def test_missing_signon_journal_reports_the_count_gap():
    results = evaluate_auth_criteria(auth_evidence(faults=("omit_auth_journal",)))
    row = next(r for r in results if r.label == ATTEMPTS_JOURNALED)
    assert row.bit == 0
    assert "0 sign-on record(s) for 5 attempt(s)" in row.detail


def test_leaked_credentials_name_the_piece_but_never_the_secret():
    results = evaluate_auth_criteria(auth_evidence(faults=("leak_credentials",)))
    row = next(r for r in results if r.label == NO_PLAINTEXT_CREDENTIALS)
    assert row.bit == 0
    assert "alice identifier" in row.detail
    for account in ACCOUNTS:
        assert account.password not in row.detail


def test_a_product_that_lost_an_account_fails_sign_on():
    # The registered accounts come from the bench, not from the product, so
    # a product that dropped one cannot redefine what counts as registered.
    bench = build_testbench(EXT, INT, accounts=ACCOUNTS)
    bench.fw = Firewall(accounts=ACCOUNTS[:1])
    attempts = [
        ("alice", "s3cret!pass"),
        ("bob", "hunter-two"),
        ("alice", "wrong"),
        ("ghost", "hunter-two"),
        ("ghost", "wrong"),
    ]
    results = evaluate_auth_criteria(run_auth_procedure(bench, attempts))
    row = next(r for r in results if r.label == REGISTERED_ACCEPTED)
    assert row.bit == 0
    assert "[1]" in row.detail


def test_out_of_order_journal_is_rejected():
    ev = AuthEvidence(
        mode=auth_evidence().mode,
        accounts=tuple(ACCOUNTS),
        attempts=(
            AuthAttemptResult("alice", "s3cret!pass", 1),
            AuthAttemptResult("alice", "wrong", 0),
            AuthAttemptResult("ghost", "s3cret!pass", 0),
            AuthAttemptResult("ghost", "wrong", 0),
        ),
        probes=(),
        captures=(),
        journal=(
            JournalEntry(3, JournalEvent.AUTH_ACCEPTED, ("alice",)),
            JournalEntry(1, JournalEvent.AUTH_REJECTED, ("alice",)),
            JournalEntry(2, JournalEvent.AUTH_REJECTED, ("ghost",)),
            JournalEntry(4, JournalEvent.AUTH_REJECTED, ("ghost",)),
        ),
        findings=(),
    )
    row = next(r for r in evaluate_auth_criteria(ev) if r.label == ATTEMPTS_JOURNALED)
    assert row.bit == 0
    assert "out of order" in row.detail


def test_auth_evaluation_needs_attempts():
    ev = AuthEvidence(auth_evidence().mode, tuple(ACCOUNTS), (), (), (), (), ())
    with pytest.raises(Refused):
        evaluate_auth_criteria(ev)


def integrity_evidence(faults=()):
    files = [FileArtifact("screen.conf", b"drop yes"), FileArtifact("engine.bin", b"\x7fELF")]
    bench = build_testbench(EXT, INT, files=files, faults=parsed(faults))
    return run_integrity_procedure(bench, [Mutation("screen.conf", "flip", offset=0)])


def test_matching_detections_pass():
    (row,) = evaluate_integrity_criteria(integrity_evidence())
    assert (row.label, row.bit) == (DETECTIONS_MATCH, 1)
    assert "1 edit(s) flagged" in row.detail


def test_missed_edit_fails_and_is_named():
    (row,) = evaluate_integrity_criteria(integrity_evidence(("blind_integrity:screen.conf",)))
    assert row.bit == 0
    assert "unflagged edit(s): screen.conf" in row.detail


def test_false_alarm_fails_too():
    ev = IntegrityEvidence(
        files=(FileCheckRecord("policy.db", "aa", "aa", modified=0, detected=1),),
        journal=(),
    )
    (row,) = evaluate_integrity_criteria(ev)
    assert row.bit == 0
    assert "false alarm(s): policy.db" in row.detail


def test_integrity_evaluation_needs_file_records():
    with pytest.raises(Refused):
        evaluate_integrity_criteria(IntegrityEvidence((), ()))
