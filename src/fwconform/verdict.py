"""Acceptance criteria over collected evidence.

Each evaluator reduces one evidence bundle to labelled criterion bits.
The screening criteria are set equations: project traffic and journal
records onto address tuples, then require exact equality between what
the product did and what the loaded rule set demands.

The expected side is computed here, over the same probe traffic, with a
deliberately separate first-match evaluator.  Keeping it apart from the
product's own matcher is what lets a product defect show up as a set
mismatch rather than cancelling out.

For the same reason the verdict keeps its own pair index rather than
borrowing the product's: it sorts the evidence rules once, buckets them
by (src, dst) and runs the reference first-match over the probe's
bucket, once per probe.  A product whose index misfiled or lost a rule
then disagrees with this side instead of sharing the mistake.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

from .errors import IncompleteEvidence
from .formal import CriterionResult
from .firewall import FilterRule, JournalEntry, Packet, RuleAction
from .testbench import (
    AuthEvidence,
    FilterEvidence,
    FilterLevel,
    IntegrityEvidence,
)

FORWARD_MATCHES_ALLOW = "forwarded-set-matches-allow-rules"
DROP_MATCHES_DENY = "dropped-set-matches-deny-rules"
JOURNAL_MATCHES_FORWARD = "allowed-journal-matches-forwarded-set"
JOURNAL_MATCHES_DROP = "denied-journal-matches-dropped-set"
REGISTERED_ACCEPTED = "registered-credentials-accepted"
UNREGISTERED_REJECTED = "unregistered-credentials-rejected"
ATTEMPTS_JOURNALED = "attempts-journaled-in-order"
NO_PLAINTEXT_CREDENTIALS = "no-plaintext-credentials-captured"
DETECTIONS_MATCH = "detections-match-modifications"

FILTER_LABELS = (
    FORWARD_MATCHES_ALLOW,
    DROP_MATCHES_DENY,
    JOURNAL_MATCHES_FORWARD,
    JOURNAL_MATCHES_DROP,
)
RULE_COMPARISON_LABELS = (FORWARD_MATCHES_ALLOW, DROP_MATCHES_DENY)
AUTH_LABELS = (
    REGISTERED_ACCEPTED,
    UNREGISTERED_REJECTED,
    ATTEMPTS_JOURNALED,
    NO_PLAINTEXT_CREDENTIALS,
)


class PairSet(frozenset):
    """An order-free set of projected traffic tuples."""

    __slots__ = ()

    def mismatch(self, expected: "PairSet") -> str:
        """Readable witness of how this set differs from the expected one."""
        missing = sorted(expected - self)
        surplus = sorted(self - expected)
        parts = []
        if missing:
            parts.append(f"missing {_clip(missing)}")
        if surplus:
            parts.append(f"unexpected {_clip(surplus)}")
        return "; ".join(parts) if parts else "sets agree"


def _clip(items: list, limit: int = 4) -> str:
    shown = ", ".join(repr(i) for i in items[:limit])
    if len(items) > limit:
        shown += f", and {len(items) - limit} more"
    return shown


def project(item: Union[Packet, FilterRule, JournalEntry]) -> tuple[str, str]:
    """Reduce a packet, rule or journal entry to its (sender, recipient) pair."""
    if isinstance(item, Packet):
        return (item.src.net, item.dst.net)
    if isinstance(item, FilterRule):
        return (item.src, item.dst)
    return (item.subject[0], item.subject[1])


def _level_tuple(packet: Packet, level: FilterLevel) -> tuple:
    # The comparison tuple grows with the screening level so field-aware
    # rule sets can be told apart from plain address screening.
    if level is FilterLevel.NETWORK:
        return (packet.src.net, packet.dst.net)
    if level is FilterLevel.LINK:
        return (
            packet.src.net,
            packet.src.link or "",
            packet.dst.net,
            packet.dst.link or "",
        )
    return (packet.src.net, packet.dst.net, packet.proto, packet.ttl)


def _first_match_action(rules: Sequence[FilterRule], packet: Packet) -> RuleAction | None:
    """Reference screening semantics: first matching rule decides, else None."""
    return _first_match_in_order(sorted(rules, key=lambda r: r.order), packet)


def _first_match_in_order(
    ordered: Iterable[FilterRule], packet: Packet
) -> RuleAction | None:
    """`_first_match_action` over rules already in `order` order."""
    for rule in ordered:
        if rule.src != packet.src.net:
            continue
        if rule.dst != packet.dst.net:
            continue
        if rule.src_link is not None and rule.src_link != packet.src.link:
            continue
        if rule.dst_link is not None and rule.dst_link != packet.dst.link:
            continue
        if rule.proto is not None and rule.proto != packet.proto:
            continue
        if rule.ttl_min is not None and packet.ttl < rule.ttl_min:
            continue
        if rule.ttl_max is not None and packet.ttl > rule.ttl_max:
            continue
        return rule.action
    return None


def _pair_index(rules: Sequence[FilterRule]) -> dict[tuple[str, str], list[FilterRule]]:
    """Rules bucketed by their (sender, recipient) pair, each bucket in order."""
    index: dict[tuple[str, str], list[FilterRule]] = {}
    for rule in sorted(rules, key=lambda r: r.order):
        index.setdefault(project(rule), []).append(rule)
    return index


def _journal_pairs(entries: Iterable[JournalEntry]) -> PairSet:
    return PairSet(project(e) for e in entries)


def evaluate_filter_criteria(evidence: FilterEvidence) -> tuple[CriterionResult, ...]:
    """The four screening set equations, in fixed label order.

    The first two compare delivered/blocked traffic against the rule set
    at the run's projection level; the last two compare the journal, which
    records plain address pairs, against the delivered/blocked traffic.
    """
    if not evidence.packet_in:
        raise IncompleteEvidence("no probe traffic on the outside tap")
    level = evidence.level
    out_tags = {p.payload_tag for p in evidence.packet_out}
    blocked = tuple(p for p in evidence.packet_in if p.payload_tag not in out_tags)

    by_pair = _pair_index(evidence.rules)
    expected = [
        (p, _first_match_in_order(by_pair.get(project(p), ()), p)) for p in evidence.packet_in
    ]
    expect_forward = PairSet(
        _level_tuple(p, level) for p, action in expected if action is RuleAction.ALLOW
    )
    expect_drop = PairSet(
        _level_tuple(p, level) for p, action in expected if action is not RuleAction.ALLOW
    )
    default_denied = sum(1 for _, action in expected if action is None)
    actual_forward = PairSet(_level_tuple(p, level) for p in evidence.packet_out)
    actual_drop = PairSet(_level_tuple(p, level) for p in blocked)

    results = []
    bit = int(actual_forward == expect_forward)
    results.append(
        CriterionResult(
            FORWARD_MATCHES_ALLOW,
            bit,
            f"{len(actual_forward)} delivered tuple(s)"
            if bit
            else actual_forward.mismatch(expect_forward),
        )
    )
    bit = int(actual_drop == expect_drop)
    note = f", {default_denied} probe(s) falling to the default stance" if default_denied else ""
    results.append(
        CriterionResult(
            DROP_MATCHES_DENY,
            bit,
            f"{len(actual_drop)} blocked tuple(s){note}"
            if bit
            else actual_drop.mismatch(expect_drop) + note,
        )
    )

    # Journal entries carry (sender, recipient) pairs whatever the level.
    out_pairs = PairSet(project(p) for p in evidence.packet_out)
    blocked_pairs = PairSet(project(p) for p in blocked)
    logged_allowed = _journal_pairs(evidence.journal_allowed)
    logged_denied = _journal_pairs(evidence.journal_denied)
    bit = int(logged_allowed == out_pairs)
    results.append(
        CriterionResult(
            JOURNAL_MATCHES_FORWARD,
            bit,
            f"{len(logged_allowed)} journaled pass pair(s)"
            if bit
            else logged_allowed.mismatch(out_pairs),
        )
    )
    bit = int(logged_denied == blocked_pairs)
    results.append(
        CriterionResult(
            JOURNAL_MATCHES_DROP,
            bit,
            f"{len(logged_denied)} journaled block pair(s)"
            if bit
            else logged_denied.mismatch(blocked_pairs),
        )
    )
    return tuple(results)


def evaluate_auth_criteria(evidence: AuthEvidence) -> tuple[CriterionResult, ...]:
    """Sign-on acceptance: grant decisions, journal completeness, capture hygiene."""
    if not evidence.attempts:
        raise IncompleteEvidence("no sign-on attempts recorded")
    registered = {(a.identifier, a.password) for a in evidence.accounts}

    wrongly_rejected = [
        i
        for i, a in enumerate(evidence.attempts)
        if (a.identifier, a.password) in registered and not a.granted
    ]
    wrongly_accepted = [
        i
        for i, a in enumerate(evidence.attempts)
        if (a.identifier, a.password) not in registered and a.granted
    ]
    results = [
        CriterionResult(
            REGISTERED_ACCEPTED,
            int(not wrongly_rejected),
            "every registered sign-on granted"
            if not wrongly_rejected
            else f"attempt(s) {wrongly_rejected} refused despite registered credentials",
        ),
        CriterionResult(
            UNREGISTERED_REJECTED,
            int(not wrongly_accepted),
            "every unregistered sign-on refused"
            if not wrongly_accepted
            else f"attempt(s) {wrongly_accepted} granted on unregistered credentials",
        ),
    ]

    expected_log = [
        ("auth_accepted" if a.granted else "auth_rejected", (a.identifier,))
        for a in evidence.attempts
    ]
    auth_entries = [
        (e.event.value, e.subject)
        for e in evidence.journal
        if e.event.value in ("auth_accepted", "auth_rejected")
    ]
    seqs = [e.seq for e in evidence.journal]
    ordered = seqs == sorted(seqs)
    bit = int(auth_entries == expected_log and ordered)
    if bit:
        detail = f"{len(auth_entries)} attempt(s) journaled in order"
    elif not ordered:
        detail = "journal sequence numbers out of order"
    else:
        detail = (
            f"journal holds {len(auth_entries)} sign-on record(s) "
            f"for {len(expected_log)} attempt(s)"
        )
    results.append(CriterionResult(ATTEMPTS_JOURNALED, bit, detail))

    bit = int(not evidence.findings)
    if bit:
        detail = (
            f"{len(evidence.captures)} captured packet(s), no credential in the clear"
            if evidence.captures
            else "local console sign-on, nothing crosses a segment"
        )
    else:
        spots = sorted({(f.account_id, f.piece) for f in evidence.findings})
        detail = "in the clear: " + ", ".join(f"{a} {p}" for a, p in spots)
    results.append(CriterionResult(NO_PLAINTEXT_CREDENTIALS, bit, detail))
    return tuple(results)


def evaluate_integrity_criteria(evidence: IntegrityEvidence) -> tuple[CriterionResult, ...]:
    """One bit: every file's verdict equals the ground truth, both directions.

    A missed edit and a false alarm both count against the product.
    """
    if not evidence.files:
        raise IncompleteEvidence("no file check records")
    missed = [r.file_id for r in evidence.files if r.modified and not r.detected]
    false_alarms = [r.file_id for r in evidence.files if r.detected and not r.modified]
    bit = int(not missed and not false_alarms)
    if bit:
        edited = sum(r.modified for r in evidence.files)
        detail = f"{len(evidence.files)} file(s) checked, {edited} edit(s) flagged"
    else:
        parts = []
        if missed:
            parts.append(f"unflagged edit(s): {', '.join(missed)}")
        if false_alarms:
            parts.append(f"false alarm(s): {', '.join(false_alarms)}")
        detail = "; ".join(parts)
    return (CriterionResult(DETECTIONS_MATCH, bit, detail),)
