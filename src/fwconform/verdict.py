"""Acceptance criteria over collected evidence.

Each evaluator reduces one evidence bundle to labelled criterion bits.
The screening criteria are set equations between what the product did
and what the loaded rule set demands.  Both sides are read from one
per-probe ledger (`probe_ledger`): a row per probe, in probe order, with
its address pair, its comparison key at the run's level, the rule that
decides it (None for the default stance) and whether it was delivered.
The ledger is worked out from the evidence alone, so a saved report
rebuilds the same one.

The deciding rule comes from a deliberately separate first-match
evaluator with its own pair index.  Keeping it apart from the product's
matcher is what lets a product defect, a misfiled or lost rule included,
show up as a set mismatch rather than cancelling out.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, itemgetter
from typing import Iterable, NamedTuple, Union

from .errors import Refused
from .formal import CriterionResult, FilterLevel
from .firewall import AUTH_EVENTS, FilterRule, JournalEntry, JournalEvent, Packet, RuleAction
from .testbench import AuthEvidence, FilterEvidence, IntegrityEvidence

FORWARD_MATCHES_ALLOW = "forwarded-set-matches-allow-rules"
DROP_MATCHES_DENY = "dropped-set-matches-deny-rules"
JOURNAL_MATCHES_FORWARD = "allowed-journal-matches-forwarded-set"
JOURNAL_MATCHES_DROP = "denied-journal-matches-dropped-set"
REGISTERED_ACCEPTED = "registered-credentials-accepted"
UNREGISTERED_REJECTED = "unregistered-credentials-rejected"
ATTEMPTS_JOURNALED = "attempts-journaled-in-order"
NO_PLAINTEXT_CREDENTIALS = "no-plaintext-credentials-captured"
DETECTIONS_MATCH = "detections-match-modifications"


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


# Each probe's comparison key by level: the tuple grows with the screening
# level so field-aware rule sets can be told apart from plain address screening.
_LEVEL_KEYS = {
    FilterLevel.NETWORK: attrgetter("src.net", "dst.net"),
    FilterLevel.LINK: lambda p: (p.src.net, p.src.link or "", p.dst.net, p.dst.link or ""),
    FilterLevel.FIELDS: attrgetter("src.net", "dst.net", "proto", "ttl"),
}


def _first_match_in_order(ordered: Iterable[FilterRule], packet: Packet) -> FilterRule | None:
    """Reference first-match semantics over rules already in `order` order; None if none match."""
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
        return rule
    return None


class ProbeRow(NamedTuple):
    """What the verdict knows about one probe."""

    pair: tuple[str, str]
    key: tuple  # the probe at the run's level, as `_LEVEL_KEYS` projects it
    rule: FilterRule | None  # the reference first match; None: the default stance
    delivered: bool


def _ledger_columns(evidence: FilterEvidence) -> tuple[list, list, list, list]:
    """The probe ledger as four columns in probe order: pairs, keys, rules, delivered."""
    by_pair: dict[tuple[str, str], list[FilterRule]] = {}
    for rule in sorted(evidence.rules, key=attrgetter("order")):
        by_pair.setdefault(project(rule), []).append(rule)
    packets = evidence.packet_in
    tags = list(map(attrgetter("payload_tag"), packets))
    out_tags = set(map(attrgetter("payload_tag"), evidence.packet_out))
    stray = out_tags.difference(tags)
    if stray:
        raise Refused(f"delivered packet {min(stray)} is not a probe")
    pairs = list(map(_LEVEL_KEYS[FilterLevel.NETWORK], packets))
    keys = list(map(_LEVEL_KEYS[evidence.level], packets))
    rules = [
        _first_match_in_order(by_pair[pair], packet) if pair in by_pair else None
        for pair, packet in zip(pairs, packets)
    ]
    return pairs, keys, rules, [tag in out_tags for tag in tags]


def probe_ledger(evidence: FilterEvidence) -> tuple[ProbeRow, ...]:
    """One row per probe, in probe order, worked out from the evidence alone."""
    return tuple(map(ProbeRow, *_ledger_columns(evidence)))


def _journal_pairs(entries: Iterable[JournalEntry]) -> PairSet:
    # `project` on each entry: the first two subject fields.
    return PairSet(map(itemgetter(0, 1), map(attrgetter("subject"), entries)))


def evaluate_filter_criteria(evidence: FilterEvidence) -> tuple[CriterionResult, ...]:
    """The four screening set equations, in fixed label order.

    The first two compare delivered/blocked traffic against the rule set
    at the run's projection level; the last two compare the journal, which
    records plain address pairs, against the delivered/blocked traffic.
    """
    if not evidence.packet_in:
        raise Refused("no probe traffic sent")
    pairs, keys, rules, delivered = _ledger_columns(evidence)
    allowed = [rule is not None and rule.action is RuleAction.ALLOW for rule in rules]
    denied = [not allow for allow in allowed]
    blocked = [not d for d in delivered]
    expect_forward = PairSet(compress(keys, allowed))
    expect_drop = PairSet(compress(keys, denied))
    actual_forward = PairSet(compress(keys, delivered))
    actual_drop = PairSet(compress(keys, blocked))
    default_denied = sum(rule is None for rule in rules)
    note = f", {default_denied} probe(s) falling to the default stance" if default_denied else ""

    # Journal entries carry (sender, recipient) pairs whatever the level.
    out_pairs = PairSet(compress(pairs, delivered))
    blocked_pairs = PairSet(compress(pairs, blocked))
    logged_allowed = _journal_pairs(evidence.journal_allowed)
    logged_denied = _journal_pairs(evidence.journal_denied)

    # (label, actual, expected, what a passing detail counts, suffix of either detail)
    equations = (
        (FORWARD_MATCHES_ALLOW, actual_forward, expect_forward, "delivered tuple(s)", ""),
        (DROP_MATCHES_DENY, actual_drop, expect_drop, "blocked tuple(s)", note),
        (JOURNAL_MATCHES_FORWARD, logged_allowed, out_pairs, "journaled pass pair(s)", ""),
        (JOURNAL_MATCHES_DROP, logged_denied, blocked_pairs, "journaled block pair(s)", ""),
    )
    results = []
    for label, got, want, noun, suffix in equations:
        bit = int(got == want)
        detail = f"{len(got)} {noun}" if bit else got.mismatch(want)
        results.append(CriterionResult(label, bit, detail + suffix))
    return tuple(results)


def evaluate_auth_criteria(evidence: AuthEvidence) -> tuple[CriterionResult, ...]:
    """Sign-on acceptance: grant decisions, journal completeness, capture hygiene."""
    if not evidence.attempts:
        raise Refused("no sign-on attempts recorded")
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
        (JournalEvent.AUTH_ACCEPTED if a.granted else JournalEvent.AUTH_REJECTED, (a.identifier,))
        for a in evidence.attempts
    ]
    auth_entries = [(e.event, e.subject) for e in evidence.journal if e.event in AUTH_EVENTS]
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
        raise Refused("no file check records")
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
