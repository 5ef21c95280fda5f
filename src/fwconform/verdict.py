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
from typing import Iterable, NamedTuple

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
        by_pair.setdefault((rule.src, rule.dst), []).append(rule)
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
    # Each entry's (sender, recipient): the first two subject fields.
    return PairSet(map(itemgetter(0, 1), map(attrgetter("subject"), entries)))


def _criteria(*rows: tuple[str, bool, str, str]) -> tuple[CriterionResult, ...]:
    """One result per (label, holds, detail when it holds, detail when it fails) row."""
    return tuple(
        CriterionResult(label, int(holds), passing if holds else failing)
        for label, holds, passing, failing in rows
    )


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
    rows = []
    for label, got, want, noun, suffix in equations:
        agree = got == want
        witness = "" if agree else got.mismatch(want)
        rows.append((label, agree, f"{len(got)} {noun}{suffix}", witness + suffix))
    return _criteria(*rows)


def evaluate_auth_criteria(evidence: AuthEvidence) -> tuple[CriterionResult, ...]:
    """Sign-on acceptance: grant decisions, journal completeness, capture hygiene."""
    attempts = evidence.attempts
    if not attempts:
        raise Refused("no sign-on attempts recorded")
    registered = {(a.identifier, a.password) for a in evidence.accounts}
    known = [(a.identifier, a.password) in registered for a in attempts]
    refused = [i for i, (a, ok) in enumerate(zip(attempts, known)) if ok and not a.granted]
    granted = [i for i, (a, ok) in enumerate(zip(attempts, known)) if a.granted and not ok]
    expected_log = [
        (JournalEvent.AUTH_ACCEPTED if a.granted else JournalEvent.AUTH_REJECTED, (a.identifier,))
        for a in attempts
    ]
    journaled = [(e.event, e.subject) for e in evidence.journal if e.event in AUTH_EVENTS]
    seqs = [e.seq for e in evidence.journal]
    ordered = seqs == sorted(seqs)
    spots = sorted({(f.account_id, f.piece) for f in evidence.findings})
    captured = len(evidence.captures)
    return _criteria(
        (REGISTERED_ACCEPTED, not refused, "every registered sign-on granted",
         f"attempt(s) {refused} refused despite registered credentials"),
        (UNREGISTERED_REJECTED, not granted, "every unregistered sign-on refused",
         f"attempt(s) {granted} granted on unregistered credentials"),
        (ATTEMPTS_JOURNALED, ordered and journaled == expected_log,
         f"{len(journaled)} attempt(s) journaled in order",
         f"journal holds {len(journaled)} sign-on record(s) for {len(attempts)} attempt(s)"
         if ordered else "journal sequence numbers out of order"),
        (NO_PLAINTEXT_CREDENTIALS, not spots,
         f"{captured} captured packet(s), no credential in the clear"
         if captured else "local console sign-on, nothing crosses a segment",
         "in the clear: " + ", ".join(f"{a} {p}" for a, p in spots)),
    )


def evaluate_integrity_criteria(evidence: IntegrityEvidence) -> tuple[CriterionResult, ...]:
    """One bit: every file's verdict equals the ground truth, both directions.

    A missed edit and a false alarm both count against the product.
    """
    if not evidence.files:
        raise Refused("no file check records")
    missed = [r.file_id for r in evidence.files if r.modified and not r.detected]
    false_alarms = [r.file_id for r in evidence.files if r.detected and not r.modified]
    edited = sum(r.modified for r in evidence.files)
    wrong = (("unflagged edit(s)", missed), ("false alarm(s)", false_alarms))
    return _criteria(
        (DETECTIONS_MATCH, not missed and not false_alarms,
         f"{len(evidence.files)} file(s) checked, {edited} edit(s) flagged",
         "; ".join(f"{what}: {', '.join(ids)}" for what, ids in wrong if ids)),
    )
