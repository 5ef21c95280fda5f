"""Simulated packet-screening product used as the system under test.

The firewall owns four mechanisms that the test procedures exercise: an
ordered first-match rule engine, an append-only event journal, an
administrator sign-on subsystem, and a file-integrity monitor.  `Firewall`
carries no fault code; its subclass `FaultyFirewall` owns the fault model
and degrades any mechanism for negative testing.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from itertools import compress
from typing import Collection, Hashable, Iterable, Mapping, Sequence

from .errors import Refused, listed, refuse, shown, type_problem

_MAC_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}")
# A canonical dotted quad: four octets 0-255 in ASCII digits, no leading zeros.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_NET_RE = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")
_BYTES = frozenset(range(256))  # a packet's proto or ttl
_FIELD_VALUES = _BYTES | {None}  # a requested proto or ttl; None: not given
_FIELD_TYPES = (int, type(None))

DEFAULT_PROTO = 6
DEFAULT_TTL = 64


class Segment(Enum):
    EXTERNAL = "external"
    INTERNAL = "internal"


class Decision(Enum):
    FORWARDED = "forwarded"
    DROPPED = "dropped"


class RuleAction(Enum):
    ALLOW = "allow"
    DENY = "deny"


class AuthMode(Enum):
    LOCAL = "local"
    REMOTE = "remote"


class JournalEvent(Enum):
    PASS_ALLOWED = "pass_allowed"
    PASS_DENIED = "pass_denied"
    AUTH_ACCEPTED = "auth_accepted"
    AUTH_REJECTED = "auth_rejected"
    INTEGRITY_ALARM = "integrity_alarm"


FILTER_EVENTS = (JournalEvent.PASS_ALLOWED, JournalEvent.PASS_DENIED)
AUTH_EVENTS = (JournalEvent.AUTH_ACCEPTED, JournalEvent.AUTH_REJECTED)


@dataclass(frozen=True, slots=True)
class Address:
    """A network address with an optional link-layer address.

    `net` must be a canonical dotted-quad string; `link` a colon-hex MAC,
    normalized to lower case.
    """

    net: str
    link: str | None = None

    def __post_init__(self):
        if not (isinstance(self.net, str) and _NET_RE.fullmatch(self.net)):
            raise Refused(f"not a canonical dotted-quad network address: {shown(self.net)}")
        if self.link is not None:
            object.__setattr__(self, "link", link_address(self.link))


def link_address(text: str) -> str:
    """A colon-hex MAC address in lower case; `Refused` when malformed."""
    if not (isinstance(text, str) and _MAC_RE.fullmatch(low := text.lower())):
        raise Refused(f"bad link-layer address: {shown(text)}")
    return low


def normalize_links(record) -> None:
    """Check a frozen record's optional `src_link`/`dst_link`; store them lower-cased."""
    for name in ("src_link", "dst_link"):
        link = getattr(record, name)
        if link is not None:
            object.__setattr__(record, name, link_address(link))


# The product's management interface unless a scenario places it.
DEFAULT_MANAGEMENT = Address("198.18.0.1")


@dataclass(frozen=True, slots=True)
class Packet:
    """One simulated datagram; `payload_tag` is unique within a procedure run."""

    src: Address
    dst: Address
    proto: int = DEFAULT_PROTO
    ttl: int = DEFAULT_TTL
    payload_tag: int = 0
    payload: bytes = b""
    ingress: Segment = Segment.EXTERNAL

    def __post_init__(self):
        proto, ttl = self.proto, self.ttl
        if not (type(proto) is int and proto in _BYTES and type(ttl) is int and ttl in _BYTES):
            raise Refused(packet_field_problem(proto, ttl, _BYTES))


def packet_field_problem(
    proto: int | None, ttl: int | None, values: Collection = _FIELD_VALUES
) -> str | None:
    """Why a proto or ttl is not an int among `values` (0..255, or None: not given), or None."""
    # Each type test comes first: it keeps out bools, floats and unhashable values.
    proto_ok = type(proto) in _FIELD_TYPES and proto in values
    ttl_ok = type(ttl) in _FIELD_TYPES and ttl in values
    if proto_ok and ttl_ok:
        return None
    given = (("proto", proto, proto_ok), ("ttl", ttl, ttl_ok))
    return "; ".join(f"{k} out of range: {shown(v)}" for k, v, ok in given if not ok)


@dataclass(frozen=True)
class FilterRule:
    """An ordered allow/deny rule over one (sender, recipient) address pair.

    The optional link/proto/ttl constraints narrow the match; an unset
    constraint matches anything.  MACs are stored lower-cased; proto and
    the ttl bounds must be 0..255 and the ttl range nonempty.
    """

    action: RuleAction
    src: str
    dst: str
    src_link: str | None = None
    dst_link: str | None = None
    proto: int | None = None
    ttl_min: int | None = None
    ttl_max: int | None = None
    order: int = 0

    def __post_init__(self):
        normalize_links(self)
        refuse(
            packet_field_problem(self.proto, self.ttl_min), packet_field_problem(None, self.ttl_max)
        )
        if None not in (self.ttl_min, self.ttl_max) and self.ttl_max < self.ttl_min:
            raise Refused(f"empty ttl range {self.ttl_min}-{self.ttl_max}")

    @property
    def constrains_fields(self) -> bool:
        return self.proto is not None or self.ttl_min is not None or self.ttl_max is not None


@dataclass(frozen=True, slots=True)
class JournalEntry:
    """One append-only event record; `subject` depends on the event kind.

    Filter events carry (src, dst), sign-on events the tried identifier,
    integrity alarms the file id.
    """

    seq: int
    event: JournalEvent
    subject: tuple[str, ...]


@dataclass(frozen=True)
class AdminAccount:
    identifier: str
    password: str

    def __post_init__(self):
        for name in ("identifier", "password"):
            refuse(type_problem(f"account {name}", getattr(self, name), str))


@dataclass(frozen=True)
class FileArtifact:
    """A monitored firewall file as loaded into the product."""

    file_id: str
    content: bytes

    def __post_init__(self):
        refuse(
            type_problem("file id", self.file_id, str),
            type_problem("file content", self.content, bytes),
        )


def digest(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


@dataclass(frozen=True)
class Mutation:
    """A byte edit applied to one monitored file.

    Kinds: ``flip`` XORs the byte at `offset`, ``append`` adds `data`,
    ``replace`` substitutes the whole content, ``none`` leaves it alone.
    """

    file_id: str
    kind: str
    offset: int = 0
    data: bytes = b""

    def __post_init__(self):
        refuse(
            self.kind not in ("none", "flip", "append", "replace")
            and f"unknown mutation kind {shown(self.kind)}",
            type_problem("mutation offset", self.offset, int),
            type_problem("mutation data", self.data, bytes),
        )

    def apply(self, content: bytes) -> bytes:
        if self.kind == "none":
            return content
        if self.kind == "flip":
            refuse(self.offset < 0 and f"flip offset {shown(self.offset)} is negative")
            if self.offset >= len(content):
                where = f"{shown(self.offset)} beyond end of {shown(self.file_id, str)}"
                raise Refused(f"flip offset {where} ({len(content)} bytes)")
            edited = bytearray(content)
            edited[self.offset] ^= 0xFF
            return bytes(edited)
        if self.kind == "append":
            return content + self.data
        return bytes(self.data)


class FaultName(Enum):
    INVERT_RULE = "invert_rule"
    IGNORE_FIELD = "ignore_field"
    SKIP_JOURNAL = "skip_journal"
    ACCEPT_ANY_PASSWORD = "accept_any_password"
    ACCEPT_UNKNOWN_ID = "accept_unknown_id"
    OMIT_AUTH_JOURNAL = "omit_auth_journal"
    BLIND_INTEGRITY = "blind_integrity"
    LEAK_CREDENTIALS = "leak_credentials"


# Faults that take a parameter: what it is, or the values it may take.
_FAULT_PARAMS: Mapping[FaultName, str | tuple[str, ...]] = {
    FaultName.INVERT_RULE: "rule index",
    FaultName.IGNORE_FIELD: ("link", "proto", "ttl"),
    FaultName.SKIP_JOURNAL: ("pass_allowed", "pass_denied"),
    FaultName.BLIND_INTEGRITY: "file id",
}


@dataclass(frozen=True)
class Fault:
    """One deliberate compliance defect, e.g. ``Fault.parse("invert_rule:0")``.

    A bad name or parameter is refused when the fault is built; whether
    the product has the rule or file it names is `fault_problem`'s question.
    """

    name: FaultName
    param: str | int | None = None

    def __post_init__(self):
        if not isinstance(self.name, FaultName):
            raise Refused(f"unknown fault: {shown(self.name)}")
        name, param = self.name.value, self.param
        kind = _FAULT_PARAMS.get(self.name)
        choices = kind if isinstance(kind, tuple) else ()
        kind = f"one of {listed(choices)}" if choices else kind
        typed = {FaultName.INVERT_RULE: int, FaultName.BLIND_INTEGRITY: str}.get(self.name)
        refuse(
            kind is None and param is not None and f"fault {name} takes no parameter",
            kind is not None and param in (None, "") and f"fault {name} needs a parameter ({kind})",
            typed and type_problem(f"{name} parameter", param, typed),
            choices and param not in choices and f"{name} parameter must be {kind}: {shown(param)}",
        )

    @classmethod
    def parse(cls, text: str) -> "Fault":
        head, sep, raw = text.partition(":")
        # An unknown name goes through as text, for the constructor to refuse.
        name = next((n for n in FaultName if n.value == head), head)
        param = raw if sep else None
        if name is FaultName.INVERT_RULE:
            with suppress(ValueError):  # plain decimal only, as spec_text writes it
                if str(int(raw)) == raw:
                    param = int(raw)
        return cls(name, param)

    def spec_text(self) -> str:
        return self.name.value if self.param is None else listed((self.name.value, self.param), ":")


# What the rule engine's faults do to the product's own copy of a rule.
_OPPOSITE = {RuleAction.ALLOW: RuleAction.DENY, RuleAction.DENY: RuleAction.ALLOW}
_UNCONSTRAINED = {
    "link": ("src_link", "dst_link"), "proto": ("proto",), "ttl": ("ttl_min", "ttl_max")
}


def fault_problem(
    fault: Fault, rule_count: int, file_ids: Collection[str], auth_mode: AuthMode | None
) -> str | None:
    """Why `fault` cannot apply to a product so configured, or None when it can."""
    name, param = fault.name, fault.param
    if name is FaultName.INVERT_RULE and not 0 <= param < rule_count:
        problem = f"rule index outside the {rule_count}-rule set"
    elif name is FaultName.BLIND_INTEGRITY and param not in file_ids:
        problem = f"unknown file {shown(param)}"
    elif name is FaultName.LEAK_CREDENTIALS and auth_mode is not AuthMode.REMOTE:
        problem = "needs remote sign-on mode"
    else:
        return None
    return f"fault {fault.spec_text()}: {problem}"


def duplicate_problem(noun: str, keys: Iterable[Hashable]) -> str | None:
    """``duplicate <noun>: …`` naming each key given more than once, or None."""
    keys = list(keys)
    dup = len(set(keys)) < len(keys) and sorted(k for k, n in Counter(keys).items() if n > 1)
    return f"duplicate {noun}: {listed(dup)}" if dup else None


def configuration_problems(
    rules: Iterable[FilterRule], accounts: Iterable[AdminAccount], files: Iterable[FileArtifact]
) -> list[str]:
    """Why two rules share an order, two accounts an identifier or two files an id."""
    found = (
        duplicate_problem("rule order(s)", (r.order for r in rules)),
        duplicate_problem("account identifier(s)", (a.identifier for a in accounts)),
        duplicate_problem("file id(s)", (f.file_id for f in files)),
    )
    return [problem for problem in found if problem]


class Firewall:
    """One compliant screening product instance; it carries no fault code.

    Single-threaded: the journal and file store are mutable.  Distinct
    instances are fully independent.  Every rule is exact on its (src,
    dst) address pair, so screening a packet scans only its pair's bucket
    of the order-sorted rules.  Sign-on, the console exchange and the
    integrity check each call one small step that `FaultyFirewall` overrides.
    """

    def __init__(
        self,
        rules: Sequence[FilterRule] = (),
        accounts: Sequence[AdminAccount] = (),
        files: Sequence[FileArtifact] = (),
        auth_mode: AuthMode = AuthMode.REMOTE,
        management: Address | None = None,
    ):
        refuse(*configuration_problems(rules, accounts, files))
        self.auth_mode = auth_mode
        self.management = management if management is not None else DEFAULT_MANAGEMENT
        # Screening's outcome by "an allow rule matched": (decision, event to journal or None).
        self._screened = (
            (Decision.DROPPED, JournalEvent.PASS_DENIED),
            (Decision.FORWARDED, JournalEvent.PASS_ALLOWED),
        )
        self._journal: list[JournalEntry] = []
        self._rules = tuple(sorted(rules, key=lambda r: r.order))
        self._buckets: dict[tuple[str, str], list[FilterRule]] = {}
        for rule in self._screening_rules():
            self._buckets.setdefault((rule.src, rule.dst), []).append(rule)
        self._accounts = tuple(accounts)
        self._files = {f.file_id: f.content for f in files}
        self._baselines: dict[str, str] | None = None
        self._auth_attempt_count = 0
        # Each remote sign-on's (request, reply) payloads, in attempt order.
        self.console_sent: list[tuple[bytes, bytes]] = []

    # -- configuration ----------------------------------------------------

    @property
    def files(self) -> dict[str, bytes]:
        """The current content of each monitored file, by file id."""
        return dict(self._files)

    # -- journal writing ---------------------------------------------------

    def _journal_event(self, event: JournalEvent, subject: tuple[str, ...]) -> None:
        self._journal.append(JournalEntry(len(self._journal) + 1, event, subject))

    # -- screening ---------------------------------------------------------

    def _screening_rules(self) -> Iterable[FilterRule]:
        """The rules screening indexes, in `order` order: the product's own copy."""
        return self._rules

    def filter_packet(self, packet: Packet) -> Decision:
        """Screen one packet: first matching rule wins, no match means drop.

        The decision depends only on the packet and the configured rules;
        every screened packet leaves a journal entry.
        """
        src, dst = packet.src, packet.dst
        pair = (src.net, dst.net)
        allowed = False
        # The address pair already matched: the rules come from its bucket.
        for rule in self._buckets.get(pair, ()):
            if (
                (rule.src_link is None or rule.src_link == src.link)
                and (rule.dst_link is None or rule.dst_link == dst.link)
                and (rule.proto is None or rule.proto == packet.proto)
                and (rule.ttl_min is None or rule.ttl_min <= packet.ttl)
                and (rule.ttl_max is None or packet.ttl <= rule.ttl_max)
            ):
                allowed = rule.action is RuleAction.ALLOW
                break
        decision, event = self._screened[allowed]
        if event is not None:
            journal = self._journal
            journal.append(JournalEntry(len(journal) + 1, event, pair))
        return decision

    # -- administrator sign-on ----------------------------------------------

    def _grants(self, identifier: str, password: str) -> bool:
        return any(a.identifier == identifier and a.password == password for a in self._accounts)

    def authenticate(self, identifier: str, password: str) -> int:
        """Try an administrator sign-on; returns 1 when access is granted.

        In remote mode the console exchange's payloads are kept in
        `console_sent`.  Rejection is a value, never an error.
        """
        attempt_index = self._auth_attempt_count
        self._auth_attempt_count += 1
        granted = self._grants(identifier, password)
        event = JournalEvent.AUTH_ACCEPTED if granted else JournalEvent.AUTH_REJECTED
        self._journal_event(event, (identifier,))
        if self.auth_mode is AuthMode.REMOTE:
            request = self._signon_request(attempt_index, identifier, password)
            reply = f"console-verdict attempt={attempt_index} {'granted' if granted else 'refused'}"
            self.console_sent.append((request.encode(), reply.encode()))
        return int(granted)

    def _signon_request(self, index: int, identifier: str, password: str) -> str:
        token = hashlib.sha256(f"{identifier}\x00{password}".encode()).hexdigest()[:16]
        return f"console-signon attempt={index} token={token}"

    # -- integrity control ---------------------------------------------------

    def activate_integrity(self) -> None:
        """Record the per-file baseline digests the later check compares against."""
        self._baselines = {fid: digest(content) for fid, content in self._files.items()}

    def modify_file(self, mutation: Mutation) -> None:
        """Apply one byte edit to the file it names; the baseline digest is left untouched."""
        file_id = mutation.file_id
        refuse(file_id not in self._files and f"no such monitored file: {shown(file_id, str)}")
        self._files[file_id] = mutation.apply(self._files[file_id])

    def _flags(self, file_id: str, content: bytes) -> bool:
        return digest(content) != self._baselines[file_id]

    def run_integrity_check(self) -> dict[str, int]:
        """Compare every file against its baseline; 1 means a violation was found.

        Each violation also leaves an alarm entry in the journal.
        """
        refuse(self._baselines is None and "integrity baselines were never recorded")
        report: dict[str, int] = {}
        for file_id, content in self._files.items():
            violated = self._flags(file_id, content)
            report[file_id] = int(violated)
            if violated:
                self._journal_event(JournalEvent.INTEGRITY_ALARM, (file_id,))
        return report

    # -- journal ---------------------------------------------------------------

    def export_journal(self) -> tuple[JournalEntry, ...]:
        """All entries in sequence order; the journal itself is untouched."""
        return tuple(self._journal)


class FaultyFirewall(Firewall):
    """A `Firewall` degraded by deliberate faults, for negative testing.

    Rule faults rewrite the order-sorted rules once, before indexing:
    `invert_rule:k` flips the action of the rule at position k, and
    `ignore_field:f` drops every rule's constraint on f.  `skip_journal`
    blanks events in the screening table, so screening reads no fault.
    Each other fault overrides one step of the mechanism it degrades.  A
    fault the configuration cannot take is refused with `fault_problem`'s
    text, after the compliant product's own configuration problems.
    """

    def __init__(self, *loaded, faults: Sequence[Fault] = (), **configured):
        faults = self.faults = tuple(faults)
        self._params = {f.name: {g.param for g in faults if g.name is f.name} for f in faults}
        super().__init__(*loaded, **configured)
        rule_count = len(self._rules)
        refuse(*(fault_problem(f, rule_count, self._files, self.auth_mode) for f in self.faults))
        skipped = self._params.get(FaultName.SKIP_JOURNAL, ())
        self._screened = tuple((d, None if e.value in skipped else e) for d, e in self._screened)

    def _screening_rules(self) -> Iterable[FilterRule]:
        inverted = self._params.get(FaultName.INVERT_RULE, ())
        fields = self._params.get(FaultName.IGNORE_FIELD, ())
        ignored = {name: None for field in fields for name in _UNCONSTRAINED[field]}
        for index, rule in enumerate(self._rules):
            changes = dict(ignored, action=_OPPOSITE[rule.action]) if index in inverted else ignored
            yield replace(rule, **changes) if changes else rule

    def _journal_event(self, event: JournalEvent, subject: tuple[str, ...]) -> None:
        if event not in AUTH_EVENTS or FaultName.OMIT_AUTH_JOURNAL not in self._params:
            super()._journal_event(event, subject)

    def _grants(self, identifier: str, password: str) -> bool:
        known = any(a.identifier == identifier for a in self._accounts)
        lax = FaultName.ACCEPT_ANY_PASSWORD if known else FaultName.ACCEPT_UNKNOWN_ID
        return lax in self._params or super()._grants(identifier, password)

    def _signon_request(self, index: int, identifier: str, password: str) -> str:
        if FaultName.LEAK_CREDENTIALS in self._params:
            return f"console-signon attempt={index} id={identifier} pwd={password}"
        return super()._signon_request(index, identifier, password)

    def _flags(self, file_id: str, content: bytes) -> bool:
        blind = self._params.get(FaultName.BLIND_INTEGRITY, ())
        return file_id not in blind and super()._flags(file_id, content)


def split_filter_journal(
    entries: Iterable[JournalEntry],
) -> tuple[tuple[JournalEntry, ...], tuple[JournalEntry, ...]]:
    """Partition journal entries into (allowed, denied) screening records, each in order."""
    entries = tuple(entries)
    events = [e.event for e in entries]
    allowed, denied = (
        tuple(compress(entries, [event is kind for event in events])) for kind in FILTER_EVENTS
    )
    return allowed, denied
