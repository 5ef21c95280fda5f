"""Simulated packet-screening product used as the system under test.

The firewall owns four mechanisms that the test procedures exercise: an
ordered first-match rule engine, an append-only event journal, an
administrator sign-on subsystem, and a file-integrity monitor.  A fault
layer can degrade any one mechanism to produce deliberately noncompliant
variants for negative testing.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Collection, Hashable, Iterable, Mapping, Sequence

from .errors import Refused, refuse

_MAC_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}")
# A canonical dotted quad: four octets 0-255 in ASCII digits, no leading zeros.
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_NET_RE = re.compile(rf"{_OCTET}(?:\.{_OCTET}){{3}}")
_FIELD_VALUES = frozenset(range(256)) | {None}  # a packet's proto or ttl; None: not given

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


@dataclass(frozen=True)
class Address:
    """A network address with an optional link-layer address.

    `net` must be a canonical dotted-quad string; `link` a colon-hex MAC,
    normalized to lower case.
    """

    net: str
    link: str | None = None

    def __post_init__(self):
        if not (isinstance(self.net, str) and _NET_RE.fullmatch(self.net)):
            raise ValueError(f"not a canonical dotted-quad network address: {self.net!r}")
        if self.link is not None:
            object.__setattr__(self, "link", link_address(self.link))


def link_address(text: str) -> str:
    """A colon-hex MAC address in lower case; ValueError when malformed."""
    low = text.lower()
    if not _MAC_RE.fullmatch(low):
        raise ValueError(f"bad link-layer address: {text!r}")
    return low


def normalize_links(record) -> None:
    """Check a frozen record's optional `src_link`/`dst_link`; store them lower-cased."""
    for name in ("src_link", "dst_link"):
        link = getattr(record, name)
        if link is not None:
            object.__setattr__(record, name, link_address(link))


# The product's management interface unless a scenario places it.
DEFAULT_MANAGEMENT = Address("198.18.0.1")


@dataclass(frozen=True)
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
        if not (0 <= self.proto <= 255 and 0 <= self.ttl <= 255):
            raise ValueError(packet_field_problem(self.proto, self.ttl))


def packet_field_problem(proto: int | None, ttl: int | None) -> str | None:
    """Why a packet's proto or ttl, where given, cannot be sent, or None."""
    if proto in _FIELD_VALUES and ttl in _FIELD_VALUES:
        return None
    given = (("proto", proto), ("ttl", ttl))
    return "; ".join(f"{k} out of range: {v}" for k, v in given if v not in _FIELD_VALUES)


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
        problem = packet_field_problem(self.proto, self.ttl_min) or packet_field_problem(
            None, self.ttl_max
        )
        if problem:
            raise ValueError(problem)
        if None not in (self.ttl_min, self.ttl_max) and self.ttl_max < self.ttl_min:
            raise ValueError(f"empty ttl range {self.ttl_min}-{self.ttl_max}")

    @property
    def constrains_fields(self) -> bool:
        return self.proto is not None or self.ttl_min is not None or self.ttl_max is not None


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FileArtifact:
    """A monitored firewall file as loaded into the product."""

    file_id: str
    content: bytes


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
        if self.kind not in ("none", "flip", "append", "replace"):
            raise ValueError(f"unknown mutation kind {self.kind!r}")

    def apply(self, content: bytes) -> bytes:
        if self.kind == "none":
            return content
        if self.kind == "flip":
            if self.offset < 0:
                raise ValueError(f"flip offset {self.offset} is negative")
            if self.offset >= len(content):
                raise ValueError(
                    f"flip offset {self.offset} beyond end of {self.file_id} ({len(content)} bytes)"
                )
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

    A bad parameter is refused when the fault is built; whether the
    product has the rule or file it names is `fault_problem`'s question.
    """

    name: FaultName
    param: str | int | None = None

    def __post_init__(self):
        if not isinstance(self.name, FaultName):
            raise ValueError(f"unknown fault: {self.name!r}")
        name, param = self.name.value, self.param
        kind = _FAULT_PARAMS.get(self.name)
        choices = kind if isinstance(kind, tuple) else None
        if choices is not None:
            kind = f"one of {', '.join(choices)}"
        if kind is None and param is not None:
            raise ValueError(f"fault {name} takes no parameter")
        if kind is not None and param in (None, ""):
            raise ValueError(f"fault {name} needs a parameter ({kind})")
        if self.name is FaultName.INVERT_RULE and type(param) is not int:
            raise ValueError(f"invert_rule parameter must be an integer: {param!r}")
        if self.name is FaultName.BLIND_INTEGRITY and not isinstance(param, str):
            raise ValueError(f"blind_integrity parameter must be a string: {param!r}")
        if choices is not None and param not in choices:
            raise ValueError(f"{name} parameter must be {kind}: {param!r}")

    @classmethod
    def parse(cls, text: str) -> "Fault":
        head, sep, raw = text.partition(":")
        try:
            name = FaultName(head)
        except ValueError:
            raise ValueError(f"unknown fault: {head!r}") from None
        param = raw if sep else None
        if name is FaultName.INVERT_RULE:
            with suppress(ValueError):  # plain decimal only, as spec_text writes it
                if str(int(raw)) == raw:
                    param = int(raw)
        return cls(name, param)

    def spec_text(self) -> str:
        if self.param is None:
            return self.name.value
        try:
            return f"{self.name.value}:{self.param}"
        except ValueError:  # an index past the interpreter's int-to-decimal limit
            sign = "-" * (self.param < 0)
            return f"{self.name.value}:{sign}<{self.param.bit_length()}-bit integer>"


# What the rule engine's faults do to the product's own copy of a rule.
_OPPOSITE = {RuleAction.ALLOW: RuleAction.DENY, RuleAction.DENY: RuleAction.ALLOW}
_UNCONSTRAINED = {
    "link": {"src_link": None, "dst_link": None},
    "proto": {"proto": None},
    "ttl": {"ttl_min": None, "ttl_max": None},
}


def fault_problem(
    fault: Fault, rule_count: int, file_ids: Collection[str], auth_mode: AuthMode | None
) -> str | None:
    """Why `fault` cannot apply to a product so configured, or None when it can."""
    name, param = fault.name, fault.param
    if name is FaultName.INVERT_RULE and not 0 <= param < rule_count:
        problem = f"rule index outside the {rule_count}-rule set"
    elif name is FaultName.BLIND_INTEGRITY and param not in file_ids:
        problem = f"unknown file {param!r}"
    elif name is FaultName.LEAK_CREDENTIALS and auth_mode is not AuthMode.REMOTE:
        problem = "needs remote sign-on mode"
    else:
        return None
    return f"fault {fault.spec_text()}: {problem}"


def repeated(items: Iterable[Hashable]) -> list:
    """The items that occur more than once, each listed once."""
    return [item for item, count in Counter(items).items() if count > 1]


def duplicate_problem(noun: str, keys: Iterable[Hashable]) -> str | None:
    """``duplicate <noun>: …`` naming each key given more than once, or None."""
    dup = sorted(repeated(keys))
    return f"duplicate {noun}: {', '.join(map(str, dup))}" if dup else None


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
    """One screening product instance.

    Single-threaded: the journal and file store are mutable.  Distinct
    instances are fully independent.

    Faults are built in when the product is made.  The rule engine's
    faults rewrite its own order-sorted copy of the rules: `invert_rule:k`
    gives the rule at position k of that list the opposite action, and
    `ignore_field:f` drops every rule's constraint on f.  Every rule is
    exact on its (src, dst) address pair, so the engine then keeps a pair
    index of the rewritten rules, each bucket in `order` order, and
    screening a packet scans only its pair's bucket and reads no fault.
    The journal's faults become the set of event kinds it drops, and the
    other mechanisms look theirs up in one map from fault name to
    parameters.  A fault that names a rule or file the product lacks, or
    leaks credentials from a product with local sign-on, is refused with
    `fault_problem`'s text.
    """

    def __init__(
        self,
        rules: Sequence[FilterRule] = (),
        accounts: Sequence[AdminAccount] = (),
        files: Sequence[FileArtifact] = (),
        auth_mode: AuthMode = AuthMode.REMOTE,
        management: Address | None = None,
        faults: Sequence[Fault] = (),
    ):
        self.auth_mode = auth_mode
        self.management = management if management is not None else DEFAULT_MANAGEMENT
        self.faults = tuple(faults)
        self._fault_params: dict[FaultName, set] = {}
        for fault in self.faults:
            self._fault_params.setdefault(fault.name, set()).add(fault.param)
        skipped = self._fault_params.get(FaultName.SKIP_JOURNAL, ())
        self._unjournaled = frozenset(e for e in FILTER_EVENTS if e.value in skipped)
        if FaultName.OMIT_AUTH_JOURNAL in self._fault_params:
            self._unjournaled |= frozenset(AUTH_EVENTS)
        file_ids = {f.file_id for f in files}
        refuse(
            *configuration_problems(rules, accounts, files),
            *(fault_problem(fault, len(rules), file_ids, auth_mode) for fault in self.faults),
        )
        self._journal: list[JournalEntry] = []
        inverted = self._fault_params.get(FaultName.INVERT_RULE, ())
        ignored = {}
        for field in self._fault_params.get(FaultName.IGNORE_FIELD, ()):
            ignored.update(_UNCONSTRAINED[field])
        self._buckets: dict[tuple[str, str], list[FilterRule]] = {}
        for index, rule in enumerate(sorted(rules, key=lambda r: r.order)):
            if index in inverted:
                rule = replace(rule, action=_OPPOSITE[rule.action])
            if ignored:
                rule = replace(rule, **ignored)
            self._buckets.setdefault((rule.src, rule.dst), []).append(rule)
        self._accounts = tuple(accounts)
        self._files = {f.file_id: f.content for f in files}
        self._baselines: dict[str, str] | None = None
        self._auth_attempt_count = 0
        # Wired up by the testbench so remote sign-on traffic lands on a tap:
        # (packet sink, tag source, console address).
        self._console: tuple[Callable, Callable, Address] | None = None

    # -- configuration ----------------------------------------------------

    @property
    def files(self) -> dict[str, bytes]:
        """The current content of each monitored file, by file id."""
        return dict(self._files)

    def connect_console(
        self,
        sink: Callable[[Packet], None],
        make_tag: Callable[[], int],
        console: Address,
    ) -> None:
        self._console = (sink, make_tag, console)

    # -- journal writing ---------------------------------------------------

    def _journal_event(self, event: JournalEvent, subject: tuple[str, ...]) -> None:
        if event in self._unjournaled:
            return
        self._journal.append(JournalEntry(len(self._journal) + 1, event, subject))

    # -- screening ---------------------------------------------------------

    def _fields_match(self, rule: FilterRule, packet: Packet) -> bool:
        # The address pair already matched: the rule came from its bucket.
        if rule.src_link is not None and rule.src_link != packet.src.link:
            return False
        if rule.dst_link is not None and rule.dst_link != packet.dst.link:
            return False
        if rule.proto is not None and rule.proto != packet.proto:
            return False
        if rule.ttl_min is not None and packet.ttl < rule.ttl_min:
            return False
        if rule.ttl_max is not None and packet.ttl > rule.ttl_max:
            return False
        return True

    def filter_packet(self, packet: Packet) -> Decision:
        """Screen one packet: first matching rule wins, no match means drop.

        The decision depends only on the packet and the configured rules;
        every screened packet leaves a journal entry.
        """
        action = None
        for rule in self._buckets.get((packet.src.net, packet.dst.net), ()):
            if self._fields_match(rule, packet):
                action = rule.action
                break
        decision = Decision.FORWARDED if action is RuleAction.ALLOW else Decision.DROPPED
        event = (
            JournalEvent.PASS_ALLOWED
            if decision is Decision.FORWARDED
            else JournalEvent.PASS_DENIED
        )
        self._journal_event(event, (packet.src.net, packet.dst.net))
        return decision

    # -- administrator sign-on ----------------------------------------------

    def authenticate(self, identifier: str, password: str) -> int:
        """Try an administrator sign-on; returns 1 when access is granted.

        In remote mode the console exchange is put on the internal segment
        as capturable packets.  Rejection is a value, never an error.
        """
        attempt_index = self._auth_attempt_count
        self._auth_attempt_count += 1
        granted = any(
            a.identifier == identifier and a.password == password for a in self._accounts
        )
        known_id = any(a.identifier == identifier for a in self._accounts)
        if FaultName.ACCEPT_ANY_PASSWORD in self._fault_params and known_id:
            granted = True
        if FaultName.ACCEPT_UNKNOWN_ID in self._fault_params and not known_id:
            granted = True
        event = JournalEvent.AUTH_ACCEPTED if granted else JournalEvent.AUTH_REJECTED
        self._journal_event(event, (identifier,))
        if self.auth_mode is AuthMode.REMOTE:
            self._emit_exchange(attempt_index, identifier, password, granted)
        return int(granted)

    def _emit_exchange(self, index: int, identifier: str, password: str, granted: bool) -> None:
        if self._console is None:  # no bench connected: the exchange goes nowhere
            return
        sink, make_tag, console = self._console
        if FaultName.LEAK_CREDENTIALS in self._fault_params:
            request = f"console-signon attempt={index} id={identifier} pwd={password}"
        else:
            token = hashlib.sha256(f"{identifier}\x00{password}".encode()).hexdigest()[:16]
            request = f"console-signon attempt={index} token={token}"
        reply = f"console-verdict attempt={index} {'granted' if granted else 'refused'}"
        for src, dst, text in (
            (console, self.management, request),
            (self.management, console, reply),
        ):
            packet = Packet(
                src=src,
                dst=dst,
                proto=99,
                ttl=DEFAULT_TTL,
                payload_tag=make_tag(),
                payload=text.encode(),
                ingress=Segment.INTERNAL,
            )
            sink(packet)

    # -- integrity control ---------------------------------------------------

    def activate_integrity(self) -> None:
        """Record the per-file baseline digests the later check compares against."""
        self._baselines = {fid: digest(content) for fid, content in self._files.items()}

    def modify_file(self, file_id: str, mutation: Mutation) -> None:
        """Apply one byte edit; the baseline digest is left untouched."""
        if file_id not in self._files:
            raise Refused(f"no such monitored file: {file_id}")
        self._files[file_id] = mutation.apply(self._files[file_id])

    def run_integrity_check(self) -> dict[str, int]:
        """Compare every file against its baseline; 1 means a violation was found.

        Each violation also leaves an alarm entry in the journal.
        """
        if self._baselines is None:
            raise Refused("integrity baselines were never recorded")
        blind = self._fault_params.get(FaultName.BLIND_INTEGRITY, ())
        report: dict[str, int] = {}
        for file_id, content in self._files.items():
            violated = file_id not in blind and digest(content) != self._baselines[file_id]
            report[file_id] = int(violated)
            if violated:
                self._journal_event(JournalEvent.INTEGRITY_ALARM, (file_id,))
        return report

    # -- journal ---------------------------------------------------------------

    def export_journal(self) -> tuple[JournalEntry, ...]:
        """All entries in sequence order; the journal itself is untouched."""
        return tuple(self._journal)


def split_filter_journal(
    entries: Iterable[JournalEntry],
) -> tuple[tuple[JournalEntry, ...], tuple[JournalEntry, ...]]:
    """Partition journal entries into (allowed, denied) screening records."""
    allowed = tuple(e for e in entries if e.event is JournalEvent.PASS_ALLOWED)
    denied = tuple(e for e in entries if e.event is JournalEvent.PASS_DENIED)
    return allowed, denied
