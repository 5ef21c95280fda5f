"""Simulated packet-screening product used as the system under test.

The firewall owns four mechanisms that the test procedures exercise: an
ordered first-match rule engine, an append-only event journal, an
administrator sign-on subsystem, and a file-integrity monitor.  A fault
layer can degrade any one mechanism to produce deliberately noncompliant
variants for negative testing.
"""

from __future__ import annotations

import hashlib
import ipaddress
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InapplicableFault, MechanismInactive, UnknownFile

_MAC_RE = re.compile(r"[0-9a-f]{2}(:[0-9a-f]{2}){5}")

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
        parsed = ipaddress.IPv4Address(self.net)
        if str(parsed) != self.net:
            raise ValueError(f"non-canonical network address: {self.net!r}")
        if self.link is not None:
            low = self.link.lower()
            if not _MAC_RE.fullmatch(low):
                raise ValueError(f"bad link-layer address: {self.link!r}")
            object.__setattr__(self, "link", low)


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
        if not 0 <= self.proto <= 255:
            raise ValueError(f"proto out of range: {self.proto}")
        if not 0 <= self.ttl <= 255:
            raise ValueError(f"ttl out of range: {self.ttl}")


@dataclass(frozen=True)
class FilterRule:
    """An ordered allow/deny rule over one (sender, recipient) address pair.

    The optional link/proto/ttl constraints narrow the match; an unset
    constraint matches anything.
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

    @property
    def constrains_fields(self) -> bool:
        return self.proto is not None or self.ttl_min is not None or self.ttl_max is not None

    @property
    def constrains_link(self) -> bool:
        return self.src_link is not None or self.dst_link is not None


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


@dataclass
class FileArtifact:
    """A monitored firewall file; the baseline digest is set on activation."""

    file_id: str
    content: bytes
    baseline_digest: str | None = None


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

    def apply(self, content: bytes) -> bytes:
        if self.kind == "none":
            return content
        if self.kind == "flip":
            if self.offset >= len(content):
                raise ValueError(
                    f"flip offset {self.offset} beyond end of {self.file_id} ({len(content)} bytes)"
                )
            edited = bytearray(content)
            edited[self.offset] ^= 0xFF
            return bytes(edited)
        if self.kind == "append":
            return content + self.data
        if self.kind == "replace":
            return bytes(self.data)
        raise ValueError(f"unknown mutation kind: {self.kind!r}")


class FaultName(Enum):
    INVERT_RULE = "invert_rule"
    IGNORE_FIELD = "ignore_field"
    SKIP_JOURNAL = "skip_journal"
    ACCEPT_ANY_PASSWORD = "accept_any_password"
    ACCEPT_UNKNOWN_ID = "accept_unknown_id"
    OMIT_AUTH_JOURNAL = "omit_auth_journal"
    BLIND_INTEGRITY = "blind_integrity"
    LEAK_CREDENTIALS = "leak_credentials"


# Faults that take a parameter, and what the parameter may be.
_FAULT_PARAMS: Mapping[FaultName, str] = {
    FaultName.INVERT_RULE: "rule index",
    FaultName.IGNORE_FIELD: "one of link, proto, ttl",
    FaultName.SKIP_JOURNAL: "one of pass_allowed, pass_denied",
    FaultName.BLIND_INTEGRITY: "file id",
}
_IGNORABLE_FIELDS = ("link", "proto", "ttl")
_SKIPPABLE_EVENTS = ("pass_allowed", "pass_denied")


@dataclass(frozen=True)
class Fault:
    """One deliberate compliance defect, e.g. ``Fault.parse("invert_rule:0")``."""

    name: FaultName
    param: str | int | None = None

    @classmethod
    def parse(cls, text: str) -> "Fault":
        head, sep, raw = text.partition(":")
        try:
            name = FaultName(head)
        except ValueError:
            raise ValueError(f"unknown fault: {head!r}") from None
        if name not in _FAULT_PARAMS:
            if sep:
                raise ValueError(f"fault {head} takes no parameter")
            return cls(name)
        if not sep or not raw:
            raise ValueError(f"fault {head} needs a parameter ({_FAULT_PARAMS[name]})")
        if name is FaultName.INVERT_RULE:
            try:
                return cls(name, int(raw))
            except ValueError:
                raise ValueError(f"invert_rule parameter must be an integer: {raw!r}") from None
        if name is FaultName.IGNORE_FIELD and raw not in _IGNORABLE_FIELDS:
            raise ValueError(f"ignore_field parameter must be {_FAULT_PARAMS[name]}: {raw!r}")
        if name is FaultName.SKIP_JOURNAL and raw not in _SKIPPABLE_EVENTS:
            raise ValueError(f"skip_journal parameter must be {_FAULT_PARAMS[name]}: {raw!r}")
        return cls(name, raw)

    def spec_text(self) -> str:
        if self.param is None:
            return self.name.value
        return f"{self.name.value}:{self.param}"


class Firewall:
    """One screening product instance.

    Single-threaded: the journal and file store are mutable.  Distinct
    instances are fully independent.

    Every rule is exact on its (src, dst) address pair, so the rule engine
    keeps a pair index: each pair maps to its rules in `order` order, each
    tagged with its position in the whole order-sorted list.  Screening a
    packet scans only its pair's bucket, and a fault that names a rule
    index (`invert_rule`) still means that global position.  The faults
    are fixed at construction, so the sets the hot paths consult are
    worked out once there.
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
        self.management = management if management is not None else Address("198.18.0.1")
        self.faults = tuple(faults)
        self._ignored_fields = frozenset(
            str(f.param) for f in self.faults if f.name is FaultName.IGNORE_FIELD
        )
        self._inverted_rules = frozenset(
            f.param for f in self.faults if f.name is FaultName.INVERT_RULE
        )
        skipped = {f.param for f in self.faults if f.name is FaultName.SKIP_JOURNAL}
        self._unjournaled = frozenset(e for e in FILTER_EVENTS if e.value in skipped)
        if self._has_fault(FaultName.OMIT_AUTH_JOURNAL):
            self._unjournaled |= frozenset(AUTH_EVENTS)
        self._journal: list[JournalEntry] = []
        self._seq = 0
        self.set_rules(rules)
        self._accounts: tuple[AdminAccount, ...] = ()
        self.activate_auth(accounts)
        self._files: dict[str, FileArtifact] = {}
        for artifact in files:
            if artifact.file_id in self._files:
                raise ValueError(f"duplicate file id: {artifact.file_id}")
            self._files[artifact.file_id] = FileArtifact(
                artifact.file_id, bytes(artifact.content), artifact.baseline_digest
            )
        self._baselines_recorded = False
        self._auth_attempt_count = 0
        # Wired up by the testbench so remote sign-on traffic lands on a tap.
        self._console_sink: Callable[[Packet, int], None] | None = None
        self._console_tag: Callable[[], int] | None = None
        self._console_addr: Address | None = None

    # -- configuration ----------------------------------------------------

    def set_rules(self, rules: Sequence[FilterRule]) -> None:
        ordered = sorted(rules, key=lambda r: r.order)
        orders = [r.order for r in ordered]
        if len(set(orders)) != len(orders):
            raise ValueError("rule orders must be unique")
        self._rules = tuple(ordered)
        buckets: dict[tuple[str, str], list[tuple[int, FilterRule]]] = {}
        for index, rule in enumerate(ordered):
            buckets.setdefault((rule.src, rule.dst), []).append((index, rule))
        self._buckets = buckets

    @property
    def rules(self) -> tuple[FilterRule, ...]:
        return self._rules

    def activate_auth(self, accounts: Sequence[AdminAccount]) -> None:
        ids = [a.identifier for a in accounts]
        if len(set(ids)) != len(ids):
            raise ValueError("administrator identifiers must be unique")
        self._accounts = tuple(accounts)

    @property
    def accounts(self) -> tuple[AdminAccount, ...]:
        return self._accounts

    @property
    def files(self) -> dict[str, FileArtifact]:
        return dict(self._files)

    def connect_console(
        self,
        sink: Callable[[Packet, int], None],
        make_tag: Callable[[], int],
        console: Address,
    ) -> None:
        self._console_sink = sink
        self._console_tag = make_tag
        self._console_addr = console

    # -- fault plumbing ----------------------------------------------------

    def _has_fault(self, name: FaultName, param=None) -> bool:
        return any(f.name is name and (param is None or f.param == param) for f in self.faults)

    def _journal_event(self, event: JournalEvent, subject: tuple[str, ...]) -> None:
        if event in self._unjournaled:
            return
        self._seq += 1
        self._journal.append(JournalEntry(self._seq, event, subject))

    # -- screening ---------------------------------------------------------

    def _fields_match(self, rule: FilterRule, packet: Packet) -> bool:
        # The address pair already matched: the rule came from its bucket.
        ignored = self._ignored_fields
        if "link" not in ignored:
            if rule.src_link is not None and rule.src_link != packet.src.link:
                return False
            if rule.dst_link is not None and rule.dst_link != packet.dst.link:
                return False
        if "proto" not in ignored:
            if rule.proto is not None and rule.proto != packet.proto:
                return False
        if "ttl" not in ignored:
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
        for index, rule in self._buckets.get((packet.src.net, packet.dst.net), ()):
            if self._fields_match(rule, packet):
                action = rule.action
                if index in self._inverted_rules:
                    action = (
                        RuleAction.DENY if action is RuleAction.ALLOW else RuleAction.ALLOW
                    )
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
        if self._has_fault(FaultName.ACCEPT_ANY_PASSWORD) and known_id:
            granted = True
        if self._has_fault(FaultName.ACCEPT_UNKNOWN_ID) and not known_id:
            granted = True
        event = JournalEvent.AUTH_ACCEPTED if granted else JournalEvent.AUTH_REJECTED
        self._journal_event(event, (identifier,))
        if self.auth_mode is AuthMode.REMOTE:
            self._emit_exchange(attempt_index, identifier, password, granted)
        return int(granted)

    def _emit_exchange(self, index: int, identifier: str, password: str, granted: bool) -> None:
        if self._console_sink is None or self._console_tag is None:
            return
        console = self._console_addr
        if console is None:
            return
        if self._has_fault(FaultName.LEAK_CREDENTIALS):
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
                payload_tag=self._console_tag(),
                payload=text.encode(),
                ingress=Segment.INTERNAL,
            )
            self._console_sink(packet, index)

    # -- integrity control ---------------------------------------------------

    def activate_integrity(self) -> None:
        """Record the per-file baseline digests the later check compares against."""
        for artifact in self._files.values():
            artifact.baseline_digest = digest(artifact.content)
        self._baselines_recorded = True

    def modify_file(self, file_id: str, mutation: Mutation) -> FileArtifact:
        """Apply one byte edit; the baseline digest is left untouched."""
        if file_id not in self._files:
            raise UnknownFile(f"no such monitored file: {file_id}")
        artifact = self._files[file_id]
        artifact.content = mutation.apply(artifact.content)
        return artifact

    def run_integrity_check(self) -> dict[str, int]:
        """Compare every file against its baseline; 1 means a violation was found.

        Each violation also leaves an alarm entry in the journal.
        """
        if not self._baselines_recorded:
            raise MechanismInactive("integrity baselines were never recorded")
        report: dict[str, int] = {}
        for file_id, artifact in self._files.items():
            violated = digest(artifact.content) != artifact.baseline_digest
            if violated and self._has_fault(FaultName.BLIND_INTEGRITY, file_id):
                violated = False
            report[file_id] = int(violated)
            if violated:
                self._journal_event(JournalEvent.INTEGRITY_ALARM, (file_id,))
        return report

    # -- journal ---------------------------------------------------------------

    def export_journal(self) -> tuple[JournalEntry, ...]:
        """All entries in sequence order; the journal itself is untouched."""
        return tuple(self._journal)

    def clone(self, extra_faults: Iterable[Fault] = ()) -> "Firewall":
        copy = Firewall(
            rules=self._rules,
            accounts=self._accounts,
            files=[
                FileArtifact(a.file_id, bytes(a.content), a.baseline_digest)
                for a in self._files.values()
            ],
            auth_mode=self.auth_mode,
            management=self.management,
            faults=tuple(self.faults) + tuple(extra_faults),
        )
        copy._baselines_recorded = self._baselines_recorded
        copy._journal = list(self._journal)
        copy._seq = self._seq
        copy._auth_attempt_count = self._auth_attempt_count
        return copy


def split_filter_journal(
    entries: Iterable[JournalEntry],
) -> tuple[tuple[JournalEntry, ...], tuple[JournalEntry, ...]]:
    """Partition journal entries into (allowed, denied) screening records."""
    allowed = tuple(e for e in entries if e.event is JournalEvent.PASS_ALLOWED)
    denied = tuple(e for e in entries if e.event is JournalEvent.PASS_DENIED)
    return allowed, denied


def inject_fault(fw: Firewall, fault: Fault) -> Firewall:
    """Return a copy of `fw` degraded by exactly one fault variant.

    The copy is otherwise identical, including journal state and baselines.
    """
    if fault.name is FaultName.INVERT_RULE:
        if not isinstance(fault.param, int) or not 0 <= fault.param < len(fw.rules):
            raise InapplicableFault(
                f"invert_rule index {fault.param!r} outside the {len(fw.rules)}-rule set"
            )
    elif fault.name is FaultName.IGNORE_FIELD:
        if fault.param not in _IGNORABLE_FIELDS:
            raise InapplicableFault(f"ignore_field cannot target {fault.param!r}")
    elif fault.name is FaultName.SKIP_JOURNAL:
        if fault.param not in _SKIPPABLE_EVENTS:
            raise InapplicableFault(f"skip_journal cannot target {fault.param!r}")
    elif fault.name is FaultName.BLIND_INTEGRITY:
        if fault.param not in fw.files:
            raise InapplicableFault(f"blind_integrity names unknown file {fault.param!r}")
    elif fault.name is FaultName.LEAK_CREDENTIALS:
        if fw.auth_mode is not AuthMode.REMOTE:
            raise InapplicableFault("leak_credentials needs remote sign-on mode")
    return fw.clone(extra_faults=(fault,))
