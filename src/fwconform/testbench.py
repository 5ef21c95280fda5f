"""Two-segment bench that drives procedures against a simulated firewall.

The bench models the standard desk setup: an outside segment with probe
senders, a protected inside segment with receivers and the management
console, and the product under test between them.  A tap on the inside
segment records everything the product lets through, which is what the
verdict stage compares against the rule set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from itertools import product
from typing import Iterable, Mapping, Sequence

from .errors import (
    EmptySegment,
    InapplicableRule,
    InsufficientAttemptCoverage,
    OverlappingSegments,
    UnknownHost,
)
from .firewall import (
    DEFAULT_PROTO,
    DEFAULT_TTL,
    AdminAccount,
    Address,
    AuthMode,
    Decision,
    Fault,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEntry,
    Mutation,
    Packet,
    Segment,
    digest,
    split_filter_journal,
)


class FilterLevel(Enum):
    """Granularity at which a screening procedure compares traffic to rules."""

    NETWORK = "network"
    LINK = "link"
    FIELDS = "fields"


@dataclass(frozen=True)
class Host:
    name: str
    address: Address


@dataclass(frozen=True)
class TrafficSpec:
    """One requested probe packet, by host name, with optional field overrides."""

    src: str
    dst: str
    proto: int | None = None
    ttl: int | None = None
    src_link: str | None = None
    dst_link: str | None = None


class Testbench:
    """Mutable bench state: hosts, the product, taps, and the probe RNG."""

    def __init__(
        self,
        external: Sequence[Host],
        internal: Sequence[Host],
        fw: Firewall,
        seed: int = 0,
    ):
        self.external = tuple(external)
        self.internal = tuple(internal)
        # Reversed so that, as in a front-to-back scan, the first host of a name wins.
        self._hosts = {h.name: h for h in reversed(self.external + self.internal)}
        self.fw = fw
        self.taps: dict[Segment, list[Packet]] = {
            Segment.EXTERNAL: [],
            Segment.INTERNAL: [],
        }
        self.capturing = True
        self.rng = random.Random(seed)
        self._tag = 0
        self._console_attempts: dict[int, int] = {}
        fw.connect_console(self._console_sink, self._next_tag, self.internal[0].address)

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def _console_sink(self, packet: Packet, attempt_index: int) -> None:
        if self.capturing:
            self.taps[Segment.INTERNAL].append(packet)
            self._console_attempts[packet.payload_tag] = attempt_index

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise UnknownHost(f"no host named {name!r} on the bench") from None

    def reset_taps(self) -> None:
        self.taps[Segment.EXTERNAL].clear()
        self.taps[Segment.INTERNAL].clear()
        self._console_attempts.clear()


def build_testbench(
    external: Sequence[Host],
    internal: Sequence[Host],
    rules: Sequence[FilterRule] = (),
    accounts: Sequence[AdminAccount] = (),
    files: Sequence[FileArtifact] = (),
    auth_mode: AuthMode = AuthMode.REMOTE,
    management: Address | None = None,
    faults: Sequence = (),
    seed: int = 0,
) -> Testbench:
    """Assemble the two segments around a freshly configured product."""
    if not external:
        raise EmptySegment("outside segment has no hosts")
    if not internal:
        raise EmptySegment("protected segment has no hosts")
    names = [h.name for h in external] + [h.name for h in internal]
    if len(set(names)) != len(names):
        raise ValueError("host names must be unique across the bench")
    shared = {h.address.net for h in external} & {h.address.net for h in internal}
    if shared:
        raise OverlappingSegments(
            f"addresses on both segments: {', '.join(sorted(shared))}"
        )
    fw = Firewall(
        rules=rules,
        accounts=accounts,
        files=files,
        auth_mode=auth_mode,
        management=management,
        faults=[Fault.parse(f) if isinstance(f, str) else f for f in faults],
    )
    return Testbench(external, internal, fw, seed=seed)


def _build_packet(bench: Testbench, spec: TrafficSpec) -> Packet:
    src = bench.host(spec.src)
    dst = bench.host(spec.dst)
    src_addr = src.address
    dst_addr = dst.address
    if spec.src_link is not None:
        src_addr = Address(src_addr.net, spec.src_link)
    if spec.dst_link is not None:
        dst_addr = Address(dst_addr.net, spec.dst_link)
    tag = bench._next_tag()
    filler = f"{bench.rng.getrandbits(32):08x}"
    return Packet(
        src=src_addr,
        dst=dst_addr,
        proto=spec.proto if spec.proto is not None else DEFAULT_PROTO,
        ttl=spec.ttl if spec.ttl is not None else DEFAULT_TTL,
        payload_tag=tag,
        payload=f"pkt:{tag}:{filler}".encode(),
        ingress=Segment.EXTERNAL,
    )


def generate_packets(
    bench: Testbench, traffic: Sequence[TrafficSpec] | None = None
) -> tuple[Packet, ...]:
    """Emit the probe traffic for one screening run.

    Without an explicit traffic list this is one packet per
    outside-to-inside host pair, in topology order, with default field
    values; an explicit list replaces that entirely.  Each packet lands
    on the outside tap, is offered to the product, and lands on the
    inside tap too when it comes through.  The medium itself never
    loses, reorders or duplicates anything.
    """
    if traffic is None:
        traffic = [
            TrafficSpec(s.name, d.name)
            for s, d in product(bench.external, bench.internal)
        ]
    packets = []
    for spec in traffic:
        packet = _build_packet(bench, spec)
        packets.append(packet)
        if bench.capturing:
            bench.taps[Segment.EXTERNAL].append(packet)
        decision = bench.fw.filter_packet(packet)
        if decision is Decision.FORWARDED and bench.capturing:
            bench.taps[Segment.INTERNAL].append(packet)
    return tuple(packets)


@dataclass(frozen=True)
class FilterEvidence:
    """Everything the screening verdict needs: traffic in, traffic out, journal."""

    level: FilterLevel
    rules: tuple[FilterRule, ...]
    packet_in: tuple[Packet, ...]
    packet_out: tuple[Packet, ...]
    journal_allowed: tuple[JournalEntry, ...]
    journal_denied: tuple[JournalEntry, ...]


def run_filter_procedure(
    bench: Testbench,
    rules: Sequence[FilterRule],
    level: FilterLevel = FilterLevel.NETWORK,
    traffic: Sequence[TrafficSpec] | None = None,
) -> FilterEvidence:
    """Load the rule set, replay probe traffic, and collect the evidence.

    Link-level runs need every bench host to carry a link address;
    field-level runs need at least one rule that actually constrains a
    field, otherwise the run could not distinguish the claim from plain
    address screening.
    """
    ordered = sorted(rules, key=lambda r: r.order)
    if level is FilterLevel.LINK:
        bare = [h.name for h in bench.external + bench.internal if h.address.link is None]
        if bare:
            raise InapplicableRule(
                f"link-level run but hosts without link addresses: {', '.join(bare)}"
            )
    if level is FilterLevel.FIELDS and not any(r.constrains_fields for r in ordered):
        raise InapplicableRule("field-level run but no rule constrains proto or ttl")
    bench.fw.set_rules(ordered)
    bench.reset_taps()
    mark = len(bench.fw.export_journal())
    generate_packets(bench, traffic)
    run_journal = bench.fw.export_journal()[mark:]
    allowed, denied = split_filter_journal(run_journal)
    return FilterEvidence(
        level=level,
        rules=tuple(ordered),
        packet_in=tuple(bench.taps[Segment.EXTERNAL]),
        packet_out=tuple(bench.taps[Segment.INTERNAL]),
        journal_allowed=allowed,
        journal_denied=denied,
    )


@dataclass(frozen=True)
class AuthAttemptResult:
    identifier: str
    password: str
    granted: int


@dataclass(frozen=True)
class CredentialFinding:
    """One credential string spotted in the clear on a captured packet."""

    attempt_index: int
    account_id: str
    piece: str
    payload_tag: int


@dataclass(frozen=True)
class AuthEvidence:
    mode: AuthMode
    accounts: tuple[AdminAccount, ...]
    attempts: tuple[AuthAttemptResult, ...]
    probes: tuple[tuple[str, str, str, str], ...]
    captures: tuple[Packet, ...]
    journal: tuple[JournalEntry, ...]
    findings: tuple[CredentialFinding, ...]


def _fresh_string(base: str, taken: set[str]) -> str:
    candidate = base
    while candidate in taken:
        candidate += "-x"
    return candidate


def _default_attempts(accounts: Sequence[AdminAccount]) -> list[tuple[str, str]]:
    first = accounts[0]
    ids = {a.identifier for a in accounts}
    pwds = {a.password for a in accounts}
    bad_id = _fresh_string("outsider", ids)
    bad_pwd = _fresh_string("open-sesame", pwds)
    return [
        (first.identifier, first.password),
        (first.identifier, bad_pwd),
        (bad_id, first.password),
        (bad_id, bad_pwd),
        (first.identifier, first.password),
    ]


def _check_attempt_coverage(
    attempts: Sequence[tuple[str, str]], accounts: Sequence[AdminAccount]
) -> None:
    # All four (identifier registered?, password registered?) combinations
    # must be tried, or acceptance/rejection cannot be told apart from luck.
    ids = {a.identifier for a in accounts}
    pwds = {a.password for a in accounts}
    seen = {(identifier in ids, password in pwds) for identifier, password in attempts}
    missing = [
        f"{'registered' if ki else 'unregistered'} identifier with "
        f"{'registered' if kp else 'unregistered'} password"
        for ki, kp in product((True, False), repeat=2)
        if (ki, kp) not in seen
    ]
    if missing:
        raise InsufficientAttemptCoverage("; ".join(missing))


def _screening_probes(bench: Testbench, stage: str) -> list[tuple[str, str, str, str]]:
    # One packet per first allow/deny rule, to show the product keeps
    # screening while sign-on sessions are open; forwarded probes land on
    # the inside tap like any other delivered traffic.
    probes = []
    rules = bench.fw.rules
    for wanted in ("allow", "deny"):
        rule = next((r for r in rules if r.action.value == wanted), None)
        if rule is None:
            continue
        packet = Packet(
            src=Address(rule.src, rule.src_link),
            dst=Address(rule.dst, rule.dst_link),
            proto=rule.proto if rule.proto is not None else DEFAULT_PROTO,
            ttl=rule.ttl_min if rule.ttl_min is not None else DEFAULT_TTL,
            payload_tag=bench._next_tag(),
            payload=b"probe",
            ingress=Segment.EXTERNAL,
        )
        decision = bench.fw.filter_packet(packet)
        if decision is Decision.FORWARDED and bench.capturing:
            bench.taps[Segment.INTERNAL].append(packet)
        probes.append((stage, rule.src, rule.dst, decision.value))
    return probes


def run_auth_procedure(
    bench: Testbench,
    accounts: Sequence[AdminAccount] | None = None,
    attempts: Sequence[tuple[str, str]] | None = None,
) -> AuthEvidence:
    """Register accounts, try sign-ons around screening probes, capture, journal.

    The default attempt list tries the first account's credentials straight,
    then each of the three ways to get them wrong, then a repeat sign-on.
    The screening probes before and after the attempts only document that
    the product keeps screening while a session is open; they carry no
    acceptance weight.
    """
    if accounts is not None:
        bench.fw.activate_auth(accounts)
    registered = bench.fw.accounts
    if not registered:
        raise InsufficientAttemptCoverage("no administrator accounts registered")
    tried = list(attempts) if attempts is not None else _default_attempts(registered)
    _check_attempt_coverage(tried, registered)
    mode = bench.fw.auth_mode
    bench.reset_taps()
    bench.capturing = mode is AuthMode.REMOTE
    mark = len(bench.fw.export_journal())
    probes = _screening_probes(bench, "before")
    results = tuple(
        AuthAttemptResult(identifier, password, bench.fw.authenticate(identifier, password))
        for identifier, password in tried
    )
    probes += _screening_probes(bench, "after")
    journal = bench.fw.export_journal()[mark:]
    captures = tuple(bench.taps[Segment.INTERNAL]) if mode is AuthMode.REMOTE else ()
    findings = scan_for_plaintext_credentials(captures, registered, bench._console_attempts)
    bench.capturing = True
    return AuthEvidence(
        mode=mode,
        accounts=tuple(registered),
        attempts=results,
        probes=tuple(probes),
        captures=captures,
        journal=journal,
        findings=findings,
    )


def scan_for_plaintext_credentials(
    captures: Iterable[Packet],
    accounts: Sequence[AdminAccount],
    tag_attempts: Mapping[int, int] | None = None,
) -> tuple[CredentialFinding, ...]:
    """Search captured payloads for any registered credential in the clear."""
    findings = []
    tag_attempts = tag_attempts or {}
    for packet in captures:
        for account in accounts:
            for piece, secret in (
                ("identifier", account.identifier),
                ("password", account.password),
            ):
                if secret.encode() in packet.payload:
                    findings.append(
                        CredentialFinding(
                            attempt_index=tag_attempts.get(packet.payload_tag, -1),
                            account_id=account.identifier,
                            piece=piece,
                            payload_tag=packet.payload_tag,
                        )
                    )
    return tuple(findings)


@dataclass(frozen=True)
class FileCheckRecord:
    """Ground truth and product verdict for one monitored file."""

    file_id: str
    baseline_digest: str
    final_digest: str
    modified: int
    detected: int


@dataclass(frozen=True)
class IntegrityEvidence:
    files: tuple[FileCheckRecord, ...]
    journal: tuple[JournalEntry, ...]


def run_integrity_procedure(
    bench: Testbench, mutations: Sequence[Mutation] = ()
) -> IntegrityEvidence:
    """Baseline every monitored file, edit some, trigger the check.

    Ground truth is whether the bytes actually changed, so a mutation that
    happens to restore the original content counts as unmodified.
    """
    fw = bench.fw
    if not fw.files:
        raise ValueError("no monitored files on the product")
    fw.activate_integrity()
    before = {fid: artifact.content for fid, artifact in fw.files.items()}
    for mutation in mutations:
        fw.modify_file(mutation.file_id, mutation)
    mark = len(fw.export_journal())
    report = fw.run_integrity_check()
    journal = fw.export_journal()[mark:]
    after = fw.files
    records = tuple(
        FileCheckRecord(
            file_id=fid,
            baseline_digest=after[fid].baseline_digest or "",
            final_digest=digest(after[fid].content),
            modified=int(after[fid].content != before[fid]),
            detected=report[fid],
        )
        for fid in before
    )
    return IntegrityEvidence(files=records, journal=journal)
