"""Two-segment bench that drives procedures against a simulated firewall.

The bench models the standard desk setup: an outside segment with probe
senders, a protected inside segment with receivers and the management
console, and the product under test between them.  The bench builds
the product once, a `Firewall`, or a `FaultyFirewall` when faults are
given; the procedures only drive it.  The bench keeps its own copies of
the rule set, sorted by `order`, and of the accounts, and builds the
product from them: the verdict stage compares the product against these.
The probes sent are the outside traffic; the bench itself builds every
packet seen on the inside segment, the product's console exchange included.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from itertools import product
from typing import Collection, Iterable, Mapping, Sequence

from .errors import Refused, listed, refuse, shown
from .firewall import (
    DEFAULT_PROTO,
    DEFAULT_TTL,
    AdminAccount,
    Address,
    AuthMode,
    Decision,
    Fault,
    FaultyFirewall,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEntry,
    Mutation,
    Packet,
    Segment,
    digest,
    duplicate_problem,
    normalize_links,
    packet_field_problem,
    split_filter_journal,
)
from .formal import FilterLevel


@dataclass(frozen=True)
class Host:
    name: str
    address: Address


@dataclass(frozen=True)
class TrafficSpec:
    """One requested probe packet, by host name, with optional field overrides.

    MACs are stored lower-cased; proto and ttl must be 0..255.
    """

    src: str
    dst: str
    proto: int | None = None
    ttl: int | None = None
    src_link: str | None = None
    dst_link: str | None = None

    def __post_init__(self):
        normalize_links(self)
        refuse(packet_field_problem(self.proto, self.ttl))


class Testbench:
    """Mutable bench state: hosts, loaded rules, accounts and files, product, tag counter, RNG."""

    __test__ = False  # not a pytest case, despite the name

    def __init__(
        self,
        external: Sequence[Host],
        internal: Sequence[Host],
        rules: Sequence[FilterRule] = (),
        accounts: Sequence[AdminAccount] = (),
        files: Sequence[FileArtifact] = (),
        auth_mode: AuthMode = AuthMode.REMOTE,
        management: Address | None = None,
        faults: Sequence[Fault] = (),
        seed: int = 0,
    ):
        # The rule set (in `order` order), the accounts and the files as
        # loaded.  Evidence and probes read these copies, never the
        # product's, so the verdict's expected side does not depend on the
        # product.  The product is built first: its refusals precede the
        # topology checks.
        self.rules = tuple(sorted(rules, key=lambda r: r.order))
        self.accounts = tuple(accounts)
        loaded = (self.rules, self.accounts, files, auth_mode, management)
        self.fw = FaultyFirewall(*loaded, faults=faults) if faults else Firewall(*loaded)
        self.files = {f.file_id: f.content for f in files}
        outside = {h.address.net for h in external}
        inside = {h.address.net for h in internal}
        refuse(
            *topology_problems(external, internal),
            *endpoint_problems("rule", self.rules, outside, inside),
        )
        self.external = tuple(external)
        self.internal = tuple(internal)
        self._hosts = {h.name: h for h in self.external + self.internal}
        self.rng = random.Random(seed)
        self._tag = 0

    def _next_tag(self) -> int:
        self._tag += 1
        return self._tag

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise Refused(f"no host named {shown(name)} on the bench") from None


def topology_problems(external: Sequence[Host], internal: Sequence[Host]) -> list[str]:
    """Why a segment has no hosts, or two hosts share a network address or a name."""
    hosts = [*external, *internal]
    found = (
        None if external else "no external hosts",
        None if internal else "no internal hosts",
        duplicate_problem("host address(es)", (h.address.net for h in hosts)),
        duplicate_problem("host name(s)", (h.name for h in hosts)),
    )
    return [problem for problem in found if problem]


def endpoint_problems(
    noun: str, records: Iterable, external: Collection[str], internal: Collection[str]
) -> list[str]:
    """Why each record's source is not outside or its destination not inside, if so.

    Rules name their endpoints by network address on the bench and by host
    name in a scenario, packets by host name in both; records are numbered
    from 1 in the order given.
    """
    problems = []
    for i, record in enumerate(records, start=1):
        if record.src not in external:
            problems.append(f"{noun} {i}: source {shown(record.src)} is not an external host")
        if record.dst not in internal:
            problems.append(f"{noun} {i}: destination {shown(record.dst)} is not an internal host")
    return problems


def traffic_problems(
    traffic: Sequence[TrafficSpec], external: Sequence[Host], internal: Sequence[Host]
) -> list[str]:
    """Why an explicit traffic list is empty, or which packets do not go outside to inside."""
    if not traffic:
        return ["traffic list is empty"]
    names = ({h.name for h in external}, {h.name for h in internal})
    return endpoint_problems("packet", traffic, *names)


# The one bench constructor, under the name the campaign calls it by.
build_testbench = Testbench


def _build_packet(bench: Testbench, spec: TrafficSpec) -> Packet:
    src = bench.host(spec.src).address
    dst = bench.host(spec.dst).address
    if spec.src_link is not None:
        src = Address(src.net, spec.src_link)
    if spec.dst_link is not None:
        dst = Address(dst.net, spec.dst_link)
    tag = bench._next_tag()
    return Packet(
        src,
        dst,
        DEFAULT_PROTO if spec.proto is None else spec.proto,
        DEFAULT_TTL if spec.ttl is None else spec.ttl,
        tag,
        b"pkt:%d:%08x" % (tag, bench.rng.getrandbits(32)),
        Segment.EXTERNAL,
    )


def generate_packets(
    bench: Testbench, traffic: Sequence[TrafficSpec] | None = None
) -> tuple[Packet, ...]:
    """Build the probe traffic for one screening run.

    Without an explicit traffic list this is one packet per
    outside-to-inside host pair, in topology order, with default field
    values; an explicit list replaces that entirely, and is refused when it
    is empty or a packet does not go from an outside host to an inside one.
    """
    if traffic is None:
        traffic = [
            TrafficSpec(s.name, d.name)
            for s, d in product(bench.external, bench.internal)
        ]
    else:
        refuse(*traffic_problems(traffic, bench.external, bench.internal))
    return tuple(_build_packet(bench, spec) for spec in traffic)


@dataclass(frozen=True)
class FilterEvidence:
    """Everything the screening verdict needs: traffic in, traffic out, journal."""

    level: FilterLevel
    rules: tuple[FilterRule, ...]
    packet_in: tuple[Packet, ...]
    packet_out: tuple[Packet, ...]
    journal_allowed: tuple[JournalEntry, ...]
    journal_denied: tuple[JournalEntry, ...]


def filter_level_problem(
    level: FilterLevel, hosts: Sequence[Host], rules: Sequence[FilterRule]
) -> str | None:
    """Why a run at `level` over these hosts and rules proves nothing, or None.

    A link-level run needs a link address on every host, and a field-level
    run a rule that constrains a field; otherwise the run could not tell
    the claim apart from plain address screening.
    """
    if level is FilterLevel.LINK:
        bare = [h.name for h in hosts if h.address.link is None]
        if bare:
            return f"host(s) without link address: {listed(bare)}"
    if level is FilterLevel.FIELDS and not any(r.constrains_fields for r in rules):
        return "no rule constrains proto or ttl"
    return None


def run_filter_procedure(
    bench: Testbench,
    level: FilterLevel = FilterLevel.NETWORK,
    traffic: Sequence[TrafficSpec] | None = None,
) -> FilterEvidence:
    """Offer probe traffic to the loaded product in order and collect the evidence."""
    refuse(filter_level_problem(level, bench.external + bench.internal, bench.rules))
    mark = len(bench.fw.export_journal())
    packets = generate_packets(bench, traffic)
    screen = bench.fw.filter_packet
    delivered = tuple(p for p in packets if screen(p) is Decision.FORWARDED)
    allowed, denied = split_filter_journal(bench.fw.export_journal()[mark:])
    return FilterEvidence(
        level=level,
        rules=bench.rules,
        packet_in=packets,
        packet_out=delivered,
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


def account_problem(accounts: Sequence[AdminAccount]) -> str | None:
    """Why a sign-on run has no account to sign on to, or None."""
    return None if accounts else "no accounts registered"


def attempt_coverage_problem(
    attempts: Sequence[tuple[str, str]], accounts: Sequence[AdminAccount]
) -> str | None:
    """Why `attempts` cannot tell acceptance from luck, or None when they can."""
    ids = {a.identifier for a in accounts}
    pwds = {a.password for a in accounts}
    if len({(identifier in ids, password in pwds) for identifier, password in attempts}) < 4:
        return (
            "attempt list must mix registered and unregistered identifiers"
            " and passwords in all four combinations"
        )
    return None


def _screening_probes(
    bench: Testbench, stage: str, delivered: list[Packet]
) -> list[tuple[str, str, str, str]]:
    # One packet per first allow/deny rule, to show the product keeps
    # screening while sign-on sessions are open; forwarded probes go to
    # `delivered` like any other delivered traffic.
    probes = []
    for wanted in ("allow", "deny"):
        rule = next((r for r in bench.rules if r.action.value == wanted), None)
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
        if decision is Decision.FORWARDED:
            delivered.append(packet)
        probes.append((stage, rule.src, rule.dst, decision.value))
    return probes


def run_auth_procedure(
    bench: Testbench, attempts: Sequence[tuple[str, str]] | None = None
) -> AuthEvidence:
    """Try sign-ons to the loaded accounts around screening probes, capture, journal.

    The default attempt list tries the first account's credentials straight,
    then each of the three ways to get them wrong, then a repeat sign-on.
    The screening probes before and after the attempts only document that
    the product keeps screening while a session is open; they carry no
    acceptance weight.
    """
    registered = bench.accounts
    refuse(account_problem(registered))
    tried = list(attempts) if attempts is not None else _default_attempts(registered)
    refuse(attempt_coverage_problem(tried, registered))
    mode = bench.fw.auth_mode
    mark, sent = len(bench.fw.export_journal()), len(bench.fw.console_sent)
    captured: list[Packet] = []
    probes = _screening_probes(bench, "before", captured)
    results = tuple(
        AuthAttemptResult(identifier, password, bench.fw.authenticate(identifier, password))
        for identifier, password in tried
    )
    # The first inside host is the console: requests go to the management address, replies back.
    console, management = bench.internal[0].address, bench.fw.management
    for request, reply in bench.fw.console_sent[sent:]:
        for src, dst, payload in ((console, management, request), (management, console, reply)):
            tag = bench._next_tag()
            captured.append(Packet(src, dst, 99, DEFAULT_TTL, tag, payload, Segment.INTERNAL))
    probes += _screening_probes(bench, "after", captured)
    journal = bench.fw.export_journal()[mark:]
    captures = tuple(captured) if mode is AuthMode.REMOTE else ()
    findings = scan_for_plaintext_credentials(captures, registered)
    return AuthEvidence(
        mode=mode,
        accounts=registered,
        attempts=results,
        probes=tuple(probes),
        captures=captures,
        journal=journal,
        findings=findings,
    )


# A sign-on request in the clear, after its attempt number when it has
# one; a password may hold spaces and `=`.
_CLEAR_SIGNON = re.compile(rb"(?:\A| )(?:attempt=([0-9]+) )?id=(.*?) pwd=(.*)\Z", re.S)


def scan_for_plaintext_credentials(
    captures: Iterable[Packet], accounts: Sequence[AdminAccount]
) -> tuple[CredentialFinding, ...]:
    """Search captured payloads for any registered credential in the clear.

    A credential counts only as the whole value of an ``id=`` or ``pwd=``
    field, so the fixed text around it (``console-signon``, ``attempt=0``,
    ``granted``, a probe's payload) never matches a short secret.  A
    finding's attempt number is the payload's own ``attempt=N`` field,
    or -1 when the payload has none.
    """
    findings = []
    for packet in captures:
        fields = _CLEAR_SIGNON.search(packet.payload)
        if fields is None:
            continue
        attempt_index = -1 if fields[1] is None else int(fields[1])
        for account in accounts:
            for piece, secret, sent in (
                ("identifier", account.identifier, fields[2]),
                ("password", account.password, fields[3]),
            ):
                if secret.encode() == sent:
                    findings.append(
                        CredentialFinding(
                            attempt_index=attempt_index,
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


def monitored_file_problem(files: Collection[object]) -> str | None:
    """Why an integrity run has no file to watch, or None."""
    return None if files else "no files to monitor"


def replay_mutations(
    contents: Mapping[str, bytes], mutations: Sequence[Mutation]
) -> tuple[dict[str, bytes], list[str]]:
    """A copy of `contents` with `mutations` replayed in order, and why each that cannot apply."""
    contents = dict(contents)
    problems = []
    for i, m in enumerate(mutations, start=1):
        if m.file_id not in contents:
            problems.append(f"mutation {i}: unknown file {shown(m.file_id)}")
            continue
        try:
            contents[m.file_id] = m.apply(contents[m.file_id])
        except Refused as exc:
            problems.append(f"mutation {i}: {exc}")
    return contents, problems


def run_integrity_procedure(
    bench: Testbench, mutations: Sequence[Mutation] = ()
) -> IntegrityEvidence:
    """Baseline every monitored file, edit some, trigger the check.

    Every mutation is checked before any file is touched.  Ground truth
    comes from the bench's own replay of the mutations on its copy of
    the files, not from the product: a file counts as modified when the
    replayed bytes differ, so a mutation that happens to restore the
    original content counts as unmodified.
    """
    fw = bench.fw
    before = bench.files
    replayed, problems = replay_mutations(before, mutations)
    refuse(monitored_file_problem(before), *problems)
    fw.activate_integrity()
    for mutation in mutations:
        fw.modify_file(mutation)
    mark = len(fw.export_journal())
    report = fw.run_integrity_check()
    journal = fw.export_journal()[mark:]
    after = fw.files
    records = tuple(
        FileCheckRecord(
            file_id=fid,
            baseline_digest=digest(before[fid]),
            final_digest=digest(after[fid]),
            modified=int(replayed[fid] != before[fid]),
            detected=report[fid],
        )
        for fid in before
    )
    return IntegrityEvidence(files=records, journal=journal)
