"""Scenario files: one declarative description of a whole campaign.

A scenario is a line-oriented text file with bracketed sections.  Blank
lines and full-line ``#`` comments are skipped; there are no inline
comments, so payload text may contain ``#`` freely.

    [profile]
    name demo-fw
    claims r1 r2
    auth remote
    seed 7

    [topology]
    external probe 198.51.100.10 02:00:5e:10:00:01
    internal target 203.0.113.20

    [rules]
    allow probe target proto=6 ttl=32-128

Parsing reports every malformed line at once; validation then checks the
parsed scenario as a whole (hosts resolve, claims are supported, faults
apply) and again reports every problem at once rather than stopping at
the first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ScenarioParseError, ScenarioValidationError
from .firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Fault,
    FileArtifact,
    FilterRule,
    Mutation,
    RuleAction,
    account_id_problem,
    fault_problem,
    file_id_problem,
    link_address,
    packet_field_problem,
    repeated,
    rule_order_problem,
)
from .formal import (
    ALL_REQUIREMENTS, Capabilities, FirewallProfile, RequirementKind, capability_problem
)
from .optimizer import ProcedureVariant
from .testbench import (
    FILTER_LEVELS, Host, TrafficSpec, account_problem, attempt_coverage_problem,
    filter_level_problem, host_name_problem, monitored_file_problem,
)

_SECTIONS = (
    "profile",
    "topology",
    "rules",
    "traffic",
    "accounts",
    "files",
    "mutations",
    "attempts",
    "variants",
    "faults",
)


@dataclass(frozen=True)
class Scenario:
    """Everything `run_campaign` needs, straight from one file."""

    name: str = ""
    claims: tuple[str, ...] = ()
    requirements: tuple[str, ...] = ()
    auth_mode: AuthMode | None = AuthMode.REMOTE
    link_layer: bool = True
    filter_fields: tuple[str, ...] = ("proto", "ttl")
    integrity_trigger: bool = True
    seed: int = 0
    management: str | None = None
    external: tuple[Host, ...] = ()
    internal: tuple[Host, ...] = ()
    rules: tuple[FilterRule, ...] = ()
    traffic: tuple[TrafficSpec, ...] | None = None
    accounts: tuple[AdminAccount, ...] = ()
    files: tuple[FileArtifact, ...] = ()
    mutations: tuple[Mutation, ...] = ()
    attempts: tuple[tuple[str, str], ...] | None = None
    variants: tuple[ProcedureVariant, ...] = ()
    budget: int | None = None
    faults: tuple[Fault, ...] = ()

    def capabilities(self) -> Capabilities:
        return Capabilities(
            link_layer=self.link_layer,
            filter_fields=self.filter_fields,
            auth_mode=self.auth_mode,
            integrity_trigger=self.integrity_trigger,
        )

    def profile(self) -> FirewallProfile:
        return FirewallProfile(self.name, self.claims, self.capabilities())

    def variant_catalog(self) -> dict[str, list[ProcedureVariant]]:
        """Declared variants grouped by claim; a lone free variant fills gaps."""
        catalog: dict[str, list[ProcedureVariant]] = {rid: [] for rid in self.claims}
        for v in self.variants:
            catalog.setdefault(v.requirement_id, []).append(v)
        for rid, group in catalog.items():
            if not group:
                group.append(ProcedureVariant(rid, "standard", time=1, cost=0))
        return catalog


def _payload(token: str) -> bytes:
    if token.startswith("text:"):
        return token[len("text:"):].encode()
    if token.startswith("hex:"):
        return bytes.fromhex(token[len("hex:"):])
    raise ValueError(f"payload must start with text: or hex:, got {token!r}")


def _int_in(token: str, low: int, high: int, what: str) -> int:
    value = int(token)
    if not low <= value <= high:
        raise ValueError(f"{what} {value} outside {low}..{high}")
    return value


def _kv_pairs(tokens: Sequence[str], allowed: Sequence[str]) -> dict[str, str]:
    pairs = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in allowed:
            raise ValueError(f"unknown option {key!r}, expected one of {', '.join(allowed)}")
        if key in pairs:
            raise ValueError(f"option {key!r} given twice")
        pairs[key] = value
    return pairs


class _Parser:
    def __init__(self):
        self.problems: list[str] = []
        self.fields: dict = {}
        self.rules: list[FilterRule] = []
        self.traffic: list[TrafficSpec] = []
        self.accounts: list[AdminAccount] = []
        self.files: list[FileArtifact] = []
        self.mutations: list[Mutation] = []
        self.attempts: list[tuple[str, str]] = []
        self.variants: list[ProcedureVariant] = []
        self.faults: list[Fault] = []
        self.external: list[Host] = []
        self.internal: list[Host] = []

    def fail(self, line_no: int, message: str) -> None:
        self.problems.append(f"line {line_no}: {message}")

    def feed(self, text: str) -> None:
        section = None
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                if section not in _SECTIONS:
                    self.fail(line_no, f"unknown section [{section}]")
                    section = None
                continue
            if section is None:
                self.fail(line_no, f"directive outside any section: {line!r}")
                continue
            try:
                getattr(self, f"_{section}")(line)
            except ValueError as exc:
                self.fail(line_no, str(exc))

    # One method per section; each raises ValueError on a bad line.

    def _profile(self, line: str) -> None:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest:
            raise ValueError(f"profile directive {key!r} needs a value")
        if key == "name":
            self.fields["name"] = rest
        elif key == "claims":
            self.fields["claims"] = tuple(rest.split())
        elif key == "requirements":
            self.fields["requirements"] = tuple(rest.split())
        elif key == "auth":
            if rest == "none":
                self.fields["auth_mode"] = None
            else:
                try:
                    self.fields["auth_mode"] = AuthMode(rest)
                except ValueError:
                    raise ValueError(f"auth must be local, remote or none: {rest!r}") from None
        elif key == "link-layer":
            self.fields["link_layer"] = _on_off(rest)
        elif key == "filter-fields":
            if rest == "none":
                self.fields["filter_fields"] = ()
            else:
                names = tuple(rest.split())
                bad = [n for n in names if n not in ("proto", "ttl")]
                if bad:
                    raise ValueError(f"filter-fields accepts proto and ttl: {bad}")
                self.fields["filter_fields"] = names
        elif key == "integrity-trigger":
            self.fields["integrity_trigger"] = _on_off(rest)
        elif key == "seed":
            self.fields["seed"] = int(rest)
        elif key == "management":
            self.fields["management"] = str(Address(rest).net)
        else:
            raise ValueError(f"unknown profile directive {key!r}")

    def _topology(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] not in ("external", "internal") or len(tokens) not in (3, 4):
            raise ValueError("expected: external|internal <name> <address> [<mac>]")
        _, name, net, *mac = tokens
        host = Host(name, Address(net, mac[0] if mac else None))
        (self.external if tokens[0] == "external" else self.internal).append(host)

    def _rules(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] not in ("allow", "deny") or len(tokens) < 3:
            raise ValueError("expected: allow|deny <src-host> <dst-host> [options]")
        options = _kv_pairs(tokens[3:], ("src-mac", "dst-mac", "proto", "ttl"))
        ttl_min = ttl_max = None
        if "ttl" in options:
            lo, sep, hi = options["ttl"].partition("-")
            ttl_min = _int_in(lo, 0, 255, "ttl")
            ttl_max = _int_in(hi, 0, 255, "ttl") if sep else ttl_min
            if ttl_max < ttl_min:
                raise ValueError(f"empty ttl range {ttl_min}-{ttl_max}")
        self.rules.append(
            FilterRule(
                action=RuleAction(tokens[0]),
                src=tokens[1],  # host names; swapped for addresses after topology checks
                dst=tokens[2],
                src_link=link_address(options["src-mac"]) if "src-mac" in options else None,
                dst_link=link_address(options["dst-mac"]) if "dst-mac" in options else None,
                proto=_int_in(options["proto"], 0, 255, "proto") if "proto" in options else None,
                ttl_min=ttl_min,
                ttl_max=ttl_max,
                order=len(self.rules),
            )
        )

    def _traffic(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] != "packet" or len(tokens) < 3:
            raise ValueError("expected: packet <src-host> <dst-host> [options]")
        options = _kv_pairs(tokens[3:], ("proto", "ttl", "src-mac", "dst-mac"))
        self.traffic.append(
            TrafficSpec(
                src=tokens[1],
                dst=tokens[2],
                proto=_int_in(options["proto"], 0, 255, "proto") if "proto" in options else None,
                ttl=_int_in(options["ttl"], 0, 255, "ttl") if "ttl" in options else None,
                src_link=link_address(options["src-mac"]) if "src-mac" in options else None,
                dst_link=link_address(options["dst-mac"]) if "dst-mac" in options else None,
            )
        )

    def _accounts(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "account" or len(tokens) != 3:
            raise ValueError("expected: account <identifier> <password>")
        self.accounts.append(AdminAccount(tokens[1], tokens[2]))

    def _files(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "file" or len(tokens) != 3:
            raise ValueError("expected: file <id> text:...|hex:...")
        self.files.append(FileArtifact(tokens[1], _payload(tokens[2])))

    def _mutations(self, line: str) -> None:
        tokens = line.split(None, 3)
        if tokens[0] != "mutate" or len(tokens) < 3:
            raise ValueError("expected: mutate <file-id> flip|append|replace|none ...")
        _, file_id, kind = tokens[:3]
        rest = tokens[3] if len(tokens) > 3 else None
        if kind == "none":
            if rest is not None:
                raise ValueError("mutate ... none takes no argument")
            self.mutations.append(Mutation(file_id, "none"))
        elif kind == "flip":
            if rest is None:
                raise ValueError("mutate ... flip needs a byte offset")
            self.mutations.append(Mutation(file_id, "flip", offset=int(rest)))
        elif kind in ("append", "replace"):
            if rest is None:
                raise ValueError(f"mutate ... {kind} needs a payload")
            self.mutations.append(Mutation(file_id, kind, data=_payload(rest)))
        else:
            raise ValueError(f"unknown mutation kind {kind!r}")

    def _attempts(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "attempt" or len(tokens) != 3:
            raise ValueError("expected: attempt <identifier> <password>")
        self.attempts.append((tokens[1], tokens[2]))

    def _variants(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] == "budget":
            if len(tokens) != 2:
                raise ValueError("expected: budget <amount>|unlimited")
            if tokens[1] == "unlimited":
                self.fields["budget"] = None
            else:
                self.fields["budget"] = int(tokens[1])
            return
        if tokens[0] != "variant" or len(tokens) != 5:
            raise ValueError("expected: variant <requirement> <id> time=N cost=N")
        options = _kv_pairs(tokens[3:], ("time", "cost"))
        if set(options) != {"time", "cost"}:
            raise ValueError("variant needs both time= and cost=")
        self.variants.append(
            ProcedureVariant(
                requirement_id=tokens[1],
                variant_id=tokens[2],
                time=int(options["time"]),
                cost=int(options["cost"]),
            )
        )

    def _faults(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] != "inject" or len(tokens) != 2:
            raise ValueError("expected: inject <fault-spec>")
        self.faults.append(Fault.parse(tokens[1]))

    def build(self) -> Scenario:
        if self.problems:
            raise ScenarioParseError(self.problems)
        fields = dict(self.fields)
        if "requirements" not in fields:
            fields["requirements"] = fields.get("claims", ())
        return Scenario(
            external=tuple(self.external),
            internal=tuple(self.internal),
            rules=tuple(self.rules),
            traffic=tuple(self.traffic) if self.traffic else None,
            accounts=tuple(self.accounts),
            files=tuple(self.files),
            mutations=tuple(self.mutations),
            attempts=tuple(self.attempts) if self.attempts else None,
            variants=tuple(self.variants),
            faults=tuple(self.faults),
            **fields,
        )


def _on_off(token: str) -> bool:
    if token not in ("on", "off"):
        raise ValueError(f"expected on or off: {token!r}")
    return token == "on"


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioParseError listing every bad line.

    Rule and traffic endpoints stay host names here; `validate_scenario`
    checks they resolve and `resolve_rules` swaps in the addresses.
    """
    parser = _Parser()
    parser.feed(text)
    return parser.build()


def resolve_rules(scenario: Scenario) -> tuple[FilterRule, ...]:
    """Rules with host names replaced by their network addresses."""
    hosts = {h.name: h for h in scenario.external + scenario.internal}
    return tuple(
        replace(rule, src=hosts[rule.src].address.net, dst=hosts[rule.dst].address.net)
        for rule in scenario.rules
    )


def validate_scenario(scenario: Scenario) -> list[str]:
    """Whole-scenario consistency; returns every problem found, best first."""
    problems: list[str] = []
    say = problems.append

    if not scenario.name:
        say("profile has no name")
    if not scenario.claims:
        say("profile claims no requirements")
    if len(set(scenario.claims)) != len(scenario.claims):
        say("duplicate claim ids")
    if len(set(scenario.requirements)) != len(scenario.requirements):
        say("duplicate requirement ids listed")
    unknown = [c for c in scenario.claims if c not in ALL_REQUIREMENTS]
    if unknown:
        say(f"unknown requirement id(s) claimed: {', '.join(unknown)}")
    unknown = [r for r in scenario.requirements if r not in ALL_REQUIREMENTS]
    if unknown:
        say(f"unknown requirement id(s) listed: {', '.join(unknown)}")
    outside = [c for c in scenario.claims if c not in scenario.requirements]
    if outside:
        say(f"claim(s) outside the requirement list: {', '.join(outside)}")
    for what in ("seed", "budget"):
        value = getattr(scenario, what)
        if value is not None and value < 0:
            say(f"{what} must be nonnegative: {value}")

    # The enforcing layers own these preconditions and their texts.
    claims = dict.fromkeys(c for c in scenario.claims if c in ALL_REQUIREMENTS)
    caps = scenario.capabilities()
    hosts = scenario.external + scenario.internal
    for claim in claims:
        kind = ALL_REQUIREMENTS[claim].kind
        level = FILTER_LEVELS.get(kind)
        for problem in (
            capability_problem(kind, caps),
            level and filter_level_problem(level, hosts, scenario.rules),
            kind is RequirementKind.ADMIN_AUTH and account_problem(scenario.accounts),
            kind is RequirementKind.INTEGRITY_CONTROL and monitored_file_problem(scenario.files),
        ):
            if problem:
                say(f"{claim} claimed but {problem}")

    if not scenario.external:
        say("no external hosts")
    if not scenario.internal:
        say("no internal hosts")
    dup = sorted(repeated(h.address.net for h in hosts))
    if dup:
        say(f"host address(es) used twice: {', '.join(dup)}")
    # The bench and the product own these uniqueness rules and their texts.
    for problem in (
        host_name_problem(hosts),
        rule_order_problem(scenario.rules),
        account_id_problem(scenario.accounts),
        file_id_problem(scenario.files),
    ):
        if problem:
            say(problem)

    external = {h.name for h in scenario.external}
    internal = {h.name for h in scenario.internal}
    for i, rule in enumerate(scenario.rules):
        where = f"rule {i + 1}"
        if rule.src not in external:
            say(f"{where}: source {rule.src!r} is not an external host")
        if rule.dst not in internal:
            say(f"{where}: destination {rule.dst!r} is not an internal host")
    if scenario.traffic == ():
        say("traffic list is empty")
    for i, spec in enumerate(scenario.traffic or ()):
        where = f"packet {i + 1}"
        if spec.src not in external:
            say(f"{where}: source {spec.src!r} is not an external host")
        if spec.dst not in internal:
            say(f"{where}: destination {spec.dst!r} is not an internal host")
        problem = packet_field_problem(spec.proto, spec.ttl)
        if problem:
            say(f"{where}: {problem}")

    if scenario.attempts is not None and scenario.accounts:
        problem = attempt_coverage_problem(scenario.attempts, scenario.accounts)
        if problem:
            say(problem)

    contents = {f.file_id: f.content for f in scenario.files}
    for i, m in enumerate(scenario.mutations):
        where = f"mutation {i + 1}"
        if m.file_id not in contents:
            say(f"{where}: unknown file {m.file_id!r}")
            continue
        try:
            contents[m.file_id] = m.apply(contents[m.file_id])
        except ValueError as exc:
            say(f"{where}: {exc}")

    pairs = [(v.requirement_id, v.variant_id) for v in scenario.variants]
    dup = sorted(f"{r}/{v}" for r, v in repeated(pairs))
    if dup:
        say(f"duplicate variant(s): {', '.join(dup)}")
    stray = sorted({r for r, _ in pairs if r not in scenario.claims})
    if stray:
        say(f"variant(s) for unclaimed requirement(s): {', '.join(stray)}")

    for fault in scenario.faults:
        problem = fault_problem(fault, len(scenario.rules), contents, scenario.auth_mode)
        if problem:
            say(problem)
    return problems


def check_scenario(scenario: Scenario) -> None:
    """Raise ScenarioValidationError when `validate_scenario` finds anything."""
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioValidationError(problems)


def load_scenario(path: str) -> Scenario:
    """Read, parse and validate one scenario file."""
    with open(path, encoding="utf-8") as handle:
        scenario = parse_scenario(handle.read())
    check_scenario(scenario)
    return scenario
