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

from collections import defaultdict
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
    configuration_problems,
    fault_problem,
    repeated,
)
from .formal import (
    ALL_REQUIREMENTS, FILTER_LEVELS, Capabilities, FirewallProfile, RequirementKind,
    capability_problem,
)
from .optimizer import ProcedureVariant
from .testbench import (
    Host, TrafficSpec, account_problem, attempt_coverage_problem, endpoint_problems,
    filter_level_problem, monitored_file_problem, mutation_problems, topology_problems,
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
    capabilities: Capabilities = Capabilities()
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

    def profile(self) -> FirewallProfile:
        return FirewallProfile(self.name, self.claims, self.capabilities)

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


# [rules] and [traffic] options and the record fields they set; the
# records check the values themselves.
_OPTION_FIELDS = {"src-mac": "src_link", "dst-mac": "dst_link", "proto": "proto", "ttl": "ttl"}


def _option_fields(tokens: Sequence[str]) -> dict:
    options = _kv_pairs(tokens, tuple(_OPTION_FIELDS))
    fields = {_OPTION_FIELDS[k]: v for k, v in options.items()}
    if "proto" in fields:
        fields["proto"] = int(fields["proto"])
    return fields


class _Parser:
    """Reads syntax only; each record is filed under its `Scenario` field."""

    def __init__(self):
        self.problems: list[str] = []
        self.fields: dict = {}
        self.capabilities: dict = {}
        self.records: defaultdict[str, list] = defaultdict(list)

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
                self.capabilities["auth_mode"] = None
            else:
                try:
                    self.capabilities["auth_mode"] = AuthMode(rest)
                except ValueError:
                    raise ValueError(f"auth must be local, remote or none: {rest!r}") from None
        elif key == "link-layer":
            self.capabilities["link_layer"] = _on_off(rest)
        elif key == "filter-fields":
            if rest == "none":
                self.capabilities["filter_fields"] = ()
            else:
                names = tuple(rest.split())
                bad = [n for n in names if n not in ("proto", "ttl")]
                if bad:
                    raise ValueError(f"filter-fields accepts proto and ttl: {bad}")
                self.capabilities["filter_fields"] = names
        elif key == "integrity-trigger":
            self.capabilities["integrity_trigger"] = _on_off(rest)
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
        self.records[tokens[0]].append(Host(name, Address(net, mac[0] if mac else None)))

    def _rules(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] not in ("allow", "deny") or len(tokens) < 3:
            raise ValueError("expected: allow|deny <src-host> <dst-host> [options]")
        fields = _option_fields(tokens[3:])
        if "ttl" in fields:
            lo, sep, hi = fields.pop("ttl").partition("-")
            fields.update(ttl_min=int(lo), ttl_max=int(hi if sep else lo))
        rules = self.records["rules"]
        # Endpoints are host names; swapped for addresses after topology checks.
        rules.append(
            FilterRule(RuleAction(tokens[0]), tokens[1], tokens[2], order=len(rules), **fields)
        )

    def _traffic(self, line: str) -> None:
        tokens = line.split()
        if tokens[0] != "packet" or len(tokens) < 3:
            raise ValueError("expected: packet <src-host> <dst-host> [options]")
        fields = _option_fields(tokens[3:])
        if "ttl" in fields:
            fields["ttl"] = int(fields["ttl"])
        self.records["traffic"].append(TrafficSpec(tokens[1], tokens[2], **fields))

    def _accounts(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "account" or len(tokens) != 3:
            raise ValueError("expected: account <identifier> <password>")
        self.records["accounts"].append(AdminAccount(tokens[1], tokens[2]))

    def _files(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "file" or len(tokens) != 3:
            raise ValueError("expected: file <id> text:...|hex:...")
        self.records["files"].append(FileArtifact(tokens[1], _payload(tokens[2])))

    def _mutations(self, line: str) -> None:
        tokens = line.split(None, 3)
        if tokens[0] != "mutate" or len(tokens) < 3:
            raise ValueError("expected: mutate <file-id> flip|append|replace|none ...")
        _, file_id, kind = tokens[:3]
        rest = tokens[3] if len(tokens) > 3 else None
        if kind == "none" and rest is not None:
            raise ValueError("mutate ... none takes no argument")
        fields = {}
        if kind == "flip":
            if rest is None:
                raise ValueError("mutate ... flip needs a byte offset")
            fields["offset"] = int(rest)
        elif kind in ("append", "replace"):
            if rest is None:
                raise ValueError(f"mutate ... {kind} needs a payload")
            fields["data"] = _payload(rest)
        self.records["mutations"].append(Mutation(file_id, kind, **fields))

    def _attempts(self, line: str) -> None:
        tokens = line.split(None, 2)
        if tokens[0] != "attempt" or len(tokens) != 3:
            raise ValueError("expected: attempt <identifier> <password>")
        self.records["attempts"].append((tokens[1], tokens[2]))

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
        # Two tokens, each key allowed once: both time= and cost= are set.
        options = _kv_pairs(tokens[3:], ("time", "cost"))
        self.records["variants"].append(
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
        self.records["faults"].append(Fault.parse(tokens[1]))

    def build(self) -> Scenario:
        if self.problems:
            raise ScenarioParseError(self.problems)
        fields = {name: tuple(records) for name, records in self.records.items() if records}
        fields.update(self.fields, capabilities=Capabilities(**self.capabilities))
        fields.setdefault("requirements", fields.get("claims", ()))
        return Scenario(**fields)


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
    if scenario.management:
        try:
            Address(scenario.management)
        except ValueError as exc:
            say(f"management: {exc}")

    # The enforcing layers own these preconditions and their texts.
    claims = dict.fromkeys(c for c in scenario.claims if c in ALL_REQUIREMENTS)
    caps = scenario.capabilities
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

    # The bench and the product own these rules and their texts.
    problems += topology_problems(scenario.external, scenario.internal)
    problems += configuration_problems(scenario.rules, scenario.accounts, scenario.files)

    external = {h.name for h in scenario.external}
    internal = {h.name for h in scenario.internal}
    for noun, records in (("rule", scenario.rules), ("packet", scenario.traffic or ())):
        problems += endpoint_problems(noun, records, external, internal)
    if scenario.traffic == ():
        say("traffic list is empty")

    if scenario.attempts is not None and scenario.accounts:
        problem = attempt_coverage_problem(scenario.attempts, scenario.accounts)
        if problem:
            say(problem)

    contents = {f.file_id: f.content for f in scenario.files}
    problems += mutation_problems(contents, scenario.mutations)

    pairs = [(v.requirement_id, v.variant_id) for v in scenario.variants]
    dup = sorted(f"{r}/{v}" for r, v in repeated(pairs))
    if dup:
        say(f"duplicate variant(s): {', '.join(dup)}")
    stray = sorted({r for r, _ in pairs if r not in scenario.claims})
    if stray:
        say(f"variant(s) for unclaimed requirement(s): {', '.join(stray)}")

    for fault in scenario.faults:
        problem = fault_problem(fault, len(scenario.rules), contents, caps.auth_mode)
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
