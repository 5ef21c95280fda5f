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
from functools import cache
from typing import Sequence

from .errors import (
    Refused, ScenarioParseError, ScenarioValidationError, listed, shown, type_problem
)
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
)
from .formal import (
    ALL_REQUIREMENTS, Capabilities, FirewallProfile, RequirementKind,
    capability_problem, scope_problems,
)
from .optimizer import ProcedureVariant, budget_problem, duplicate_variant_problem
from .testbench import (
    Host, TrafficSpec, account_problem, attempt_coverage_problem, endpoint_problems,
    filter_level_problem, monitored_file_problem, replay_mutations, topology_problems,
    traffic_problems,
)

_SECTIONS = (
    "profile", "topology", "rules", "traffic", "accounts",
    "files", "mutations", "attempts", "variants", "faults",
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
_OPTION_KEYS = tuple(_OPTION_FIELDS)


def _option_fields(tokens: Sequence[str]) -> dict:
    if not tokens:
        return {}
    options = _kv_pairs(tokens, _OPTION_KEYS)
    fields = {_OPTION_FIELDS[k]: v for k, v in options.items()}
    if "proto" in fields:
        fields["proto"] = int(fields["proto"])
    return fields


@cache
def _form(usage: str) -> tuple[frozenset[str], int, float]:
    """The keywords a usage text names and its least and most token counts: a
    `[...]` or `...` word is optional, and `[options]` takes any number."""
    words = usage.split()
    least = sum(not (word.startswith("[") or word == "...") for word in words)
    most = float("inf") if words[-1] == "[options]" else len(words)
    return frozenset(words[0].split("|")), least, most


def _tokens(line: str, usage: str, tail: bool = False) -> list[str]:
    """A line's tokens if they fit `usage`, else ``expected: <usage>``; `tail` keeps the rest."""
    keywords, least, most = _form(usage)
    tokens = line.split(None, most - 1 if tail else -1)
    if tokens[0] not in keywords or not least <= len(tokens) <= most:
        raise ValueError(f"expected: {usage}")
    return tokens


def _on_off(text: str) -> bool:
    if text not in ("on", "off"):
        raise ValueError(f"expected on or off: {text!r}")
    return text == "on"


def _auth_mode(text: str) -> AuthMode | None:
    if text not in ("local", "remote", "none"):
        raise ValueError(f"auth must be local, remote or none: {text!r}")
    return None if text == "none" else AuthMode(text)


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def _filter_fields(text: str) -> tuple[str, ...]:
    names = () if text == "none" else _words(text)
    bad = [n for n in names if n not in ("proto", "ttl")]
    if bad:
        raise ValueError(f"filter-fields accepts proto and ttl: {bad}")
    return names


# Each [profile] key: the `Scenario` or `Capabilities` field it sets, and its value's reader.
_PROFILE_KEYS = {
    "name": ("name", str),
    "claims": ("claims", _words),
    "requirements": ("requirements", _words),
    "auth": ("auth_mode", _auth_mode),
    "link-layer": ("link_layer", _on_off),
    "filter-fields": ("filter_fields", _filter_fields),
    "integrity-trigger": ("integrity_trigger", _on_off),
    "seed": ("seed", int),
    "management": ("management", lambda text: Address(text).net),
}
_CAPABILITY_FIELDS = tuple(Capabilities.__dataclass_fields__)


class _Parser:
    """Reads syntax only; each record is filed under its `Scenario` field."""

    def __init__(self):
        self.problems: list[str] = []
        self.fields: dict = {}
        self.records: defaultdict[str, list] = defaultdict(list)

    def fail(self, line_no: int, message: str) -> None:
        self.problems.append(f"line {line_no}: {message}")

    def feed(self, text: str) -> None:
        read = None  # the open section's method
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1]
                read = getattr(self, f"_{section}") if section in _SECTIONS else None
                if read is None:
                    self.fail(line_no, f"unknown section [{section}]")
                continue
            if read is None:
                self.fail(line_no, f"directive outside any section: {shown(line)}")
                continue
            try:
                read(line)
            except ValueError as exc:
                self.fail(line_no, str(exc))

    # One method per section; each raises ValueError on a bad line.

    def _profile(self, line: str) -> None:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if not rest:
            raise ValueError(f"profile directive {key!r} needs a value")
        if key not in _PROFILE_KEYS:
            raise ValueError(f"unknown profile directive {key!r}")
        field, read = _PROFILE_KEYS[key]
        self.fields[field] = read(rest)

    def _topology(self, line: str) -> None:
        segment, name, net, *mac = _tokens(line, "external|internal <name> <address> [<mac>]")
        self.records[segment].append(Host(name, Address(net, *mac)))

    def _rules(self, line: str) -> None:
        action, src, dst, *options = _tokens(line, "allow|deny <src-host> <dst-host> [options]")
        fields = _option_fields(options)
        if "ttl" in fields:
            lo, sep, hi = fields.pop("ttl").partition("-")
            fields.update(ttl_min=int(lo), ttl_max=int(hi if sep else lo))
        rules = self.records["rules"]
        # Endpoints are host names; swapped for addresses after topology checks.
        rules.append(FilterRule(RuleAction(action), src, dst, order=len(rules), **fields))

    def _traffic(self, line: str) -> None:
        _, src, dst, *options = _tokens(line, "packet <src-host> <dst-host> [options]")
        fields = _option_fields(options)
        if "ttl" in fields:
            fields["ttl"] = int(fields["ttl"])
        self.records["traffic"].append(TrafficSpec(src, dst, **fields))

    def _accounts(self, line: str) -> None:
        _, identifier, password = _tokens(line, "account <identifier> <password>", tail=True)
        self.records["accounts"].append(AdminAccount(identifier, password))

    def _files(self, line: str) -> None:
        _, file_id, payload = _tokens(line, "file <id> text:...|hex:...", tail=True)
        self.records["files"].append(FileArtifact(file_id, _payload(payload)))

    def _mutations(self, line: str) -> None:
        usage = "mutate <file-id> flip|append|replace|none ..."
        _, file_id, kind, *rest = _tokens(line, usage, tail=True)
        if kind == "none" and rest:
            raise ValueError("mutate ... none takes no argument")
        fields = {}
        if kind == "flip":
            if not rest:
                raise ValueError("mutate ... flip needs a byte offset")
            fields["offset"] = int(rest[0])
        elif kind in ("append", "replace"):
            if not rest:
                raise ValueError(f"mutate ... {kind} needs a payload")
            fields["data"] = _payload(rest[0])
        self.records["mutations"].append(Mutation(file_id, kind, **fields))

    def _attempts(self, line: str) -> None:
        _, identifier, password = _tokens(line, "attempt <identifier> <password>", tail=True)
        self.records["attempts"].append((identifier, password))

    def _variants(self, line: str) -> None:
        if line.split(None, 1)[0] == "budget":
            _, amount = _tokens(line, "budget <amount>|unlimited")
            self.fields["budget"] = None if amount == "unlimited" else int(amount)
            return
        _, rid, vid, *options = _tokens(line, "variant <requirement> <id> time=N cost=N")
        # Two tokens, each key allowed once: both time= and cost= are set.
        options = _kv_pairs(options, ("time", "cost"))
        self.records["variants"].append(
            ProcedureVariant(rid, vid, int(options["time"]), int(options["cost"]))
        )

    def _faults(self, line: str) -> None:
        _, spec = _tokens(line, "inject <fault-spec>")
        self.records["faults"].append(Fault.parse(spec))

    def build(self) -> Scenario:
        if self.problems:
            raise ScenarioParseError(self.problems)
        fields = {name: tuple(records) for name, records in self.records.items() if records}
        capabilities = {k: self.fields.pop(k) for k in _CAPABILITY_FIELDS if k in self.fields}
        fields.update(self.fields, capabilities=Capabilities(**capabilities))
        fields.setdefault("requirements", fields.get("claims", ()))
        return Scenario(**fields)


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

    def say(*found: str | bool | None) -> None:  # skips None, False and empty values
        problems.extend(problem for problem in found if problem)

    seed = scenario.seed
    say(
        not scenario.name and "profile has no name",
        not scenario.claims and "profile claims no requirements",
        *scope_problems(scenario.claims, scenario.requirements),
        type_problem("seed", seed, int) or seed < 0 and f"seed must be nonnegative: {shown(seed)}",
        budget_problem(scenario.budget),
    )
    if scenario.management:
        try:
            Address(scenario.management)
        except Refused as exc:
            say(f"management: {exc}")

    # The enforcing layers own these preconditions and their texts.
    claims = dict.fromkeys(c for c in scenario.claims if c in ALL_REQUIREMENTS)
    caps = scenario.capabilities
    hosts = scenario.external + scenario.internal
    for claim in claims:
        kind, level = ALL_REQUIREMENTS[claim].kind, ALL_REQUIREMENTS[claim].level
        for problem in (
            capability_problem(kind, caps),
            level and filter_level_problem(level, hosts, scenario.rules),
            kind is RequirementKind.ADMIN_AUTH and account_problem(scenario.accounts),
            kind is RequirementKind.INTEGRITY_CONTROL and monitored_file_problem(scenario.files),
        ):
            say(problem and f"{claim} claimed but {problem}")

    # The bench, the product and the planner own these rules and their texts.
    problems += topology_problems(scenario.external, scenario.internal)
    problems += configuration_problems(scenario.rules, scenario.accounts, scenario.files)

    external = {h.name for h in scenario.external}
    internal = {h.name for h in scenario.internal}
    problems += endpoint_problems("rule", scenario.rules, external, internal)
    if scenario.traffic is not None:
        problems += traffic_problems(scenario.traffic, scenario.external, scenario.internal)
    if scenario.attempts is not None and scenario.accounts:
        say(attempt_coverage_problem(scenario.attempts, scenario.accounts))

    contents = {f.file_id: f.content for f in scenario.files}
    problems += replay_mutations(contents, scenario.mutations)[1]

    say(duplicate_variant_problem(scenario.variants))
    stray = {v.requirement_id for v in scenario.variants} - set(scenario.claims)
    stray = sorted(shown(rid, str) for rid in stray)
    say(stray and f"variant(s) for unclaimed requirement(s): {listed(stray)}")

    for fault in scenario.faults:
        say(fault_problem(fault, len(scenario.rules), contents, caps.auth_mode))
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
