"""Formal skeleton of a conformance campaign.

A vendor profile claims some subset of the requirement catalog.  Each
claimed requirement is developed into exactly one test procedure, unless
the product lacks the capability it needs (`capability_problem`, which
`validate_scenario` reports with the same text).  The final verdict
aggregates one (claimed, upheld) bit pair per requirement: the product
conforms exactly when every claimed requirement was upheld by a valid
procedure run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .errors import Refused, listed, refuse
from .firewall import AuthMode


class RequirementKind(Enum):
    NET_FILTER = "net-filter"
    LINK_FILTER = "link-filter"
    FIELD_FILTER = "field-filter"
    ADMIN_AUTH = "admin-auth"
    INTEGRITY_CONTROL = "integrity-control"


class FilterLevel(Enum):
    """Granularity at which a screening procedure compares traffic to rules."""

    NETWORK = "network"
    LINK = "link"
    FIELDS = "fields"


@dataclass(frozen=True)
class Requirement:
    """One catalog entry a product may claim, with the procedure it sources.

    `level` is the screening level a filter requirement is tested at, and
    None for the other kinds.  `objective`, `steps` and `expected` are the
    text of the one procedure `develop_procedure` makes from the entry.
    """

    id: str
    kind: RequirementKind
    level: FilterLevel | None
    text: str
    objective: str
    steps: tuple[str, ...]
    expected: str


# The template the three screening requirements share, up to the attributes named.
_SCREENING_OBJECTIVE = "show that screening decisions follow the rule set over "
_SCREENING_STEPS = (
    "assemble a two-segment bench around the product and load the rule set",
    "generate probe traffic covering every sender/recipient combination",
    "replay the traffic through the product",
    "capture what reaches the protected segment",
    "export the screening journal",
)
_SCREENING_EXPECTED = (
    "delivered and blocked traffic sets equal the allow and deny rule"
    " coverage, and the journal mirrors both sets"
)

ALL_REQUIREMENTS: dict[str, Requirement] = {
    r.id: r
    for r in (
        Requirement(
            "r1",
            RequirementKind.NET_FILTER,
            FilterLevel.NETWORK,
            "screen traffic on network sender and recipient addresses",
            _SCREENING_OBJECTIVE + "src, dst",
            _SCREENING_STEPS,
            _SCREENING_EXPECTED,
        ),
        Requirement(
            "r1-link",
            RequirementKind.LINK_FILTER,
            FilterLevel.LINK,
            "screen traffic on link-layer sender and recipient addresses",
            _SCREENING_OBJECTIVE + "src_link, dst_link",
            _SCREENING_STEPS,
            _SCREENING_EXPECTED,
        ),
        Requirement(
            "r1-fields",
            RequirementKind.FIELD_FILTER,
            FilterLevel.FIELDS,
            "screen traffic on service protocol and time-to-live fields",
            _SCREENING_OBJECTIVE + "proto, ttl",
            _SCREENING_STEPS,
            _SCREENING_EXPECTED,
        ),
        Requirement(
            "r2",
            RequirementKind.ADMIN_AUTH,
            None,
            "identify and authenticate the administrator before granting access",
            "show that access is granted exactly to registered credentials",
            (
                "register the administrator accounts on the product",
                "start a capture on the management segment",
                "attempt sign-on with registered and unregistered credentials",
                "probe screening behaviour before and after sign-on",
                "stop the capture",
                "export the sign-on journal",
            ),
            "registered credentials and only those are accepted, every attempt"
            " is journaled in order, and no credential crosses a segment in"
            " the clear",
        ),
        Requirement(
            "r3",
            RequirementKind.INTEGRITY_CONTROL,
            None,
            "detect unsanctioned modification of its own software and settings",
            "show that the integrity monitor flags exactly the edited files",
            (
                "record baseline digests for every monitored file",
                "edit a chosen subset of the files",
                "trigger the integrity check",
                "collect the per-file verdicts and alarm journal",
            ),
            "a file is flagged if and only if it was edited",
        ),
    )
}


@dataclass(frozen=True)
class Capabilities:
    """What the product under test is physically able to do.

    Developing a procedure for a requirement outside these capabilities is
    refused up front, before any traffic is generated.  The fields mirror
    the scenario's profile directives, whose names the refusals use.
    """

    link_layer: bool = True
    filter_fields: tuple[str, ...] = ("proto", "ttl")
    auth_mode: AuthMode | None = AuthMode.REMOTE
    integrity_trigger: bool = True


def scope_problems(claims: Sequence[str], scope: Sequence[str]) -> list[str]:
    """Why `claims` cannot be tested against the requirement list `scope`, in validate's words."""
    named = (
        ("unknown requirement id(s) claimed", [c for c in claims if c not in ALL_REQUIREMENTS]),
        ("unknown requirement id(s) listed", [r for r in scope if r not in ALL_REQUIREMENTS]),
        ("claim(s) outside the requirement list", [c for c in claims if c not in scope]),
    )
    found = (
        len(set(claims)) != len(claims) and "duplicate claim ids",
        len(set(scope)) != len(scope) and "duplicate requirement ids listed",
        *(ids and f"{what}: {listed(ids)}" for what, ids in named),
    )
    return [problem for problem in found if problem]


@dataclass(frozen=True)
class FirewallProfile:
    """A vendor's declaration: which catalog requirements the product claims, each once."""

    name: str
    claims: tuple[str, ...]
    capabilities: Capabilities = Capabilities()

    def __post_init__(self):
        refuse(*scope_problems(self.claims, self.claims))

    def develop_all(self) -> dict[str, TestProcedure]:
        """The one procedure per claimed requirement, keyed by its id, in claim order."""
        return {c: develop_procedure(self, ALL_REQUIREMENTS[c]) for c in self.claims}


@dataclass(frozen=True)
class TestProcedure:
    """One concrete procedure developed from a requirement.

    `steps` is the ordered execution plan; `expected` states the
    acceptance condition the verdict stage will check.
    """

    __test__ = False  # not a pytest case, despite the name

    id: str
    requirement_id: str
    objective: str
    steps: tuple[str, ...]
    expected: str


def capability_problem(kind: RequirementKind, caps: Capabilities) -> str | None:
    """Why a product with `caps` cannot be tested for a `kind` requirement, or None."""
    if kind is RequirementKind.LINK_FILTER and not caps.link_layer:
        return "link-layer is off"
    missing = [f for f in ("proto", "ttl") if f not in caps.filter_fields]
    if kind is RequirementKind.FIELD_FILTER and missing:
        return f"filter-fields lacks {listed(missing)}"
    if kind is RequirementKind.ADMIN_AUTH and caps.auth_mode is None:
        return "auth is none"
    if kind is RequirementKind.INTEGRITY_CONTROL and not caps.integrity_trigger:
        return "integrity-trigger is off"
    return None


def develop_procedure(profile: FirewallProfile, requirement: Requirement) -> TestProcedure:
    """Derive the one procedure that sources from `requirement` for this profile."""
    caps = profile.capabilities
    problem = capability_problem(requirement.kind, caps)
    refuse(problem and f"{requirement.id}: {problem}")
    steps = requirement.steps
    if requirement.kind is RequirementKind.ADMIN_AUTH and caps.auth_mode is AuthMode.LOCAL:
        # Console-port sign-on never touches a segment, so there is nothing to capture.
        steps = tuple(s for s in steps if "capture" not in s)
    texts = requirement.objective, steps, requirement.expected
    return TestProcedure(f"{profile.name}/{requirement.id}", requirement.id, *texts)


def claim_bit(profile: FirewallProfile, requirement_id: str) -> int:
    """1 when the profile claims the requirement, else 0."""
    return int(requirement_id in profile.claims)


@dataclass(frozen=True)
class CriterionResult:
    """One acceptance criterion within a procedure run: label, bit, witness text."""

    label: str
    bit: int
    detail: str = ""


@dataclass(frozen=True)
class ProcedureOutcome:
    """The validity verdict of one executed procedure.

    It names no procedure or requirement: the record that holds it does,
    and `aggregate_verdict` takes outcomes keyed by requirement id.
    """

    passed: int
    criteria: tuple[CriterionResult, ...] = ()

    def __post_init__(self):
        if self.criteria and self.passed != int(all(c.bit for c in self.criteria)):
            raise Refused("outcome bit disagrees with its criteria")

    @classmethod
    def from_criteria(cls, criteria: Sequence[CriterionResult]) -> "ProcedureOutcome":
        return cls(passed=int(all(c.bit for c in criteria)), criteria=tuple(criteria))


@dataclass(frozen=True)
class CampaignVerdict:
    """Final aggregation over the requirements in scope.

    `pairs` holds one (requirement_id, claimed, upheld) triple per
    requirement, in the order the scope listed them; `conform` is 1
    exactly when every row's claimed*upheld product is 1, i.e. when the
    sum of products reaches the scope size `n`.  An unclaimed
    requirement in scope is a documentation gap and sinks the verdict
    on its own.
    """

    pairs: tuple[tuple[str, int, int], ...]
    n: int
    conform: int

    def __post_init__(self):
        bits = [bit for _, claimed, upheld in self.pairs for bit in (claimed, upheld)]
        if set(bits) - {0, 1} or self.n != len(self.pairs) or self.conform != all(bits):
            raise Refused("bits must be 0 or 1, n the row count, conform 1 iff every bit is 1")


def aggregate_verdict(
    claims: Sequence[tuple[Requirement, int]],
    outcomes: Mapping[str, ProcedureOutcome],
) -> CampaignVerdict:
    """Fold per-procedure outcomes into the single campaign verdict.

    `claims` lists every requirement in scope with its claim bit, and
    `scope_problems` checks the claimed ids against the scope's.  Every
    claimed requirement needs an outcome, and outcomes may not name
    requirements outside the scope.  Each of these points at a campaign
    wiring bug, not a product defect, so it raises instead of failing
    the verdict.  Unclaimed requirements were never tested: their upheld
    bit is 0 unless an outcome was recorded anyway.
    """
    ids = [req.id for req, _ in claims]
    claimed = [req.id for req, bit in claims if bit]
    missing = set(claimed) - set(outcomes)
    extra = set(outcomes) - set(ids)
    parts = []
    if missing:
        parts.append(f"no outcome for {listed(sorted(missing))}")
    if extra:
        parts.append(f"outcome for requirement outside scope: {listed(sorted(extra))}")
    refuse(*scope_problems(claimed, ids), "; ".join(parts))
    pairs = []
    for req, bit in claims:
        outcome = outcomes.get(req.id)
        pairs.append((req.id, bit, outcome.passed if outcome else 0))
    conform = int(all(fr * fc == 1 for _, fr, fc in pairs))
    return CampaignVerdict(pairs=tuple(pairs), n=len(pairs), conform=conform)


# The profile under its old name, which `perfbench` times `develop_all` by.
Campaign = FirewallProfile
