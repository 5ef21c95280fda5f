"""Conformance-testing workbench for packet-screening products."""

__version__ = "0.1.0"

from .campaign import child_seed, run_campaign
from .errors import (
    FwconformError,
    Infeasible,
    Refused,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
)
from .firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Decision,
    Fault,
    FaultName,
    FileArtifact,
    FilterRule,
    Firewall,
    JournalEntry,
    JournalEvent,
    Mutation,
    Packet,
    RuleAction,
    Segment,
)
from .formal import (
    ALL_REQUIREMENTS,
    Campaign,
    CampaignVerdict,
    Capabilities,
    CriterionResult,
    FilterLevel,
    FirewallProfile,
    ProcedureOutcome,
    Requirement,
    RequirementKind,
    TestProcedure,
    aggregate_verdict,
    claim_bit,
    develop_procedure,
)
from .optimizer import CampaignPlan, ProcedureVariant, optimize_plan
from .report import Report, export_report, parse_report, strip_timestamps
from .scenario import (
    Scenario,
    check_scenario,
    load_scenario,
    parse_scenario,
    validate_scenario,
)
from .testbench import (
    Host,
    Testbench,
    TrafficSpec,
    build_testbench,
    generate_packets,
    run_auth_procedure,
    run_filter_procedure,
    run_integrity_procedure,
    scan_for_plaintext_credentials,
)
from .verdict import (
    PairSet,
    evaluate_auth_criteria,
    evaluate_filter_criteria,
    evaluate_integrity_criteria,
)
