"""Exception types raised across the toolkit."""

from __future__ import annotations


class FwconformError(Exception):
    """Base class for every error this package raises on purpose."""


class UnsupportedRequirement(FwconformError):
    """The product profile lacks the capability surface a procedure needs."""


class MisalignedCampaign(FwconformError):
    """Claims and procedure outcomes do not cover the same requirements."""


class UnknownFile(FwconformError):
    """A file id is not part of the monitored file set."""


class MechanismInactive(FwconformError):
    """An operation needs a subsystem that was never activated."""


class EmptySegment(FwconformError):
    """A bench segment has no hosts."""


class UnknownHost(FwconformError):
    """A host name is not declared in the bench topology."""


class InapplicableRule(FwconformError):
    """A rule cannot be exercised at the requested screening level."""


class InsufficientAttemptCoverage(FwconformError):
    """The sign-on attempt list misses one of the four id/password combinations."""


class NoMonitoredFiles(FwconformError, ValueError):
    """An integrity run was asked of a product that monitors no files."""


class DuplicateEntry(FwconformError, ValueError):
    """An inventory (rule orders, host names or addresses, account or file ids) repeats a key."""


class IncompleteEvidence(FwconformError):
    """An evidence bundle is missing one of its required artifacts."""


class Infeasible(FwconformError):
    """No full variant assignment fits inside the expense budget."""


class ScenarioError(FwconformError):
    """Base for scenario file problems; carries every problem found, not just the first."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ScenarioParseError(ScenarioError):
    """Syntactic problems, each message prefixed with its line number."""


class ScenarioValidationError(ScenarioError):
    """Cross-reference and consistency problems in a parsed scenario."""


class ReportFormatError(FwconformError):
    """A machine report does not match the documented schema."""
