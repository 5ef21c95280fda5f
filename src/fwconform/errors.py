"""Exception types raised across the toolkit."""

from __future__ import annotations


class FwconformError(Exception):
    """Base class for every error this package raises on purpose."""


class Refused(FwconformError, ValueError):
    """An input the layer that owns the rule refuses, carrying that layer's text."""


def refuse(*problems: str | bool | None) -> None:
    """Raise `Refused` with the first problem given that is not None, False or empty."""
    for problem in problems:
        if problem:
            raise Refused(problem)


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
