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


def shown(value, text=repr) -> str:
    """How a refusal names a caller's value: `text(value)`, its repr by default; an int too
    long to write in decimal as ``[-]<N-bit integer>``, a container that cannot be, by kind."""
    try:
        return text(value)
    except (RecursionError, ValueError) as exc:  # nested too deep, or an int too long
        if isinstance(value, int):
            return f"{'-' * (value < 0)}<{value.bit_length()}-bit integer>"
        kind = "an object" if isinstance(value, dict) else "an array"
        if isinstance(exc, RecursionError):
            return f"{kind} nested past the recursion limit"
        return f"{kind} holding an integer too long to write"


def listed(values, sep: str = ", ") -> str:
    """The values joined by `sep`, each string as itself and anything else as `shown` names it."""
    return sep.join(shown(value, str) for value in values)


def type_problem(what: str, value, tp: type) -> str | None:
    """``<what> must be a string: <value>`` (or bytes, or an integer: no bool), or None."""
    ok = type(value) is int if tp is int else isinstance(value, tp)
    noun = {str: "a string", bytes: "bytes", int: "an integer"}[tp]
    return None if ok else f"{what} must be {noun}: {shown(value)}"


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
