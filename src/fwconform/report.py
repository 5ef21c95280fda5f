"""Campaign reports: one machine format, one human format.

The machine format is stable JSON (sorted keys, two-space indent,
trailing newline) under the schema id in `SCHEMA`; `parse_report`
rebuilds the full Report value from it, so writing and re-reading a
report loses nothing.  The wall-clock timestamp is the single
nondeterministic field, and `strip_timestamps` blanks it in either
format for byte-level comparisons.

One codec, driven by the dataclasses' own fields and type hints, writes
Report values as that text and reads them back: a dataclass is an object
keyed by field name, an enum its value, `bytes` hex text, a tuple an
array and `X | None` X or null.  `_codec` works out each type's writer
and decoder once per type and nesting depth; the writer is the only
encoder, and `report_to_dict` reads its text back.  Decoding checks
every value against its hint, JSON type and array length, so a malformed
report raises ValueError or TypeError instead of building a Report that
cannot be rendered.  A string is written only if it reads back the same,
so one holding a high surrogate just before a low one is refused.  The
schema's own knowledge is data: the field renames (`_RENAMES`), the
evidence tags (`_EVIDENCE_TAGS`) and the procedure record layout, which
`_codec` flattens into one object.

`Address` values are cached, because a report repeats a few hundred
hosts' addresses tens of thousands of times.  The codec keeps each
distinct address's text, and the `Address` of each (net, link) pair
whose members pass the same type checks as any other value's, in two
bounded `lru_cache`s that live as long as `_codec`'s own cache.
"""

from __future__ import annotations

import gc
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cache, lru_cache
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from types import UnionType
from typing import Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

from .errors import Refused, ReportFormatError, refuse
from .firewall import Address
from .formal import CampaignVerdict, ProcedureOutcome, RequirementKind, TestProcedure
from .optimizer import CampaignPlan
from .testbench import AuthEvidence, FilterEvidence, IntegrityEvidence

SCHEMA = "fw-conformance-report/1"

Evidence = Union[FilterEvidence, AuthEvidence, IntegrityEvidence]


@dataclass(frozen=True)
class ReportMetadata:
    tool: str
    version: str
    seed: int
    profile: str
    created_at: str
    faults: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProcedureRecord:
    """One executed procedure with its outcome and raw evidence."""

    procedure: TestProcedure
    kind: RequirementKind
    claim: int
    outcome: ProcedureOutcome
    evidence: Evidence


@dataclass(frozen=True)
class Report:
    metadata: ReportMetadata
    campaign: CampaignVerdict
    plan: CampaignPlan
    procedures: tuple[ProcedureRecord, ...]


# -- the codec ------------------------------------------------------------------

_RENAMES = {"requirement_id": "requirement", "variant_id": "variant"}
_EVIDENCE_TAGS = {"filter": FilterEvidence, "auth": AuthEvidence, "integrity": IntegrityEvidence}
_JSON_NAMES = {str: "string", int: "integer", list: "array", dict: "object", type(None): "null"}
_SURROGATE_PAIR = re.compile(r"[\ud800-\udbff][\udc00-\udfff]")
# Distinct addresses each `Address` cache keeps.  The largest benchmark report
# holds 203 among 60,042 occurrences, so every report fits many times over,
# while a stream of reports with ever new hosts holds at most this many.
_ADDRESSES = 4096


class _Codec(NamedTuple):
    write: Callable  # the value's JSON text, opened at the codec's depth
    decode: Callable | None  # None: the JSON value is the value
    json: frozenset  # the JSON types, as Python types, that a value may arrive as


def _show(value) -> str:
    try:
        return f"{json.dumps(value):.40}"
    except RecursionError:
        kind = "an object" if isinstance(value, dict) else "an array"
        return f"{kind} nested past the recursion limit"


def _write_str(value: str) -> str:
    """The JSON text of `value`, which must read back as the same string.

    JSON reads a high surrogate escaped just before a low one as one astral
    character, so a string that holds such a pair is refused.  Only text
    that holds a surrogate escape needs the closer look.
    """
    text = encode_basestring_ascii(value)
    if "\\ud" in text and _SURROGATE_PAIR.search(value):
        raise ValueError(f"a surrogate pair would read back as one character: {_show(value)}")
    return text


def _mismatch(where, accepted, values) -> TypeError:
    """The error for the first value whose JSON type its position does not accept."""
    name, ok, value = next(m for m in zip(where, accepted, values) if type(m[2]) not in m[1])
    expected = " or ".join(sorted(_JSON_NAMES[t] for t in ok))
    return TypeError(f"{name}: expected {expected}, got {_show(value)}")


def _fields(tp, prefix: str) -> list[tuple[str, str, object]]:
    """(key, attribute path, type hint) for each field of the dataclass `tp`."""
    hints = get_type_hints(tp)
    return [(_RENAMES.get(f.name, f.name), prefix + f.name, hints[f.name]) for f in fields(tp)]


@cache
def _codec(tp, depth: int) -> _Codec:
    """How to write and read values of type `tp` that open `depth` levels deep.

    Each object's key order and key prefixes are laid out here, once.
    """
    # A decoder is only ever handed a value whose JSON type its container has
    # checked against `json` before decoding any member; so str and int decode as is.
    if tp is str or tp is int:
        write = _write_str if tp is str else int.__repr__
        return _Codec(write, None, frozenset({tp}))
    if tp is bytes:
        return _Codec(lambda value: f'"{value.hex()}"', bytes.fromhex, frozenset({str}))
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode_enum(value):
            try:
                return members[value]
            except KeyError:
                raise ValueError(f"not a {tp.__name__} value: {_show(value)}") from None

        texts = {m: _codec(type(m.value), depth).write(m.value) for m in tp}
        return _Codec(texts.__getitem__, decode_enum, frozenset(map(type, members)))
    if tp is ProcedureRecord:
        # One flat object: the procedure's fields and the outcome's bit and criteria
        # sit beside the record's own.
        members = [m for m in _fields(tp, "") if m[1] not in ("procedure", "outcome")]
        members += _fields(TestProcedure, "procedure.") + _fields(ProcedureOutcome, "outcome.")
        nested = _object_codec(tp, depth, members, [])

        def decode_record(data):
            return nested.decode({**data, "procedure": data, "outcome": data})

        return _Codec(nested.write, decode_record, frozenset({dict}))
    if tp is Address:
        plain = _object_codec(tp, depth, _fields(tp, ""), [], lru_cache(_ADDRESSES)(Address))
        return plain._replace(write=lru_cache(_ADDRESSES)(plain.write))
    if tp == Evidence:
        by_type = {
            cls: _object_codec(cls, depth, _fields(cls, ""), [("type", tag)])
            for tag, cls in _EVIDENCE_TAGS.items()
        }

        def decode_evidence(data):
            if data["type"] not in _EVIDENCE_TAGS:
                raise ValueError(f"unknown evidence type {_show(data['type'])}")
            return by_type[_EVIDENCE_TAGS[data["type"]]].decode(data)

        return _Codec(lambda ev: by_type[type(ev)].write(ev), decode_evidence, frozenset({dict}))
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):  # X | None
        (some,) = [a for a in args if a is not type(None)]
        write, dec, json_types = _codec(some, depth)
        return _Codec(
            lambda v: "null" if v is None else write(v),
            dec and (lambda v: None if v is None else dec(v)),
            json_types | {type(None)},
        )
    inner, close = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if get_origin(tp) is tuple and args[-1] is Ellipsis:
        write, dec, json_types = _codec(args[0], depth + 1)
        head, sep, tail = "[" + inner, "," + inner, close + "]"

        def decode_array(value):
            for item in value:
                if type(item) not in json_types:
                    raise _mismatch(range(len(value)), repeat(json_types), value)
            return tuple(value) if dec is None else tuple(map(dec, value))

        return _Codec(
            lambda v: f"{head}{sep.join(map(write, v))}{tail}" if v else "[]",
            decode_array,
            frozenset({list}),
        )
    if get_origin(tp) is tuple:  # a fixed-length row
        items = [_codec(a, depth + 1) for a in args]
        template = "[" + ",".join(inner + "%s" for _ in items) + close + "]"
        decode = _fixed_decoder(lambda *row: row, range(len(items)), items)

        def decode_row(value):
            if len(value) != len(items):
                raise ValueError(f"expected an array of {len(items)}, got {_show(value)}")
            return decode(value)

        return _Codec(_filler(template, items, tuple), decode_row, frozenset({list}))
    if is_dataclass(tp):
        schema = [("schema", SCHEMA)] if tp is Report else []
        return _object_codec(tp, depth, _fields(tp, ""), schema)
    raise TypeError(f"no report codec for {tp!r}")


def _object_codec(
    tp, depth: int, members: list, constants: list[tuple[str, str]], build: Callable | None = None
) -> _Codec:
    """An object with one member per field of `tp`, keyed by the field name or its rename.

    It is written from `members`, (key, attribute path, type) triples, and
    `constants`, (key, text) pairs, and decoded by `build`, `tp` by default.
    """
    keys, _, hints = zip(*_fields(tp, ""))
    decode = _fixed_decoder(build or tp, keys, [_codec(h, depth + 1) for h in hints])
    members = sorted(members)
    slots = [(key, "%s") for key, _, _ in members]
    slots += [(key, encode_basestring_ascii(text).replace("%", "%%")) for key, text in constants]
    inner = "\n" + "  " * (depth + 1)
    body = "".join(f",{inner}{encode_basestring_ascii(k)}: {s}" for k, s in sorted(slots))
    template = "{" + body[1:] + "\n" + "  " * depth + "}"
    items = [_codec(hint, depth + 1) for _, _, hint in members]
    write = _filler(template, items, attrgetter(*[path for _, path, _ in members]))
    return _Codec(write, decode, frozenset({dict}))


def _filler(template: str, items: list[_Codec], values: Callable) -> Callable:
    """Fill `template`'s slots with each item's text of the matching value."""
    writers = [c.write for c in items]
    return lambda obj: template % tuple([w(v) for w, v in zip(writers, values(obj))])


def _fixed_decoder(build: Callable, keys, items: list[_Codec]) -> Callable:
    """Decode the members at `keys`, one codec each, and `build` the value from them."""
    members = itemgetter(*keys)  # a tuple: every report object and row has two or more
    accepted = [c.json for c in items]
    checks = list(enumerate(accepted))
    decoders = [(i, c.decode) for i, c in enumerate(items) if c.decode is not None]

    # Plain loops rather than map(): they allocate nothing per member.
    def decode(data):
        values = members(data)
        for i, ok in checks:
            if type(values[i]) not in ok:
                raise _mismatch(keys, accepted, values)
        if decoders:
            values = list(values)
            for i, dec in decoders:
                values[i] = dec(values[i])
        return build(*values)

    return decode


def report_to_dict(report: Report) -> dict:
    """The report's JSON form, read back from its machine text."""
    return json.loads(_codec(Report, 0).write(report))


def report_from_dict(data: dict) -> Report:
    schema = data.get("schema")
    refuse(schema != SCHEMA and f"unknown report schema {schema!r}")
    report = _codec(Report, 0).decode(data)
    rows = {rid: (claimed, upheld) for rid, claimed, upheld in report.campaign.pairs}
    for rec in report.procedures:
        if rows.get(rec.procedure.requirement_id) != (rec.claim, rec.outcome.passed):
            raise ValueError(f"{rec.procedure.id}: claim or passed bit differs from its pairs row")
    return report


# -- rendering -----------------------------------------------------------------

def export_report(report: Report, fmt: str = "machine") -> str:
    if fmt == "machine":
        return _codec(Report, 0).write(report) + "\n"
    if fmt == "human":
        return render_human(report)
    raise Refused(f"unknown report format {fmt!r}")


@contextmanager
def paused_collector():
    """Pause the cycle collector, then restore the caller's setting.

    For building a large value that outlives the call, a report or a
    campaign's evidence: collector passes over it as it grows find nothing
    to free and only cost time.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@paused_collector()
def parse_report(text: str) -> Report:
    """Inverse of the machine format; raises ReportFormatError on anything off."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ReportFormatError(f"malformed report: expected a JSON object, got {_show(data)}")
        return report_from_dict(data)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"not valid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise ReportFormatError(f"malformed report: {exc}") from None


def render_human(report: Report) -> str:
    """Terminal summary; never prints a password, whatever the evidence holds."""
    upheld = sum(c * p for _, c, p in report.campaign.pairs)
    word = "CONFORM" if report.campaign.conform else "NONCONFORM"
    meta = report.metadata
    lines = [
        f"conformance verdict: {word} ({upheld}/{report.campaign.n} claims upheld)",
        f"profile: {meta.profile}",
        f"tool: {meta.tool} {meta.version}, seed {meta.seed}",
        f"created: {meta.created_at}",
    ]
    if meta.faults:
        lines.append("faults injected: " + ", ".join(meta.faults))
    lines.append("")
    lines += render_plan(report.plan, "plan")
    for rec in report.procedures:
        status = "PASS" if rec.outcome.passed else "FAIL"
        lines.append("")
        lines.append(f"{rec.procedure.id}  [{rec.kind.value}]  {status}")
        lines.append(f"  objective: {rec.procedure.objective}")
        for c in rec.outcome.criteria:
            mark = "ok" if c.bit else "FAIL"
            detail = f": {c.detail}" if c.detail else ""
            lines.append(f"  [{mark}] {c.label}{detail}")
    return "\n".join(lines) + "\n"


def render_plan(plan: CampaignPlan, heading: str) -> list[str]:
    """The plan's lines: `heading` with the totals, then each chosen variant."""
    budget = "unlimited" if plan.budget is None else str(plan.budget)
    lines = [
        f"{heading}: total time {plan.total_time}, cost {plan.total_cost}, budget {budget}"
    ]
    for v in plan.chosen:
        lines.append(f"  {v.requirement_id}: {v.variant_id} (time {v.time}, cost {v.cost})")
    return lines


def strip_timestamps(text: str) -> str:
    """Blank the creation timestamp in either report format."""
    text = re.sub(r'"created_at": "[^"]*"', '"created_at": ""', text)
    return re.sub(r"^created: .*$", "created:", text, flags=re.MULTILINE)
