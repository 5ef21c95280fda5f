"""Campaign reports: one machine format, one human format.

The machine format is stable JSON (sorted keys, two-space indent,
trailing newline) under the schema id in `SCHEMA`; `parse_report`
rebuilds the full Report value from it, so writing and re-reading a
report loses nothing.  The wall-clock timestamp is the single
nondeterministic field, and `strip_timestamps` blanks it in either
format for byte-level comparisons.

One codec maps Report values to JSON values and back, driven by the
dataclasses' own fields and type hints: a dataclass is an object keyed
by field name, an enum its value, `bytes` hex text, a tuple an array
and `X | None` X or null.  Each type's encoder and decoder is worked out
once and cached (`_codec`).  Decoding checks every value against its
hint, JSON type and array length, so a malformed report raises
ValueError or TypeError instead of building a Report that cannot be
rendered.  The schema's own knowledge is data: the field renames
(`_RENAMES`), the evidence tags (`_EVIDENCE_TAGS`) and the procedure
record layout, which `_codec` flattens into one object.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from functools import cache
from itertools import repeat
from operator import attrgetter, itemgetter
from types import UnionType
from typing import Callable, NamedTuple, Union, get_args, get_origin, get_type_hints

from .errors import ReportFormatError
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
_TAG_OF = {cls: tag for tag, cls in _EVIDENCE_TAGS.items()}
_JSON_NAMES = {str: "string", int: "integer", list: "array", dict: "object", type(None): "null"}


class _Codec(NamedTuple):
    encode: Callable | None  # None: the value is JSON as it stands
    decode: Callable | None  # None: the JSON value is the value
    json: frozenset  # the JSON types, as Python types, that a value may arrive as


def _show(value) -> str:
    return f"{json.dumps(value):.40}"


def _mismatch(where, accepted, values) -> TypeError:
    """The error for the first value whose JSON type its position does not accept."""
    name, ok, value = next(m for m in zip(where, accepted, values) if type(m[2]) not in m[1])
    expected = " or ".join(sorted(_JSON_NAMES[t] for t in ok))
    return TypeError(f"{name}: expected {expected}, got {_show(value)}")


@cache
def _codec(tp) -> _Codec:
    """How to encode and decode values of type `tp`, worked out once per type."""
    # A decoder is only ever handed a value whose JSON type its container has
    # checked against `json` before decoding any member; so str and int decode as is.
    if tp is str or tp is int:
        return _Codec(None, None, frozenset({tp}))
    if tp is bytes:
        return _Codec(bytes.hex, bytes.fromhex, frozenset({str}))
    if isinstance(tp, type) and issubclass(tp, Enum):
        members = {m.value: m for m in tp}

        def decode_enum(value):
            try:
                return members[value]
            except KeyError:
                raise ValueError(f"not a {tp.__name__} value: {_show(value)}") from None

        return _Codec(attrgetter("value"), decode_enum, frozenset(map(type, members)))
    if tp is ProcedureRecord:
        # One flat object: the procedure's and the outcome's fields sit beside
        # the record's own, and the outcome's procedure_id is the procedure's id.
        nested = _dataclass_codec(tp)

        def encode_record(rec):
            flat = nested.encode(rec)
            outcome = flat.pop("outcome")
            flat.update(flat.pop("procedure"), passed=outcome["passed"])
            flat["criteria"] = outcome["criteria"]
            return flat

        def decode_record(data):
            outcome = {**data, "procedure_id": data["id"]}
            return nested.decode({**data, "procedure": data, "outcome": outcome})

        return _Codec(encode_record, decode_record, frozenset({dict}))
    if tp == Evidence:
        def encode_evidence(evidence):
            return {"type": _TAG_OF[type(evidence)], **_codec(type(evidence)).encode(evidence)}

        def decode_evidence(data):
            if data["type"] not in _EVIDENCE_TAGS:
                raise ValueError(f"unknown evidence type {_show(data['type'])}")
            return _codec(_EVIDENCE_TAGS[data["type"]]).decode(data)

        return _Codec(encode_evidence, decode_evidence, frozenset({dict}))
    args = get_args(tp)
    if get_origin(tp) in (Union, UnionType):  # X | None
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec, json_types = _codec(inner)
        return _Codec(
            enc and (lambda v: None if v is None else enc(v)),
            dec and (lambda v: None if v is None else dec(v)),
            json_types | {type(None)},
        )
    if get_origin(tp) is tuple and args[-1] is Ellipsis:
        enc, dec, json_types = _codec(args[0])

        def decode_array(value):
            for item in value:
                if type(item) not in json_types:
                    raise _mismatch(range(len(value)), repeat(json_types), value)
            return tuple(value) if dec is None else tuple(map(dec, value))

        encode = list if enc is None else lambda v: list(map(enc, v))
        return _Codec(encode, decode_array, frozenset({list}))
    if get_origin(tp) is tuple:  # a fixed-length row
        items = [_codec(a) for a in args]
        decode = _fixed_decoder(lambda *row: row, range(len(items)), items)
        encoders = [c.encode for c in items]

        def encode_row(row):
            return [x if enc is None else enc(x) for enc, x in zip(encoders, row)]

        def decode_row(value):
            if len(value) != len(items):
                raise ValueError(f"expected an array of {len(items)}, got {_show(value)}")
            return decode(value)

        return _Codec(encode_row if any(encoders) else list, decode_row, frozenset({list}))
    if is_dataclass(tp):
        return _dataclass_codec(tp)
    raise TypeError(f"no report codec for {tp!r}")


def _fixed_decoder(build: Callable, keys, items: list[_Codec]) -> Callable:
    """Decode the members at `keys`, one codec each, and `build` the value from them."""
    members = itemgetter(*keys)  # a tuple: every report object and row has two or more
    accepted = [c.json for c in items]
    checks = list(enumerate(accepted))
    decoders = [(i, c.decode) for i, c in enumerate(items) if c.decode is not None]

    # Plain loops rather than map(): they allocate nothing, and temporaries per
    # member would trigger garbage-collector passes over the growing report.
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


def _dataclass_codec(tp) -> _Codec:
    """An object with one member per field, keyed by the field name or its rename."""
    hints = get_type_hints(tp)
    names = [f.name for f in fields(tp)]
    keys = [_RENAMES.get(n, n) for n in names]
    items = [_codec(hints[n]) for n in names]
    encoders = list(zip(names, keys, [c.encode for c in items]))

    def encode_object(obj):
        out = {}
        for name, key, enc in encoders:
            value = getattr(obj, name)
            out[key] = value if enc is None else enc(value)
        return out

    return _Codec(encode_object, _fixed_decoder(tp, keys, items), frozenset({dict}))


def report_to_dict(report: Report) -> dict:
    return {"schema": SCHEMA, **_codec(Report).encode(report)}


def report_from_dict(data: dict) -> Report:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown report schema {data.get('schema')!r}")
    return _codec(Report).decode(data)


# -- rendering -----------------------------------------------------------------

def export_report(report: Report, fmt: str = "machine") -> str:
    if fmt == "machine":
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    if fmt == "human":
        return render_human(report)
    raise ValueError(f"unknown report format {fmt!r}")


def parse_report(text: str) -> Report:
    """Inverse of the machine format; raises ReportFormatError on anything off."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ReportFormatError(f"malformed report: expected a JSON object, got {_show(data)}")
    try:
        return report_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
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
    budget = "unlimited" if report.plan.budget is None else str(report.plan.budget)
    lines.append("")
    lines.append(
        f"plan: total time {report.plan.total_time},"
        f" cost {report.plan.total_cost}, budget {budget}"
    )
    for v in report.plan.chosen:
        lines.append(f"  {v.requirement_id}: {v.variant_id} (time {v.time}, cost {v.cost})")
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


def strip_timestamps(text: str) -> str:
    """Blank the creation timestamp in either report format."""
    text = re.sub(r'"created_at": "[^"]*"', '"created_at": ""', text)
    return re.sub(r"^created: .*$", "created:", text, flags=re.MULTILINE)
