"""Campaign reports: one machine format, one human format.

The machine format is stable JSON (sorted keys, two-space indent,
trailing newline) under the schema id in `SCHEMA`; `parse_report`
rebuilds the full Report value from it, so writing and re-reading a
report loses nothing.  The wall-clock timestamp is the single
nondeterministic field, and `strip_timestamps` blanks it in either
format for byte-level comparisons.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Union

from .errors import ReportFormatError
from .firewall import (
    AdminAccount,
    Address,
    AuthMode,
    FilterRule,
    JournalEntry,
    JournalEvent,
    Packet,
    RuleAction,
    Segment,
)
from .formal import (
    CampaignVerdict,
    CriterionResult,
    ProcedureOutcome,
    RequirementKind,
    TestProcedure,
)
from .optimizer import CampaignPlan, ProcedureVariant
from .testbench import (
    AuthAttemptResult,
    AuthEvidence,
    CredentialFinding,
    FileCheckRecord,
    FilterEvidence,
    FilterLevel,
    IntegrityEvidence,
)

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


# -- value <-> dict -----------------------------------------------------------

def _address_dict(a: Address) -> dict:
    return {"net": a.net, "link": a.link}


def _address_from(d: dict) -> Address:
    return Address(d["net"], d["link"])


def _packet_dict(p: Packet) -> dict:
    return {
        "src": _address_dict(p.src),
        "dst": _address_dict(p.dst),
        "proto": p.proto,
        "ttl": p.ttl,
        "payload_tag": p.payload_tag,
        "payload": p.payload.hex(),
        "ingress": p.ingress.value,
    }


def _packet_from(d: dict) -> Packet:
    return Packet(
        src=_address_from(d["src"]),
        dst=_address_from(d["dst"]),
        proto=d["proto"],
        ttl=d["ttl"],
        payload_tag=d["payload_tag"],
        payload=bytes.fromhex(d["payload"]),
        ingress=Segment(d["ingress"]),
    )


def _rule_dict(r: FilterRule) -> dict:
    return {
        "action": r.action.value,
        "src": r.src,
        "dst": r.dst,
        "src_link": r.src_link,
        "dst_link": r.dst_link,
        "proto": r.proto,
        "ttl_min": r.ttl_min,
        "ttl_max": r.ttl_max,
        "order": r.order,
    }


def _rule_from(d: dict) -> FilterRule:
    return FilterRule(
        action=RuleAction(d["action"]),
        src=d["src"],
        dst=d["dst"],
        src_link=d["src_link"],
        dst_link=d["dst_link"],
        proto=d["proto"],
        ttl_min=d["ttl_min"],
        ttl_max=d["ttl_max"],
        order=d["order"],
    )


def _entry_dict(e: JournalEntry) -> dict:
    return {"seq": e.seq, "event": e.event.value, "subject": list(e.subject)}


def _entry_from(d: dict) -> JournalEntry:
    return JournalEntry(d["seq"], JournalEvent(d["event"]), tuple(d["subject"]))


def _evidence_dict(ev: Evidence) -> dict:
    if isinstance(ev, FilterEvidence):
        return {
            "type": "filter",
            "level": ev.level.value,
            "rules": [_rule_dict(r) for r in ev.rules],
            "packet_in": [_packet_dict(p) for p in ev.packet_in],
            "packet_out": [_packet_dict(p) for p in ev.packet_out],
            "journal_allowed": [_entry_dict(e) for e in ev.journal_allowed],
            "journal_denied": [_entry_dict(e) for e in ev.journal_denied],
        }
    if isinstance(ev, AuthEvidence):
        return {
            "type": "auth",
            "mode": ev.mode.value,
            "accounts": [
                {"identifier": a.identifier, "password": a.password} for a in ev.accounts
            ],
            "attempts": [
                {"identifier": a.identifier, "password": a.password, "granted": a.granted}
                for a in ev.attempts
            ],
            "probes": [list(p) for p in ev.probes],
            "captures": [_packet_dict(p) for p in ev.captures],
            "journal": [_entry_dict(e) for e in ev.journal],
            "findings": [
                {
                    "attempt_index": f.attempt_index,
                    "account_id": f.account_id,
                    "piece": f.piece,
                    "payload_tag": f.payload_tag,
                }
                for f in ev.findings
            ],
        }
    return {
        "type": "integrity",
        "files": [
            {
                "file_id": r.file_id,
                "baseline_digest": r.baseline_digest,
                "final_digest": r.final_digest,
                "modified": r.modified,
                "detected": r.detected,
            }
            for r in ev.files
        ],
        "journal": [_entry_dict(e) for e in ev.journal],
    }


def _evidence_from(d: dict) -> Evidence:
    if d["type"] == "filter":
        return FilterEvidence(
            level=FilterLevel(d["level"]),
            rules=tuple(_rule_from(r) for r in d["rules"]),
            packet_in=tuple(_packet_from(p) for p in d["packet_in"]),
            packet_out=tuple(_packet_from(p) for p in d["packet_out"]),
            journal_allowed=tuple(_entry_from(e) for e in d["journal_allowed"]),
            journal_denied=tuple(_entry_from(e) for e in d["journal_denied"]),
        )
    if d["type"] == "auth":
        return AuthEvidence(
            mode=AuthMode(d["mode"]),
            accounts=tuple(
                AdminAccount(a["identifier"], a["password"]) for a in d["accounts"]
            ),
            attempts=tuple(
                AuthAttemptResult(a["identifier"], a["password"], a["granted"])
                for a in d["attempts"]
            ),
            probes=tuple(tuple(p) for p in d["probes"]),
            captures=tuple(_packet_from(p) for p in d["captures"]),
            journal=tuple(_entry_from(e) for e in d["journal"]),
            findings=tuple(
                CredentialFinding(
                    f["attempt_index"], f["account_id"], f["piece"], f["payload_tag"]
                )
                for f in d["findings"]
            ),
        )
    if d["type"] == "integrity":
        return IntegrityEvidence(
            files=tuple(
                FileCheckRecord(
                    r["file_id"],
                    r["baseline_digest"],
                    r["final_digest"],
                    r["modified"],
                    r["detected"],
                )
                for r in d["files"]
            ),
            journal=tuple(_entry_from(e) for e in d["journal"]),
        )
    raise ValueError(f"unknown evidence type {d['type']!r}")


def report_to_dict(report: Report) -> dict:
    return {
        "schema": SCHEMA,
        "metadata": {
            "tool": report.metadata.tool,
            "version": report.metadata.version,
            "seed": report.metadata.seed,
            "profile": report.metadata.profile,
            "created_at": report.metadata.created_at,
            "faults": list(report.metadata.faults),
        },
        "campaign": {
            "n": report.campaign.n,
            "conform": report.campaign.conform,
            "pairs": [list(p) for p in report.campaign.pairs],
        },
        "plan": {
            "budget": report.plan.budget,
            "total_time": report.plan.total_time,
            "total_cost": report.plan.total_cost,
            "chosen": [
                {
                    "requirement": v.requirement_id,
                    "variant": v.variant_id,
                    "time": v.time,
                    "cost": v.cost,
                }
                for v in report.plan.chosen
            ],
        },
        "procedures": [
            {
                "id": rec.procedure.id,
                "requirement": rec.procedure.requirement_id,
                "kind": rec.kind.value,
                "claim": rec.claim,
                "objective": rec.procedure.objective,
                "steps": list(rec.procedure.steps),
                "expected": rec.procedure.expected,
                "passed": rec.outcome.passed,
                "criteria": [
                    {"label": c.label, "bit": c.bit, "detail": c.detail}
                    for c in rec.outcome.criteria
                ],
                "evidence": _evidence_dict(rec.evidence),
            }
            for rec in report.procedures
        ],
    }


def report_from_dict(data: dict) -> Report:
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown report schema {data.get('schema')!r}")
    meta = data["metadata"]
    metadata = ReportMetadata(
        tool=meta["tool"],
        version=meta["version"],
        seed=meta["seed"],
        profile=meta["profile"],
        created_at=meta["created_at"],
        faults=tuple(meta["faults"]),
    )
    camp = data["campaign"]
    campaign = CampaignVerdict(
        pairs=tuple((p[0], p[1], p[2]) for p in camp["pairs"]),
        n=camp["n"],
        conform=camp["conform"],
    )
    plan_data = data["plan"]
    plan = CampaignPlan(
        chosen=tuple(
            ProcedureVariant(v["requirement"], v["variant"], v["time"], v["cost"])
            for v in plan_data["chosen"]
        ),
        total_time=plan_data["total_time"],
        total_cost=plan_data["total_cost"],
        budget=plan_data["budget"],
    )
    records = []
    for rec in data["procedures"]:
        procedure = TestProcedure(
            id=rec["id"],
            requirement_id=rec["requirement"],
            objective=rec["objective"],
            steps=tuple(rec["steps"]),
            expected=rec["expected"],
        )
        outcome = ProcedureOutcome(
            procedure_id=rec["id"],
            requirement_id=rec["requirement"],
            passed=rec["passed"],
            criteria=tuple(
                CriterionResult(c["label"], c["bit"], c["detail"]) for c in rec["criteria"]
            ),
        )
        records.append(
            ProcedureRecord(
                procedure=procedure,
                kind=RequirementKind(rec["kind"]),
                claim=rec["claim"],
                outcome=outcome,
                evidence=_evidence_from(rec["evidence"]),
            )
        )
    return Report(
        metadata=metadata, campaign=campaign, plan=plan, procedures=tuple(records)
    )


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
        raise ReportFormatError(
            f"malformed report: expected a JSON object, got {json.dumps(data):.40}"
        )
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
