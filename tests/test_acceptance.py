"""The workbench acceptance gate: seven checks, one test each.

Every test prints a single pass/fail line straight to the terminal
(bypassing pytest's capture) and enforces its own runtime budget where
one applies.  The random checks compare the package against the
from-scratch evaluators in `_oracles`, never against itself.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

import fwconform.cli as cli
from _oracles import oracle_conform, oracle_forwarded_tags
from _support import brute_force_plan, check_bijectivity
from fwconform.campaign import run_campaign
from fwconform.errors import Infeasible
from fwconform.firewall import (
    AdminAccount,
    Address,
    AuthMode,
    Fault,
    FileArtifact,
    FilterRule,
    Mutation,
    RuleAction,
)
from fwconform.formal import (
    ALL_REQUIREMENTS,
    Capabilities,
    CriterionResult,
    FirewallProfile,
    ProcedureOutcome,
    RequirementKind,
    aggregate_verdict,
)
from fwconform.optimizer import ProcedureVariant, optimize_plan
from fwconform.report import strip_timestamps
from fwconform.scenario import load_scenario
from fwconform.testbench import (
    FilterLevel,
    Host,
    TrafficSpec,
    build_testbench,
    run_auth_procedure,
    run_filter_procedure,
    run_integrity_procedure,
)
from fwconform.verdict import (
    ATTEMPTS_JOURNALED,
    DETECTIONS_MATCH,
    DROP_MATCHES_DENY,
    FORWARD_MATCHES_ALLOW,
    JOURNAL_MATCHES_DROP,
    JOURNAL_MATCHES_FORWARD,
    NO_PLAINTEXT_CREDENTIALS,
    UNREGISTERED_REJECTED,
    evaluate_auth_criteria,
    evaluate_filter_criteria,
    evaluate_integrity_criteria,
)

REFERENCE = Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn"

EXT = [
    Host("ext1", Address("198.51.100.10", "02:00:5e:10:00:01")),
    Host("ext2", Address("198.51.100.11", "02:00:5e:10:00:02")),
]
INT = [
    Host("int1", Address("203.0.113.20", "02:00:5e:20:00:01")),
    Host("int2", Address("203.0.113.21", "02:00:5e:20:00:02")),
]

_RULE_EQS = {FORWARD_MATCHES_ALLOW, DROP_MATCHES_DENY}

# Which procedures must fail, and on which criteria, when one fault is
# injected into the reference campaign.  Anything not listed must pass.
ATTRIBUTION = {
    "invert_rule:0": {
        "r1": _RULE_EQS,
        "r1-link": _RULE_EQS,
        "r1-fields": _RULE_EQS,
    },
    "ignore_field:link": {
        "r1-link": _RULE_EQS,
        "r1-fields": {DROP_MATCHES_DENY},
    },
    "ignore_field:proto": {"r1-fields": _RULE_EQS},
    "ignore_field:ttl": {"r1-fields": _RULE_EQS},
    "skip_journal:pass_allowed": {
        "r1": {JOURNAL_MATCHES_FORWARD},
        "r1-link": {JOURNAL_MATCHES_FORWARD},
        "r1-fields": {JOURNAL_MATCHES_FORWARD},
    },
    "skip_journal:pass_denied": {
        "r1": {JOURNAL_MATCHES_DROP},
        "r1-link": {JOURNAL_MATCHES_DROP},
        "r1-fields": {JOURNAL_MATCHES_DROP},
    },
    "accept_any_password": {"r2": {UNREGISTERED_REJECTED}},
    "accept_unknown_id": {"r2": {UNREGISTERED_REJECTED}},
    "omit_auth_journal": {"r2": {ATTEMPTS_JOURNALED}},
    "leak_credentials": {"r2": {NO_PLAINTEXT_CREDENTIALS}},
    "blind_integrity:screen.conf": {"r3": {DETECTIONS_MATCH}},
}


@contextmanager
def criterion(capfd, number, title, limit=None):
    """Run one acceptance check, then print its verdict line unconditionally."""
    started = time.perf_counter()
    note = {}
    ok = False
    try:
        yield note
        if limit is not None:
            elapsed = time.perf_counter() - started
            assert elapsed < limit, f"runtime {elapsed:.2f}s over the {limit:.0f}s limit"
        ok = True
    finally:
        elapsed = time.perf_counter() - started
        verdict = "pass" if ok else "FAIL"
        detail = f" ({note['detail']})" if "detail" in note else ""
        clock = f" [{elapsed:.2f}s < {limit:.0f}s]" if limit is not None else ""
        with capfd.disabled():
            print(f"acceptance {number}/7 {title}: {verdict}{detail}{clock}")


def _supports(caps, requirement):
    if requirement.kind is RequirementKind.LINK_FILTER:
        return caps.link_layer
    if requirement.kind is RequirementKind.FIELD_FILTER:
        return {"proto", "ttl"} <= set(caps.filter_fields)
    if requirement.kind is RequirementKind.ADMIN_AUTH:
        return caps.auth_mode is not None
    if requirement.kind is RequirementKind.INTEGRITY_CONTROL:
        return caps.integrity_trigger
    return True


def test_1_formal_model_invariants(capfd):
    with criterion(capfd, 1, "formal model invariants", limit=5.0) as note:
        rng = random.Random(20260814)
        for i in range(1000):
            caps = Capabilities(
                link_layer=rng.random() < 0.8,
                filter_fields=rng.choice([(), ("proto",), ("ttl",), ("proto", "ttl")]),
                auth_mode=rng.choice([None, AuthMode.LOCAL, AuthMode.REMOTE]),
                integrity_trigger=rng.random() < 0.8,
            )
            supported = [
                rid for rid, req in ALL_REQUIREMENTS.items() if _supports(caps, req)
            ]
            claims = tuple(rng.sample(supported, rng.randrange(len(supported) + 1)))
            procedures = FirewallProfile(f"prod{i}", claims, caps).develop_all()
            bit, breaks = check_bijectivity(
                [ALL_REQUIREMENTS[c] for c in claims], list(procedures.values())
            )
            assert (bit, breaks) == (1, ())
            assert len({p.id for p in procedures.values()}) == len(claims)
            assert FirewallProfile(f"prod{i}", claims, caps).develop_all() == procedures

        scope_reqs = [ALL_REQUIREMENTS[r] for r in ("r1", "r2", "r3")]
        patterns = 0
        for frs in product((0, 1), repeat=3):
            for fcs in product((0, 1), repeat=3):
                outcomes = {
                    req.id: ProcedureOutcome(
                        passed=fc,
                        criteria=(CriterionResult("probe", fc, ""),),
                    )
                    for req, fc in zip(scope_reqs, fcs)
                }
                verdict = aggregate_verdict(list(zip(scope_reqs, frs)), outcomes)
                assert verdict.conform == oracle_conform(frs, fcs)
                patterns += 1
        note["detail"] = f"1000 random catalogs bijective, {patterns}/64 verdict bit patterns"


def test_2_screening_oracle_equivalence(capfd):
    with criterion(capfd, 2, "screening oracle equivalence", limit=30.0) as note:
        rng = random.Random(77)
        spoof = "02:00:5e:ff:00:99"
        runs = 0
        for _ in range(500):
            ext = [
                Host(f"e{i}", Address(f"198.51.100.{10 + i}", f"02:00:5e:10:00:{i + 1:02x}"))
                for i in range(rng.randrange(1, 5))
            ]
            int_ = [
                Host(f"i{i}", Address(f"203.0.113.{20 + i}", f"02:00:5e:20:00:{i + 1:02x}"))
                for i in range(rng.randrange(1, 5))
            ]
            macs = [h.address.link for h in ext + int_] + [spoof, None]
            rules = [
                FilterRule(
                    rng.choice((RuleAction.ALLOW, RuleAction.DENY)),
                    rng.choice(ext).address.net,
                    rng.choice(int_).address.net,
                    order=order,
                    src_link=rng.choice(macs),
                    dst_link=rng.choice(macs),
                    proto=rng.choice((None, None, 6, 17)),
                    ttl_min=rng.choice((None, None, 10, 64)),
                    ttl_max=rng.choice((None, None, 80, 255)),
                )
                for order in range(rng.randrange(0, 17))
            ]
            traffic = [
                TrafficSpec(
                    rng.choice(ext).name,
                    rng.choice(int_).name,
                    proto=rng.choice((None, 6, 17)),
                    ttl=rng.choice((None, 5, 64, 200)),
                    src_link=rng.choice((None, None, spoof)),
                )
                for _ in range(rng.randrange(1, 13))
            ]
            constrained = any(r.constrains_fields for r in rules)
            level = rng.choice(
                (FilterLevel.NETWORK, FilterLevel.LINK, FilterLevel.FIELDS)
                if constrained
                else (FilterLevel.NETWORK, FilterLevel.LINK)
            )
            bench = build_testbench(ext, int_, rules=rules, seed=rng.randrange(2**32))
            evidence = run_filter_procedure(bench, level, traffic)
            forwarded = {p.payload_tag for p in evidence.packet_out}
            assert forwarded == oracle_forwarded_tags(rules, evidence.packet_in)
            results = evaluate_filter_criteria(evidence)
            assert len(results) == 4 and all(r.bit == 1 for r in results)
            runs += 1
        note["detail"] = f"{runs} random benches agree with the brute-force matcher"


def test_3_fault_detection_completeness(capfd):
    with criterion(capfd, 3, "fault detection completeness") as note:
        scenario = load_scenario(str(REFERENCE))
        kinds = set()
        for spec, expected in ATTRIBUTION.items():
            fault = Fault.parse(spec)
            kinds.add(fault.name)
            report = run_campaign(scenario, faults=(fault,))
            assert report.campaign.conform == 0, spec
            failed = {}
            for rec in report.procedures:
                broken = {c.label for c in rec.outcome.criteria if c.bit == 0}
                if broken:
                    failed[rec.procedure.requirement_id] = broken
                for c in rec.outcome.criteria:
                    assert c.bit == 1 or c.detail, (spec, c.label)
            assert failed == expected, spec
        assert len(kinds) == 8
        note["detail"] = (
            f"{len(ATTRIBUTION)} variants across {len(kinds)}/8 fault kinds,"
            " each pinned to its criterion"
        )


def test_4_signon_biconditional(capfd):
    with criterion(capfd, 4, "sign-on biconditional", limit=5.0) as note:
        ids = ("AdminOne", "AdminTwo", "AdminThree")
        pwds = ("Pwd!One", "Pwd!Two", "Pwd!Three")
        universe = ids + pwds
        accounts = [AdminAccount(i, p) for i, p in zip(ids, pwds)]
        registered = set(zip(ids, pwds))
        attempts = [(a, b) for a in universe for b in universe]
        rules = [FilterRule(RuleAction.ALLOW, "198.51.100.10", "203.0.113.20", order=0)]

        bench = build_testbench(EXT, INT, rules=rules, accounts=accounts, seed=11)
        evidence = run_auth_procedure(bench, attempts)
        assert len(evidence.attempts) == 36
        for attempt in evidence.attempts:
            expected = int((attempt.identifier, attempt.password) in registered)
            assert attempt.granted == expected, (attempt.identifier, attempt.password)
        assert evidence.findings == ()
        assert all(r.bit == 1 for r in evaluate_auth_criteria(evidence))

        leak = (Fault.parse("leak_credentials"),)
        leaky_bench = build_testbench(
            EXT, INT, rules=rules, accounts=accounts, faults=leak, seed=11
        )
        leaky = run_auth_procedure(leaky_bench, attempts)
        assert len(leaky.findings) >= 1
        results = evaluate_auth_criteria(leaky)
        assert next(r for r in results if r.label == NO_PLAINTEXT_CREDENTIALS).bit == 0
        note["detail"] = (
            "36/36 credential pairs granted iff registered, journal complete,"
            f" 0 findings clean, {len(leaky.findings)} leaking"
        )


def test_5_integrity_matching(capfd):
    with criterion(capfd, 5, "integrity detection matching", limit=5.0) as note:
        file_ids = [f"f{i}.dat" for i in range(6)]
        blinded = file_ids[0]
        subsets = 0
        for chosen in product((0, 1), repeat=6):
            mutations = [
                Mutation(fid, "append", data=b"!")
                for fid, flag in zip(file_ids, chosen)
                if flag
            ]

            def fresh(faults=()):
                files = [FileArtifact(fid, f"content {fid}".encode()) for fid in file_ids]
                return build_testbench(EXT, INT, files=files, faults=faults)

            evidence = run_integrity_procedure(fresh(), mutations)
            truth = dict(zip(file_ids, chosen))
            for rec in evidence.files:
                assert rec.modified == truth[rec.file_id]
                assert rec.detected == rec.modified
            (row,) = evaluate_integrity_criteria(evidence)
            assert row.bit == 1

            blind_fault = Fault.parse("blind_integrity:" + blinded)
            blind = run_integrity_procedure(fresh((blind_fault,)), mutations)
            (row,) = evaluate_integrity_criteria(blind)
            assert row.bit == int(not truth[blinded])
            subsets += 1
        note["detail"] = (
            f"{subsets}/64 edit subsets matched per file;"
            " the blinded product fails exactly the 32 subsets touching its file"
        )


def test_6_optimizer_optimality(capfd):
    with criterion(capfd, 6, "planner optimality", limit=10.0) as note:
        worked = {
            "r1": [ProcedureVariant("r1", "slow", 5, 1), ProcedureVariant("r1", "fast", 2, 4)],
            "r2": [ProcedureVariant("r2", "only", 3, 1)],
        }
        assert optimize_plan(worked, budget=5).total_time == 5
        assert optimize_plan(worked, budget=4).total_time == 8

        rng = random.Random(4242)
        instances = 0
        infeasible = 0
        for _ in range(200):
            catalog = {}
            for i in range(rng.randrange(1, 7)):
                rid = f"r{i}"
                catalog[rid] = [
                    ProcedureVariant(rid, f"v{j}", rng.randrange(0, 12), rng.randrange(0, 12))
                    for j in range(rng.randrange(1, 6))
                ]
            budget = rng.choice([None] + list(range(30)))
            try:
                fast = optimize_plan(catalog, budget)
            except Infeasible:
                with pytest.raises(Infeasible):
                    brute_force_plan(catalog, budget)
                infeasible += 1
                instances += 1
                continue
            slow = brute_force_plan(catalog, budget)
            assert fast.total_time == slow.total_time
            assert fast.total_cost == slow.total_cost
            assert fast.chosen == slow.chosen
            instances += 1
        note["detail"] = (
            f"worked example frozen, {instances} random instances"
            f" ({infeasible} infeasible) agree with enumeration"
        )


def test_7_end_to_end_determinism(capfd, tmp_path):
    with criterion(capfd, 7, "end-to-end determinism") as note:
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(["run", str(REFERENCE), "--out", str(first)]) == 0
        assert cli.main(["run", str(REFERENCE), "--out", str(second)]) == 0
        text_a = first.read_text()
        assert strip_timestamps(text_a) == strip_timestamps(second.read_text())
        assert json.loads(text_a)["campaign"]["conform"] == 1

        for spec, expected in ATTRIBUTION.items():
            out = tmp_path / "faulty.json"
            code = cli.main(["run", str(REFERENCE), "--out", str(out), "--inject", spec])
            assert code == 1, spec
            data = json.loads(out.read_text())
            assert data["campaign"]["conform"] == 0, spec
            failed = {
                rec["requirement"]: {c["label"] for c in rec["criteria"] if c["bit"] == 0}
                for rec in data["procedures"]
                if any(c["bit"] == 0 for c in rec["criteria"])
            }
            assert failed == expected, spec
        note["detail"] = (
            "reference report byte-stable past the timestamp, conform=1 clean,"
            f" {len(ATTRIBUTION)}/11 injections attributed right"
        )
