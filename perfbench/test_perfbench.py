"""Tests of the benchmark's own parts: generator, ground-truth checks, tracer.

    python3 -m pytest perfbench
"""

from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import pytest

import run
import scengen
from tracer import Tracer

fw = run._import_package()

SMALL = {
    "near-misses": scengen.Shape(external=7, internal=5, rules=14, constrained=5, near_misses=True),
    "plain": scengen.Shape(external=9, internal=8, rules=4, constrained=1, near_misses=False),
}


@pytest.mark.parametrize("name", sorted(scengen.SHAPES))
@pytest.mark.parametrize("seed", [0, 1, 97])
def test_workload_scenarios_validate_clean(name, seed):
    shape = scengen.SHAPES[name]
    generated = scengen.generate(shape, seed, name)
    scenario = fw.parse_scenario(generated.text)
    assert fw.validate_scenario(scenario) == []
    assert len(scenario.external) == shape.external
    assert len(scenario.internal) == shape.internal
    assert len(scenario.rules) == shape.rules
    assert sum(r.constrains_fields for r in scenario.rules) == shape.constrained
    per_pair = shape.external * shape.internal
    assert generated.probes == len(scenario.traffic)
    assert generated.probes == per_pair + (3 * shape.constrained if shape.near_misses else 0)


def test_same_seed_same_text_and_other_seeds_differ():
    shape = scengen.SHAPES["grid-screen"]
    first = scengen.generate(shape, 5, "g")
    assert scengen.generate(shape, 5, "g") == first
    assert scengen.generate(shape, 6, "g").text != first.text


@pytest.mark.parametrize("shape", sorted(SMALL))
@pytest.mark.parametrize("seed", range(6))
def test_compliant_campaign_matches_the_constructed_counts(shape, seed):
    generated = scengen.generate(SMALL[shape], seed, "small")
    report = fw.run_campaign(fw.parse_scenario(generated.text))
    case = run.Case("compliant", None, None, generated.expected)
    assert run.check_verdict(case, report) == []
    seen = {
        rec.evidence.level.value: len(rec.evidence.packet_out)
        for rec in report.procedures
        if hasattr(rec.evidence, "level")
    }
    assert seen == {level: fwd for level, (fwd, _) in generated.expected.items()}


def test_a_defective_product_is_counted_as_a_wrong_verdict():
    generated = scengen.generate(SMALL["near-misses"], 3, "small")
    scenario = fw.parse_scenario(generated.text)
    case = run.Case("compliant", None, None, generated.expected)
    for spec in ("invert_rule:0", "ignore_field:ttl"):
        report = fw.run_campaign(scenario, faults=(fw.Fault.parse(spec),))
        assert run.check_verdict(case, report), spec


def test_every_fault_sweep_case_passes_its_checks():
    workload = run._load(fw, "fault-sweep", seed=11)
    runner = run.Runner(fw, workload)
    for case in workload.sweep:
        runner.cycle(case)
    assert (runner.attempted, runner.failed) == (12, 0)


def test_fault_sweep_check_wants_the_expected_labels():
    workload = run._load(fw, "fault-sweep", seed=0)
    compliant = fw.run_campaign(workload.scenario)
    faulty = fw.run_campaign(workload.scenario, faults=(fw.Fault.parse("ignore_field:ttl"),))
    sweep = {case.label: case for case in workload.sweep}
    assert run.check_verdict(sweep["ignore_field:ttl"], compliant)
    assert run.check_verdict(sweep["compliant"], faulty)
    # Failing more than the table asks for is allowed.
    superset = replace(sweep["ignore_field:ttl"], failing={"r1-fields": {run._DROP}})
    assert run.check_verdict(superset, faulty) == []


def test_tracer_self_times_add_up_and_names_are_restored():
    owner = SimpleNamespace()
    owner.leaf = lambda: sum(range(2000))
    owner.outer = lambda: owner.leaf() + owner.leaf()
    original = owner.outer
    tracer = Tracer()
    tracer.campaign_id = 4
    with tracer.installed([("outer", owner, "outer"), ("leaf", owner, "leaf")], []):
        t0 = perf_counter()
        owner.outer()
        wall = perf_counter() - t0
    assert owner.outer is original
    own = tracer.self_times()
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "leaf", "leaf"]
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.roots() == [0, 0, 0]
    assert sum(own) == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-9)
    assert 0 <= sum(own) <= wall
    assert set(tracer.per_campaign(own)["leaf"]) == {4}
