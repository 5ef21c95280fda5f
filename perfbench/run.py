"""fwconform benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload grid-screen|wide-report|fault-sweep
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src/` directory. The benchmark measures `fwconform` from outside:
it builds the workload's scenario text from the seed, then repeats
campaign cycles on one thread for about S seconds. A cycle runs the
campaign, exports the machine report, parses it back, renders the human
report, and checks every result against ground truth the benchmark
knows independently of the package. A cycle that disagrees is counted
in `failed` and described on stderr.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` the public calls of every layer are wrapped in spans
(see tracer.py) and the line holds each layer's self time and call
counts per campaign, plus the tracing overhead; the spans are written to
``perfbench/out/spans-<workload>.csv``. End-to-end metrics come only
from untraced runs.

Workloads (see README.md for shapes and the layers each one loads):
  grid-screen  60x60 hosts, 400 rules, 11.7k probes: rules x packets
  wide-report  100x100 hosts, 10 rules, 30k probes: packet building, report codec
  fault-sweep  scenarios/reference.scn, compliant + 11 single faults per sweep
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import scengen
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = ROOT / "scenarios" / "reference.scn"
OUT = HERE / "out"
WORKLOADS = ("grid-screen", "wide-report", "fault-sweep")

SETUP_REPEATS = 12  # fresh processes per run; setup_s is their median
PARSE_REPEATS = 5  # in-process parse/validate spans per traced run
REREADS = 3  # parse_report + render_human repeats per cycle
TAIL = 90  # verdict_p90_s percentile; it needs ten campaigns beyond it

_FORWARD = "forwarded-set-matches-allow-rules"
_DROP = "dropped-set-matches-deny-rules"
_RULE_EQS = {_FORWARD, _DROP}
_FILTERS = ("r1", "r1-link", "r1-fields")

# The criteria each single fault must fail on the reference scenario:
# the acceptance suite's attribution table, written out independently.
# A campaign passes the check when its failing set is a superset, so
# later work may add labels without breaking the benchmark.
FAULT_SWEEP = {
    "invert_rule:0": {r: _RULE_EQS for r in _FILTERS},
    "ignore_field:link": {"r1-link": _RULE_EQS, "r1-fields": {_DROP}},
    "ignore_field:proto": {"r1-fields": _RULE_EQS},
    "ignore_field:ttl": {"r1-fields": _RULE_EQS},
    "skip_journal:pass_allowed": {r: {"allowed-journal-matches-forwarded-set"} for r in _FILTERS},
    "skip_journal:pass_denied": {r: {"denied-journal-matches-dropped-set"} for r in _FILTERS},
    "accept_any_password": {"r2": {"unregistered-credentials-rejected"}},
    "accept_unknown_id": {"r2": {"unregistered-credentials-rejected"}},
    "omit_auth_journal": {"r2": {"attempts-journaled-in-order"}},
    "leak_credentials": {"r2": {"no-plaintext-credentials-captured"}},
    "blind_integrity:screen.conf": {"r3": {"detections-match-modifications"}},
}

# Traced public calls: span name -> per-layer metric for its self time.
SELF_TIME_METRICS = {
    "parse_scenario": "scenario.parse_s",
    "validate_scenario": "scenario.validate_s",
    "resolve_rules": "scenario.resolve_s",
    "optimize_plan": "optimizer.plan_s",
    "Campaign.develop_all": "formal.develop_s",
    "aggregate_verdict": "formal.aggregate_s",
    "build_testbench": "testbench.build_s",
    "run_filter_procedure": "testbench.filter_s",
    "run_auth_procedure": "testbench.auth_s",
    "run_integrity_procedure": "testbench.integrity_s",
    "Firewall.filter_packet": "firewall.filter_packet_s",
    "evaluate_filter_criteria": "verdict.filter_eval_s",
    "evaluate_auth_criteria": "verdict.auth_eval_s",
    "evaluate_integrity_criteria": "verdict.integrity_eval_s",
    "run_campaign": "campaign.self_s",
    "report_to_dict": "report.to_dict_s",
    "export_report": "report.export_s",
    "parse_report": "report.parse_s",
    "render_human": "report.human_s",
}
CALL_METRICS = {
    "resolve_rules": "scenario.resolve_calls",
    "Firewall.filter_packet": "firewall.filter_packet_calls",
    "Testbench.host": "testbench.host_calls",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Case:
    """One campaign to run and what its report must show."""

    label: str
    faults: tuple | None  # None: the scenario's own (empty) fault list
    failing: dict | None  # None: compliant, every criterion must pass
    counts: dict | None  # level -> (forwarded, dropped) probes, when known


@dataclass
class Workload:
    name: str
    text: str
    path: Path
    scenario: object
    sweep: tuple[Case, ...]  # one pass of campaigns; the run repeats it


@dataclass(frozen=True)
class Sample:
    verdict_s: float
    run_s: float
    reread_s: tuple[float, ...]
    cycle_s: float
    report_bytes: int
    packets: int


def _import_package():
    if not (SRC / "fwconform" / "__init__.py").is_file():
        raise BenchError(f"no fwconform package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    fw = importlib.import_module("fwconform")
    if Path(fw.__file__).resolve().parent != SRC / "fwconform":
        raise BenchError(f"imported fwconform from {fw.__file__}, not from {SRC}")
    importlib.import_module("fwconform.campaign")
    return fw


def _load(fw, name: str, seed: int) -> Workload:
    if name == "fault-sweep":
        if not REFERENCE.is_file():
            raise BenchError(f"missing {REFERENCE}")
        text = REFERENCE.read_text(encoding="utf-8")
        sweep = (Case("compliant", None, None, None),) + tuple(
            Case(spec, (fw.Fault.parse(spec),), failing, None)
            for spec, failing in FAULT_SWEEP.items()
        )
    else:
        generated = scengen.generate(scengen.SHAPES[name], seed, f"{name}-{seed}")
        text = generated.text
        sweep = (Case("compliant", None, None, generated.expected),)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.scn"
    path.write_text(text, encoding="utf-8")
    scenario = fw.parse_scenario(text)
    problems = fw.validate_scenario(scenario)
    if problems:
        raise BenchError(f"{name} scenario does not validate: {problems[:3]}")
    if name == "fault-sweep":
        scenario = replace(scenario, seed=seed)  # as `fwconform run --seed` does
    return Workload(name, text, path, scenario, sweep)


# -- correctness ---------------------------------------------------------------


def check_verdict(case: Case, report) -> list[str]:
    """Where the report's verdict disagrees with the case's ground truth."""
    wrong = []
    failed: dict[str, set[str]] = {}
    for rec in report.procedures:
        broken = {c.label for c in rec.outcome.criteria if not c.bit}
        if broken:
            failed[rec.procedure.requirement_id] = broken
    if case.failing is None:
        if report.campaign.conform != 1 or failed:
            wrong.append(f"compliant product judged NONCONFORM: {failed}")
    else:
        if report.campaign.conform != 0:
            wrong.append("faulty product judged CONFORM")
        for req, labels in case.failing.items():
            missing = labels - failed.get(req, set())
            if missing:
                wrong.append(f"{req} should fail {sorted(missing)}")
    if case.counts is not None:
        seen = {
            ev.level.value: (len(ev.packet_out), len(ev.packet_in) - len(ev.packet_out))
            for ev in _filter_evidence(report)
        }
        if seen != case.counts:
            wrong.append(f"(forwarded, dropped) probes {seen}, expected {case.counts}")
    return wrong


def check_report(reexport, case: Case, report, text: str, reparsed, human: str) -> list[str]:
    wrong = check_verdict(case, report)
    if reexport(reparsed, "machine") != text:
        wrong.append("export_report(parse_report(text)) != text")
    word = "CONFORM" if case.failing is None else "NONCONFORM"
    if not human.startswith(f"conformance verdict: {word} "):
        wrong.append(f"human report does not open with the {word} verdict")
    return wrong


def _filter_evidence(report) -> list:
    """Evidence of the report's filter procedures, the ones with a level."""
    return [rec.evidence for rec in report.procedures if hasattr(rec.evidence, "level")]


# -- one cycle -------------------------------------------------------------------


class Runner:
    """Runs cycles and keeps the attempted/failed tally."""

    def __init__(self, fw, workload: Workload, rereads: int = 1):
        self.fw = fw
        self.rereads = rereads
        # Bound now, before any tracing, so the round-trip check stays
        # out of the trace.
        self.reexport = fw.export_report
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def _tally(self, case: Case, wrong: list[str]) -> None:
        self.attempted += 1
        if wrong:
            self.failed += 1
            if self.failed <= 5:
                print(f"wrong verdict [{case.label}]: {'; '.join(wrong)}", file=sys.stderr)

    def cycle(self, case: Case) -> Sample:
        """Campaign, export, rereads and checks, calling through module attributes.

        The untraced run rereads the report REREADS times: a large report
        gives only a handful of cycles per run, and `reread_s` needs more
        samples than that. The cycle time counts the first reread only.
        """
        fw = self.fw
        t0 = perf_counter()
        report = fw.run_campaign(self.workload.scenario, faults=case.faults)
        t1 = perf_counter()
        text = fw.export_report(report, "machine")
        t2 = perf_counter()
        rereads = []
        for _ in range(self.rereads):
            r0 = perf_counter()
            reparsed = fw.parse_report(text)
            human = fw.report.render_human(reparsed)
            rereads.append(perf_counter() - r0)
        c0 = perf_counter()
        self._tally(case, check_report(self.reexport, case, report, text, reparsed, human))
        size = len(text.encode())
        packets = sum(len(ev.packet_in) for ev in _filter_evidence(report))
        cycle_s = (t2 - t0) + rereads[0] + (perf_counter() - c0)
        return Sample(t1 - t0, t2 - t0, tuple(rereads), cycle_s, size, packets)

    def campaign_only(self, case: Case) -> float:
        """One untraced campaign with its verdict checked; returns its wall time."""
        t0 = perf_counter()
        report = self.fw.run_campaign(self.workload.scenario, faults=case.faults)
        elapsed = perf_counter() - t0
        self._tally(case, check_verdict(case, report))
        return elapsed


def repeat_sweeps(sweep, seconds: float, step, warmup: bool, between=None) -> list:
    """Run whole sweeps until the next one would overrun `seconds`.

    `step(case)` returns one result; the results of a warm-up sweep, when
    asked for, are dropped. At least one sweep is always kept. After each
    sweep, `between(elapsed)` may run work that is not part of a sweep.
    """
    if warmup:
        for case in sweep:
            step(case)
    results, sweep_times = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results += [step(case) for case in sweep]
        sweep_times.append(perf_counter() - t0)
        if between is not None:
            between(perf_counter() - start)
        if perf_counter() + statistics.median(sweep_times) > start + seconds:
            return results


# -- fresh processes ---------------------------------------------------------------


def _probe(path: Path, run: bool) -> tuple[float, list[str]]:
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(path)]
    if run:
        argv.append("run")
    # An installed package starts from byte-code caches, so the probes
    # may write them whatever the caller's environment says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        first = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read().split()
        code = proc.wait()
    if code != 0 or first.split() != ["ready", "0"]:
        raise BenchError(f"setup probe on {path.name} exited {code} after {first.strip()!r}")
    return elapsed, rest


class SetupSampler:
    """Fresh-process set-up probes, spread evenly over the measured window.

    The host's load drifts over seconds; probes taken in one burst would
    all see the same moment, and the median would drift with it.
    """

    def __init__(self, workload: Workload, seconds: float):
        self.path = workload.path
        self.interval = seconds / SETUP_REPEATS
        self.times: list[float] = []

    def __call__(self, elapsed: float = float("inf")) -> None:
        while len(self.times) < SETUP_REPEATS and elapsed >= len(self.times) * self.interval:
            self.times.append(_probe(self.path, run=False)[0])


def measure_peak_rss_mb(workload: Workload) -> float:
    _, rest = _probe(workload.path, run=True)
    if len(rest) != 2 or rest[0] != "rss":
        raise BenchError(f"run probe printed {rest!r}")
    return int(rest[1]) / 1024


# -- the two kinds of run ------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(fw, workload: Workload, seconds: float) -> tuple[Runner, dict]:
    peak_rss_mb = measure_peak_rss_mb(workload)  # also writes the byte-code caches
    setup = SetupSampler(workload, seconds)
    runner = Runner(fw, workload, REREADS)
    samples = repeat_sweeps(
        workload.sweep, seconds, runner.cycle, workload.name == "fault-sweep", setup
    )
    setup()  # whatever the window did not reach
    verdicts = [s.verdict_s for s in samples]
    verdict_s = statistics.median(verdicts)
    # Short of ten campaigns beyond the tail percentile (a handful of
    # large campaigns), the median is the highest percentile to report.
    if len(verdicts) * (100 - TAIL) >= 1000:
        verdict_tail_s = statistics.quantiles(verdicts, n=100)[TAIL - 1]
    else:
        verdict_tail_s = verdict_s
    packets = statistics.median(s.packets for s in samples)
    metrics = {
        "setup_s": _metric(statistics.median(setup.times), "s"),
        "verdict_s": _metric(verdict_s, "s"),
        "verdict_p90_s": _metric(verdict_tail_s, "s"),
        "run_s": _metric(statistics.median(s.run_s for s in samples), "s"),
        "reread_s": _metric(statistics.median(t for s in samples for t in s.reread_s), "s"),
        "packets_per_s": _metric(packets / verdict_s, "1/s"),
        "campaigns_per_s": _metric(1 / statistics.median(s.cycle_s for s in samples), "1/s"),
        "report_bytes": _metric(sum(s.report_bytes for s in samples) / len(samples), "B"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    print(
        f"{workload.name}: {len(samples)} timed campaigns,"
        f" {packets:.0f} filter probes per campaign",
        file=sys.stderr,
    )
    return runner, metrics


def _targets(fw):
    campaign = sys.modules["fwconform.campaign"]
    spans = [
        ("parse_scenario", fw, "parse_scenario"),
        ("validate_scenario", fw, "validate_scenario"),
        ("run_campaign", fw, "run_campaign"),
        ("export_report", fw, "export_report"),
        ("parse_report", fw, "parse_report"),
        ("render_human", fw.report, "render_human"),
        ("report_to_dict", fw.report, "report_to_dict"),
        ("Campaign.develop_all", fw.Campaign, "develop_all"),
        ("Firewall.filter_packet", fw.Firewall, "filter_packet"),
    ]
    spans += [
        (name, campaign, name)
        for name in (
            "resolve_rules",
            "optimize_plan",
            "aggregate_verdict",
            "build_testbench",
            "run_filter_procedure",
            "run_auth_procedure",
            "run_integrity_procedure",
            "evaluate_filter_criteria",
            "evaluate_auth_criteria",
            "evaluate_integrity_criteria",
        )
    ]
    counted = [("Testbench.host", fw.Testbench, "host")]
    return spans, counted


def traced(fw, workload: Workload, seconds: float) -> tuple[Runner, dict]:
    tracer = Tracer()
    spans, counted = _targets(fw)
    runner = Runner(fw, workload)
    # Scenario parses carry negative ids; campaigns count up from 1.
    parse_ids = [-(i + 1) for i in range(PARSE_REPEATS)]
    with tracer.installed(spans, counted):
        for parse_id in parse_ids:
            tracer.campaign_id = parse_id
            fw.validate_scenario(fw.parse_scenario(workload.text))
    tracer.campaign_id = 0

    packets: dict[int, int] = {}
    untraced_s: dict[int, float] = {}

    def step(case: Case) -> int:
        # Each traced cycle is paired with an untraced campaign right next
        # to it, alternating which goes first, so drift hits both alike.
        cid = tracer.campaign_id = tracer.campaign_id + 1
        if cid % 2:
            untraced_s[cid] = runner.campaign_only(case)
        with tracer.installed(spans, counted):
            packets[cid] = runner.cycle(case).packets
        if not cid % 2:
            untraced_s[cid] = runner.campaign_only(case)
        return cid

    warmup = workload.name == "fault-sweep"
    campaign_ids = repeat_sweeps(workload.sweep, seconds, step, warmup)
    tracer.write(OUT / f"spans-{workload.name}.csv")

    own = tracer.self_times()
    self_time = tracer.per_campaign(own)
    calls = tracer.per_campaign([1.0] * len(own))
    for (name, camp), n in tracer.counts.items():
        calls[name][camp] += n

    def median_of(per_campaign, ids=campaign_ids) -> float:
        return statistics.median(per_campaign.get(c, 0.0) for c in ids)

    metrics = {}
    for span, metric in SELF_TIME_METRICS.items():
        ids = parse_ids if span in ("parse_scenario", "validate_scenario") else campaign_ids
        metrics[metric] = _metric(median_of(self_time[span], ids), "s")
    for span, metric in CALL_METRICS.items():
        metrics[metric] = _metric(median_of(calls[span]), "count")
    metrics["testbench.packets"] = _metric(median_of(packets), "count")
    metrics["scenario.lines"] = _metric(len(workload.text.splitlines()), "count")

    # The self times of the spans under a run_campaign span add up to its
    # wall time; a gap would mean the tracer lost track of a parent.
    root = tracer.roots()
    campaign_nid = tracer.names.index("run_campaign")
    wall: dict[int, float] = {}
    self_sum: dict[int, float] = {}
    for index, top in enumerate(root):
        if tracer.name_id[top] == campaign_nid:
            camp = tracer.campaign[index]
            self_sum[camp] = self_sum.get(camp, 0.0) + own[index]
            if index == top:
                wall[camp] = tracer.end[index] - tracer.start[index]
    gap = max(abs(self_sum[c] - wall[c]) for c in campaign_ids)
    if gap > 1e-6:
        raise BenchError(f"layer self times miss run_campaign wall time by {gap:.3g} s")
    overhead = {c: wall[c] - untraced_s[c] for c in campaign_ids}
    metrics["trace.traced_verdict_s"] = _metric(median_of(wall), "s")
    metrics["trace.untraced_verdict_s"] = _metric(median_of(untraced_s), "s")
    metrics["trace.overhead_s"] = _metric(median_of(overhead), "s")
    metrics["trace.self_sum_s"] = _metric(median_of(self_sum), "s")
    print(
        f"{workload.name}: {len(campaign_ids)} traced campaigns, {len(own)} spans"
        f" written to {OUT / f'spans-{workload.name}.csv'}",
        file=sys.stderr,
    )
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        fw = _import_package()
        workload = _load(fw, args.workload, args.seed)
        run = traced if args.trace else untraced
        runner, metrics = run(fw, workload, args.seconds)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
