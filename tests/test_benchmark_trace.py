"""The traced benchmark path still finds every span it wraps by name.

`perfbench/run.py --trace 1` rebinds public names of the package and
reads one metric per layer; a renamed or re-signed procedure would
break it only there.  This runs one short traced fault-sweep in process.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_traced_fault_sweep_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling modules
    import run

    monkeypatch.setattr(run, "OUT", tmp_path)  # scenario copy and span dump
    fw = run._import_package()
    runner, metrics = run.traced(fw, run._load(fw, "fault-sweep", 0), 0.05)
    assert runner.attempted > 0 and runner.failed == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert len(metrics) == 28
    # Zero would mean the wrapped names are no longer the ones the campaign calls.
    assert metrics["testbench.build_s"]["value"] > 0
    assert metrics["testbench.host_calls"]["value"] > 0
    assert metrics["firewall.filter_packet_calls"]["value"] > 0
    assert metrics["scenario.resolve_calls"]["value"] == 1
    # Every traced layer takes time of its own; export no longer calls
    # `report_to_dict`, so that one layer reads 0 by design.
    idle = {"report.to_dict_s"}
    assert set(run.SELF_TIME_METRICS.values()) >= idle
    for metric in sorted(set(run.SELF_TIME_METRICS.values()) - idle):
        assert metrics[metric]["value"] > 0, metric
