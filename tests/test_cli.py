import json
from pathlib import Path

import pytest

import fwconform.cli as cli
from fwconform.report import parse_report, strip_timestamps

REFERENCE = str(Path(__file__).resolve().parent.parent / "scenarios" / "reference.scn")


def test_validate_ok(capsys):
    assert cli.main(["validate", REFERENCE]) == 0
    assert "scenario ok: reference-fw" in capsys.readouterr().out


def test_validate_lists_every_problem(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[profile]\nname x\nclaims r9 r9\n")
    assert cli.main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "duplicate claim ids" in err
    assert "unknown requirement id(s) claimed: r9" in err
    assert "no external hosts" in err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.scn")]) == 2
    assert "error:" in capsys.readouterr().err


def test_plan_prints_the_frozen_reference_plan(capsys):
    assert cli.main(["plan", REFERENCE]) == 0
    out = capsys.readouterr().out
    assert "plan for reference-fw: total time 9, cost 6, budget 8" in out
    assert "r1: scripted (time 3, cost 3)" in out
    assert "r3: manual (time 2, cost 1)" in out


def test_run_conform_exits_zero_and_prints_machine_json(capsys):
    assert cli.main(["run", REFERENCE]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["campaign"]["conform"] == 1


def test_run_with_injected_fault_exits_one(capsys):
    assert cli.main(["run", REFERENCE, "--inject", "invert_rule:0"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["campaign"]["conform"] == 0
    assert data["metadata"]["faults"] == ["invert_rule:0"]


def test_run_rejects_a_malformed_fault_spec(capsys):
    assert cli.main(["run", REFERENCE, "--inject", "melt_everything"]) == 2
    assert "melt_everything" in capsys.readouterr().err


def test_run_rejects_an_inapplicable_fault(capsys):
    assert cli.main(["run", REFERENCE, "--inject", "invert_rule:99"]) == 2
    assert "rule index outside" in capsys.readouterr().err


def test_run_writes_the_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["run", REFERENCE, "--out", str(out)]) == 0
    assert f"report written to {out}; verdict CONFORM" in capsys.readouterr().out
    report = parse_report(out.read_text())
    assert report.campaign.conform == 1


def test_run_twice_is_deterministic_up_to_the_timestamp(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["run", REFERENCE, "--out", str(a)]) == 0
    assert cli.main(["run", REFERENCE, "--out", str(b)]) == 0
    capsys.readouterr()
    assert strip_timestamps(a.read_text()) == strip_timestamps(b.read_text())


def test_seed_override_changes_the_probe_payloads(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(["run", REFERENCE, "--out", str(a), "--seed", "1"]) == 0
    assert cli.main(["run", REFERENCE, "--out", str(b), "--seed", "2"]) == 0
    capsys.readouterr()
    assert strip_timestamps(a.read_text()) != strip_timestamps(b.read_text())
    assert json.loads(a.read_text())["metadata"]["seed"] == 1


def test_negative_seed_is_rejected(capsys):
    assert cli.main(["run", REFERENCE, "--seed", "-4"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_run_human_format(capsys):
    assert cli.main(["run", REFERENCE, "--format", "human"]) == 0
    assert "conformance verdict: CONFORM" in capsys.readouterr().out


def test_report_verb_rerenders_a_saved_run(tmp_path, capsys):
    out = tmp_path / "report.json"
    cli.main(["run", REFERENCE, "--out", str(out), "--inject", "blind_integrity:screen.conf"])
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 1
    text = capsys.readouterr().out
    assert "conformance verdict: NONCONFORM" in text
    assert "[FAIL] detections-match-modifications" in text


def test_report_verb_rejects_non_reports(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("{}")
    assert cli.main(["report", str(bad)]) == 2
    assert "unknown report schema" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", '"x"', "1", "null"])
def test_report_verb_rejects_json_that_is_not_an_object(tmp_path, capsys, text):
    bad = tmp_path / "x.json"
    bad.write_text(text)
    assert cli.main(["report", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err


def test_unexpected_exceptions_exit_three(monkeypatch, capsys):
    def boom(scenario, faults=None):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_campaign", boom)
    assert cli.main(["run", REFERENCE]) == 3
    assert "internal error: RuntimeError('wires crossed')" in capsys.readouterr().err


def test_console_entry_point_is_wired():
    import importlib.metadata as md

    entries = md.entry_points(group="console_scripts")
    ours = [e for e in entries if e.name == "fwconform"]
    assert ours and ours[0].value == "fwconform.cli:entry"
