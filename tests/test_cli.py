import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fwconform
import fwconform.cli as cli
from fwconform.report import parse_report, strip_timestamps

REPO_ROOT = Path(__file__).resolve().parent.parent
REFERENCE = str(REPO_ROOT / "scenarios" / "reference.scn")


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


@pytest.mark.parametrize(
    "text, problems",
    [
        (
            "[profile]\nname x\nseed many\n[bogus]\n[rules]\npermit a b\n",
            [
                "line 3: invalid literal for int() with base 10: 'many'",
                "line 4: unknown section [bogus]",
                "line 6: expected: allow|deny <src-host> <dst-host> [options]",
            ],
        ),
        (
            "[profile]\nname x\nclaims r9 r9\n",
            [
                "duplicate claim ids",
                "duplicate requirement ids listed",
                "unknown requirement id(s) claimed: r9, r9",
                "unknown requirement id(s) listed: r9, r9",
                "no external hosts",
                "no internal hosts",
            ],
        ),
    ],
    ids=["parse-errors", "validation-problems"],
)
def test_validate_prints_exactly_the_problems(tmp_path, capsys, text, problems):
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert cli.main(["validate", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert (out, err.splitlines()) == ("", problems)


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.scn")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["validate", "plan", "run", "report"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, verb):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b'"\xff"' if verb == "report" else b"[profile]\nname \xff\xfe\n")
    assert cli.main([verb, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "utf-8" in err
    assert "internal error" not in err


def test_plan_prints_the_frozen_reference_plan(capsys):
    assert cli.main(["plan", REFERENCE]) == 0
    out = capsys.readouterr().out
    assert "plan for reference-fw: total time 9, cost 6, budget 8" in out
    assert "r1: scripted (time 3, cost 3)" in out
    assert "r3: manual (time 2, cost 1)" in out


# The plan text as the reference scenario printed it before `plan` and the
# human report shared one renderer.
REFERENCE_PLAN = """\
total time 9, cost 6, budget 8
  r1: scripted (time 3, cost 3)
  r1-link: standard (time 1, cost 0)
  r1-fields: standard (time 1, cost 0)
  r2: scripted (time 2, cost 2)
  r3: manual (time 2, cost 1)
"""


def test_plan_prints_exactly_the_reference_plan(capsys):
    assert cli.main(["plan", REFERENCE]) == 0
    assert capsys.readouterr() == ("plan for reference-fw: " + REFERENCE_PLAN, "")


def test_human_report_shows_exactly_the_reference_plan(capsys):
    assert cli.main(["run", REFERENCE, "--format", "human"]) == 0
    blocks = capsys.readouterr().out.split("\n\n")
    assert blocks[1] + "\n" == "plan: " + REFERENCE_PLAN


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


def test_inject_replaces_a_fault_list_that_would_not_apply(tmp_path, capsys):
    scenario = tmp_path / "faulty.scn"
    scenario.write_text(Path(REFERENCE).read_text() + "\n[faults]\ninject invert_rule:9\n")
    assert cli.main(["run", str(scenario), "--inject", "ignore_field:ttl"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["metadata"]["faults"] == ["ignore_field:ttl"]
    assert err == ""
    assert cli.main(["run", str(scenario)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "fault invert_rule:9: rule index outside the 4-rule set\n")


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


def test_report_verb_rejects_a_short_row(tmp_path, capsys):
    golden = REPO_ROOT / "tests" / "data" / "reference-leak-credentials.json"
    data = json.loads(golden.read_text())
    data["campaign"]["pairs"] = [[1]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed report" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "forge",
    [
        lambda campaign: campaign.update(conform=1),
        lambda campaign: campaign.update(n=9, pairs=[["r1", 7, 1], *campaign["pairs"][1:]]),
    ],
    ids=["conform", "bit-and-n"],
)
def test_report_verb_rejects_a_forged_verdict(tmp_path, capsys, forge):
    golden = REPO_ROOT / "tests" / "data" / "reference-leak-credentials.json"
    data = json.loads(golden.read_text())
    forge(data["campaign"])
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(data))
    assert cli.main(["report", str(forged)]) == 2
    out, err = capsys.readouterr()
    assert "claims upheld" not in out
    assert "malformed report" in err


@pytest.mark.parametrize(
    "text",
    ["[" * 200_000 + "]" * 200_000, '{"a":' * 100_000 + "1" + "}" * 100_000],
    ids=["arrays", "objects"],
)
def test_report_verb_rejects_json_nested_past_the_recursion_limit(tmp_path, capsys, text):
    deep = tmp_path / "deep.json"
    deep.write_text(text)
    assert cli.main(["report", str(deep)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed report: maximum recursion depth")


def test_unexpected_exceptions_exit_three(monkeypatch, capsys):
    def boom(scenario, faults=None):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "run_campaign", boom)
    assert cli.main(["run", REFERENCE]) == 3
    assert "internal error: RuntimeError('wires crossed')" in capsys.readouterr().err


def test_console_entry_point_is_wired(tmp_path, monkeypatch):
    # The `fwconform` command must resolve to `cli.entry`. The metadata is
    # built from this tree by setuptools' `egg_info` into tmp_path, so the
    # check needs no install: its entry_points.txt is the file an install
    # copies into site-packages.
    import importlib.metadata as md

    pytest.importorskip("setuptools")
    built = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()",
         "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert built.returncode == 0, built.stderr
    dist = md.Distribution.at(tmp_path / "fwconform.egg-info")
    assert dist.version == fwconform.__version__
    ours = dist.entry_points.select(group="console_scripts", name="fwconform")
    assert [e.value for e in ours] == ["fwconform.cli:entry"]
    entry = ours["fwconform"].load()
    assert entry is cli.entry

    # Where fwconform is installed, its metadata must agree as well.
    installed = md.entry_points(group="console_scripts", name="fwconform")
    assert all(e.value == "fwconform.cli:entry" for e in installed)

    # The command's exit status is main's return value.
    for path, code in [(REFERENCE, 0), (str(tmp_path / "nope.scn"), 2)]:
        monkeypatch.setattr(sys, "argv", ["fwconform", "validate", path])
        with pytest.raises(SystemExit) as exited:
            entry()
        assert exited.value.code == code


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    ran = subprocess.run(
        [sys.executable, "-m", "fwconform", "validate", "scenarios/reference.scn"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert ran.returncode == 0, ran.stderr
    assert "scenario ok: reference-fw" in ran.stdout
