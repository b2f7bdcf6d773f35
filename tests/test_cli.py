import json
import subprocess
import sys

import pytest

from sbpd.checks import CheckReport, CheckResult
from sbpd.cli import main
from sbpd.experiment import read_trace


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in ("experiment", "solve", "reference", "check"):
        assert word in out


def test_experiment_subcommand_runs(tmp_path):
    code = main(["experiment", "simplex-tv", "--n", "8", "--m", "9",
                 "--seed", "2", "--iterations", "120",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "trace.csv").exists()
    assert (tmp_path / "meta.json").exists()


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "experiment": "simplex-tv", "n": 8, "m": 9, "seed": 2,
        "iterations": 500, "output_dir": str(tmp_path / "out"),
    }))
    assert main(["solve", "--config", str(config), "--iterations", "80"]) == 0
    records = read_trace(tmp_path / "out" / "trace.csv")
    assert records[-1].k == 80


def test_stochastic_flags_emit_run_traces(tmp_path):
    code = main(["experiment", "simplex-tv", "--n", "8", "--m", "10",
                 "--seed", "3", "--iterations", "100", "--batch", "4",
                 "--oracle", "paper-partial", "--repeats", "2",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "run_000.csv").exists()
    assert (tmp_path / "run_001.csv").exists()
    assert (tmp_path / "mean_trace.csv").exists()


def test_batch_flag_parsing(tmp_path):
    code = main(["experiment", "simplex-tv", "--n", "8", "--m", "9",
                 "--iterations", "60", "--batch", "full",
                 "--output-dir", str(tmp_path)])
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "simplex-tv", "--batch", "sometimes"])
    assert exc.value.code == 2


def test_unknown_oracle_mode_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "simplex-tv", "--oracle", "psychic"])
    assert exc.value.code == 2


def _stub_checks(monkeypatch, failures):
    """Replace the battery by a one-suite report; returns the levels asked for."""
    levels = []

    def fake(level):
        levels.append(level)
        return CheckReport(level, (CheckResult("stub-suite", 3, failures),))

    monkeypatch.setattr("sbpd.cli.run_check_suite", fake)
    return levels


def test_check_fast_passes(monkeypatch, capsys):
    levels = _stub_checks(monkeypatch, failures=0)
    assert main(["check"]) == 0
    assert levels == ["fast"]
    assert capsys.readouterr().out.splitlines() == [
        "pass  stub-suite: 0/3 violations",
        "all checks passed (fast level, 1 suites)",
    ]


def test_check_full_flag_selects_full_level(monkeypatch, capsys):
    levels = _stub_checks(monkeypatch, failures=0)
    assert main(["check", "--full"]) == 0
    assert levels == ["full"]
    assert "full level" in capsys.readouterr().out


def test_check_failing_report_exits_one(monkeypatch, capsys):
    _stub_checks(monkeypatch, failures=2)
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  stub-suite: 2/3 violations",
        "CHECKS FAILED (fast level, 1 suites)",
    ]


def test_reference_subcommand(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "experiment": "simplex-tv", "n": 8, "m": 9, "seed": 4,
        "output_dir": str(tmp_path / "cache"),
    }))
    assert main(["reference", "--config", str(config)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config_hash", "iterations", "ref_tol"}
    assert doc["iterations"] == 25_000  # default budget for 20000 iterations
    assert list((tmp_path / "cache").glob("reference_*.json"))


def test_missing_config_reports_json_error(tmp_path, capsys):
    assert main(["solve", "--config", "/nonexistent/c.json",
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    doc = json.loads(err)
    assert "error" in doc and "message" in doc


def test_bad_config_key_reports_json_error(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "simplex-tv", "turbo": True}))
    assert main(["solve", "--config", str(config), "--output-dir", str(tmp_path)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert "turbo" in doc["message"]


def _config_with_numeric_output_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("SBPD_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 8, "m": 9, "iterations": 20, "output_dir": 5}))
    return config


def test_solve_rejects_non_string_output_dir(tmp_path, monkeypatch, capsys):
    # once a TypeError traceback from os.makedirs, also while writing error.json
    config = _config_with_numeric_output_dir(tmp_path, monkeypatch)
    assert main(["solve", "--config", str(config)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-config"
    assert "output_dir" in doc["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_reference_rejects_non_string_output_dir(tmp_path, monkeypatch, capsys):
    config = _config_with_numeric_output_dir(tmp_path, monkeypatch)
    assert main(["reference", "--config", str(config)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-config"
    assert "output_dir" in doc["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


def test_step_safety_is_rejected(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "simplex-tv", "n": 8, "m": 9,
                                  "step_safety": 0.5}))
    assert main(["solve", "--config", str(config), "--output-dir", str(tmp_path)]) == 2
    assert "step_safety" in json.loads(capsys.readouterr().err)["message"]
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "simplex-tv", "--step-safety", "0.5"])
    assert exc.value.code == 2


UNUSABLE_CONFIGS = {
    "number": "5",
    "null": "null",
    "list": "[1, 2]",
    "string": '"abc"',
    "truncated": '{"n": 8',
    "unknown-key": '{"n": 8, "m": 9, "stepsize": 0.1}',
    "missing": None,
}


@pytest.mark.parametrize("command", ["solve", "reference"])
@pytest.mark.parametrize("case", sorted(UNUSABLE_CONFIGS))
def test_unusable_config_fails_as_invalid_config(case, command, tmp_path,
                                                 monkeypatch, capsys):
    # once a TypeError traceback (number, null), or exit 2 without error.json
    monkeypatch.delenv("SBPD_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "c.json"
    if UNUSABLE_CONFIGS[case] is not None:
        config.write_text(UNUSABLE_CONFIGS[case])
    assert main([command, "--config", str(config)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "invalid-config"
    assert json.loads((tmp_path / "runs" / "error.json").read_text()) == doc


@pytest.mark.parametrize("command", ["solve", "reference"])
@pytest.mark.parametrize("arrays", [
    {"A": {"x": 1}, "b": [1, 2]},
    {"A": [[1.0, 2.0], [3.0, 4.0]], "b": [1.0, {"x": 1}]},
], ids=["object-A", "object-in-b"])
def test_object_valued_custom_arrays_fail_as_invalid_config(
        arrays, command, tmp_path, monkeypatch, capsys):
    # once a TypeError traceback from np.array, with no error.json
    monkeypatch.delenv("SBPD_OUTPUT_DIR", raising=False)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"experiment": "custom", **arrays}))
    out_dir = tmp_path / "out"
    assert main([command, "--config", str(config), "--output-dir", str(out_dir)]) == 2
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invalid-config"
    assert "A and b must be arrays of numbers" in doc["message"]
    assert json.loads((out_dir / "error.json").read_text()) == doc


def test_unusable_config_error_json_follows_output_dir_precedence(
        tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("SBPD_OUTPUT_DIR", raising=False)
    missing = str(tmp_path / "missing.json")
    flag_dir, env_dir = tmp_path / "flag", tmp_path / "env"
    assert main(["solve", "--config", missing, "--output-dir", str(flag_dir)]) == 2
    assert (flag_dir / "error.json").exists()
    monkeypatch.setenv("SBPD_OUTPUT_DIR", str(env_dir))
    assert main(["reference", "--config", missing,
                 "--output-dir", str(tmp_path / "other")]) == 2
    assert (env_dir / "error.json").exists()
    assert not (tmp_path / "other").exists()


def test_reference_failure_exits_one_with_error_json(tmp_path, monkeypatch,
                                                     capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("reference diverged")

    monkeypatch.setattr("sbpd.cli.compute_reference", broken)
    monkeypatch.delenv("SBPD_OUTPUT_DIR", raising=False)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 8, "m": 9, "output_dir": str(tmp_path / "out")}))
    assert main(["reference", "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    doc = json.loads(err)
    assert doc == {"error": "RuntimeError", "message": "reference diverged"}
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == doc


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sbpd.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "experiment" in proc.stdout
