import json
from dataclasses import asdict

import numpy as np
import pytest

from sbpd.experiment import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    TraceRecord,
    read_trace,
    run_experiment,
    should_log,
    write_trace,
)


def test_config_round_trips_through_dict():
    config = ExperimentConfig(experiment="ot-inverse", n=30, gamma=0.5, repeats=4)
    assert ExperimentConfig.from_dict(asdict(config)) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "simplex-tv", "stepsize": 0.1})


@pytest.mark.parametrize("overrides,match", [
    ({"experiment": "nope"}, "experiment"),
    ({"n": 1}, "n must"),
    ({"iterations": 0}, "iterations"),
    ({"oracle_mode": "minibatch"}, "oracle_mode"),
    ({"batch_size": 0}, "batch_size"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"gamma": 0.0}, "gamma"),
    ({"beta": -1.0}, "beta"),
    ({"noise_level": 1.5}, "noise_level"),
    ({"step_safety": 0.0}, "step_safety"),
    ({"step_safety": 1.5}, "step_safety"),
    ({"repeats": 0}, "repeats"),
    ({"cert_every": -1}, "cert_every"),
    ({"reference_iterations": 10}, "reference_iterations"),
    ({"experiment": "custom"}, "custom experiments"),
])
def test_config_validation_errors(overrides, match):
    config = ExperimentConfig().with_overrides(**overrides)
    with pytest.raises(ConfigError, match=match):
        config.validate()


def test_overrides_skip_none_and_apply_values():
    base = ExperimentConfig(n=50, seed=7)
    out = base.with_overrides(n=None, seed=9, batch_size=25)
    assert out.n == 50 and out.seed == 9 and out.batch_size == 25


@pytest.mark.parametrize("iterations,explicit,expected", [
    (20_000, None, 25_000),
    (10_000, None, 12_500),
    (100, None, 1000),
    (5000, 30_000, 30_000),
])
def test_reference_budget_resolution(iterations, explicit, expected):
    config = ExperimentConfig(iterations=iterations,
                              reference_iterations=explicit)
    assert config.resolved_reference_budget() == expected


def test_logging_cadence():
    assert all(should_log(k) for k in range(1, 1001))
    assert not should_log(1001)
    assert should_log(1002)
    assert should_log(2000)
    assert should_log(2001)          # ceil(2001/1000) = 3 divides 2001
    assert not should_log(2002)
    assert not should_log(19_999)
    assert should_log(19_999, final=19_999)


def test_trace_round_trip(tmp_path):
    records = [
        TraceRecord(1, 0.5, 0.5, -1.25, 2.0, 1e-300, 12345),
        TraceRecord(1000, 6.02e23, -0.0, 3.14159, 1e-17, None, None),
        TraceRecord(2002, 1.0 / 3.0, 2.0 / 7.0, -1e-9, 0.0, -4.2e-8, 999),
    ]
    path = tmp_path / "t.csv"
    write_trace(path, records)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert text[2].endswith(",,")        # missing optionals are empty cells
    assert read_trace(path) == records


def test_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


def _tiny_config(tmp_path, **overrides):
    base = dict(experiment="simplex-tv", n=8, m=10, seed=5, iterations=300,
                output_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_deterministic_run_artifacts(tmp_path):
    config = _tiny_config(tmp_path)
    assert run_experiment(config, log=lambda s: None) == 0
    out = tmp_path / "out"
    records = read_trace(out / "trace.csv")
    assert [r.k for r in records] == list(range(1, 301))
    assert all(r.estimate_slack is not None for r in records)
    assert all(r.wall_nanos is None for r in records)
    meta = json.loads((out / "meta.json").read_text())
    resolved = meta["resolved"]
    for key in ("L_p", "L_d", "coupling_norm", "lam", "nu", "oracle_mode",
                "oracle_seeds", "ref_tol", "rate_constant"):
        assert key in resolved
    assert resolved["reference_iterations"] == 1000
    assert resolved["final_ergodic_gap"] == records[-1].gap_ergodic
    assert records[-1].gap_ergodic < records[0].gap_ergodic


def test_stochastic_run_artifacts(tmp_path):
    config = _tiny_config(tmp_path, oracle_mode="paper-partial", batch_size=4,
                          repeats=3, iterations=200)
    assert run_experiment(config, log=lambda s: None) == 0
    out = tmp_path / "out"
    runs = [read_trace(out / f"run_{r:03d}.csv") for r in range(3)]
    mean = read_trace(out / "mean_trace.csv")
    assert not (out / "trace.csv").exists()
    assert {len(t) for t in runs} == {200} and len(mean) == 200
    for i in (0, 57, 199):
        rows = [t[i] for t in runs]
        assert mean[i].k == rows[0].k
        assert mean[i].gap_ergodic == pytest.approx(
            np.mean([r.gap_ergodic for r in rows]), rel=1e-12)
        assert mean[i].residual == pytest.approx(
            np.mean([r.residual for r in rows]), rel=1e-12)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["resolved"]["oracle_seeds"] == [5, 6, 7]
    assert meta["resolved"]["batch_size"] == 4
    # distinct seeds produce genuinely different trajectories
    assert runs[0][-1].gap_pointwise != runs[1][-1].gap_pointwise


def test_rerun_is_byte_identical(tmp_path):
    for sub in ("a", "b"):
        config = _tiny_config(tmp_path, output_dir=str(tmp_path / sub),
                              oracle_mode="paper-partial", batch_size=3,
                              repeats=2, iterations=150)
        assert run_experiment(config, log=lambda s: None) == 0
    for name in ("run_000.csv", "run_001.csv", "mean_trace.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_reference_cache_is_reused(tmp_path):
    config = _tiny_config(tmp_path, iterations=120)
    assert run_experiment(config, log=lambda s: None) == 0
    out = tmp_path / "out"
    ref_files = sorted(out.glob("reference_*.json"))
    assert len(ref_files) == 1
    stamp = ref_files[0].stat().st_mtime_ns
    assert run_experiment(config, log=lambda s: None) == 0
    assert ref_files[0].stat().st_mtime_ns == stamp


def test_invalid_config_writes_error_json(tmp_path):
    lines = []
    config = _tiny_config(tmp_path, batch_size=-3)
    assert run_experiment(config, log=lines.append) == 2
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc["error"] == "invalid-config"
    assert "batch_size" in doc["message"]
    assert json.loads(lines[0]) == doc


def test_stochastic_oracle_on_ot_inverse_is_rejected(tmp_path):
    lines = []
    config = ExperimentConfig(experiment="ot-inverse", n=8, iterations=50,
                              oracle_mode="paper-partial", batch_size=4,
                              output_dir=str(tmp_path / "out"))
    assert run_experiment(config, log=lines.append) == 2
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc["error"] == "invalid-config"
    assert "ot-inverse" in doc["message"]
    assert json.loads(lines[0]) == doc


@pytest.mark.parametrize("experiment,data", [
    ("simplex-tv", {}),
    ("custom", {"A": [[1.0, 0.2]] * 10, "b": [0.5] * 10}),
])
def test_batch_larger_than_summand_count_is_rejected(tmp_path, experiment, data):
    config = _tiny_config(tmp_path, experiment=experiment,
                          oracle_mode="scaled-unbiased", batch_size=11, **data)
    assert run_experiment(config, log=lambda s: None) == 2
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc["error"] == "invalid-config"
    assert "batch_size 11 exceeds the 10" in doc["message"]
    # a batch of every summand is still a valid request
    config.with_overrides(batch_size=10).validate()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("SBPD_OUTPUT_DIR", str(env_dir))
    config = _tiny_config(tmp_path, iterations=100)
    assert run_experiment(config, log=lambda s: None) == 0
    assert (env_dir / "trace.csv").exists()
    assert not (tmp_path / "out").exists()


def test_custom_experiment_from_config_arrays(tmp_path):
    config = ExperimentConfig(
        experiment="custom",
        A=[[1.0, 0.2], [0.3, 1.4], [0.5, 0.6]],
        b=[0.4, 0.9, 0.5],
        beta=0.3,
        iterations=200,
        output_dir=str(tmp_path / "out"),
    )
    assert run_experiment(config, log=lambda s: None) == 0
    records = read_trace(tmp_path / "out" / "trace.csv")
    assert records[-1].residual < records[0].residual


def test_cert_every_zero_leaves_slack_empty(tmp_path):
    config = _tiny_config(tmp_path, cert_every=0, iterations=50)
    assert run_experiment(config, log=lambda s: None) == 0
    records = read_trace(tmp_path / "out" / "trace.csv")
    assert all(r.estimate_slack is None for r in records)


def test_record_timing_populates_wall_nanos(tmp_path):
    config = _tiny_config(tmp_path, record_timing=True, iterations=60)
    assert run_experiment(config, log=lambda s: None) == 0
    walls = [r.wall_nanos for r in read_trace(tmp_path / "out" / "trace.csv")]
    assert all(isinstance(w, int) and w > 0 for w in walls)
    assert walls == sorted(walls)


def test_stop_gap_cuts_run_short(tmp_path):
    config = _tiny_config(tmp_path, iterations=4000, stop_gap=1e9)
    assert run_experiment(config, log=lambda s: None) == 0
    records = read_trace(tmp_path / "out" / "trace.csv")
    assert len(records) == 100 and records[-1].k == 100
