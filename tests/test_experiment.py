import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

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
    ({"m": 1}, "m must"),
    ({"batch_size": True}, "batch_size"),
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
    # ot-inverse reads no m, and custom takes both sizes from A
    unread = {"ot-inverse": ("m",), "custom": ("n", "m")}
    for key in unread.get(base["experiment"], ()):
        if key not in overrides:
            del base[key]
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


def _edited(text, key, edit):
    doc = json.loads(text)
    doc[key] = edit(doc[key])
    return json.dumps(doc)


CACHE_FAULTS = {
    "truncated": lambda t: t[:len(t) // 2],
    "short-x-star": lambda t: _edited(t, "x_star", lambda x: x[:-1]),
    "nan-x-star": lambda t: _edited(t, "x_star", lambda x: [float("nan")] + x[1:]),
    "nan-mu-star": lambda t: _edited(t, "mu_star", lambda m: [float("nan")] + m[1:]),
    "infeasible": lambda t: _edited(t, "x_star", lambda x: [2.0 * v for v in x]),
    "wrong-hash": lambda t: _edited(t, "config_hash", lambda h: "0" * len(h)),
    "wrong-iterations": lambda t: _edited(t, "iterations", lambda k: k + 1),
}


@pytest.mark.parametrize("experiment", ["simplex-tv", "ot-inverse"])
@pytest.mark.parametrize("fault", sorted(CACHE_FAULTS))
def test_corrupt_reference_cache_is_recomputed(tmp_path, fault, experiment):
    config = _tiny_config(tmp_path, experiment=experiment, iterations=120)
    assert run_experiment(config, log=lambda s: None) == 0
    out = tmp_path / "out"
    [ref_file] = out.glob("reference_*.json")
    clean = ref_file.read_text()
    trace = (out / "trace.csv").read_bytes()
    ref_file.write_text(CACHE_FAULTS[fault](clean))
    assert run_experiment(config, log=lambda s: None) == 0
    assert ref_file.read_text() == clean
    assert (out / "trace.csv").read_bytes() == trace


def _assert_invalid_config(config, match):
    """The run exits 2 and reports ``invalid-config`` in error.json and the log."""
    lines = []
    assert run_experiment(config, log=lines.append) == 2
    doc = json.loads((Path(config.output_dir) / "error.json").read_text())
    assert doc["error"] == "invalid-config"
    assert match in doc["message"]
    assert json.loads(lines[0]) == doc


def test_invalid_config_writes_error_json(tmp_path):
    _assert_invalid_config(_tiny_config(tmp_path, batch_size=-3), "batch_size")


@pytest.mark.parametrize("overrides,match", [
    ({"repeats": 3}, "exact oracle needs"),
    ({"oracle_mode": "paper-partial"}, "needs an integer batch_size"),
    ({"batch_size": 4}, "exact oracle needs"),
], ids=["repeats-with-exact-oracle", "stochastic-oracle-with-full-batch",
        "batch-with-exact-oracle"])
def test_config_that_would_run_as_exact_is_rejected(tmp_path, overrides, match):
    config = _tiny_config(tmp_path, **overrides)
    _assert_invalid_config(config, match)
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_stochastic_oracle_on_ot_inverse_is_rejected(tmp_path):
    config = _tiny_config(tmp_path, experiment="ot-inverse", iterations=50,
                          oracle_mode="paper-partial", batch_size=4)
    _assert_invalid_config(config, "ot-inverse")


def test_custom_matrix_with_nan_is_rejected(tmp_path):
    config = _tiny_config(tmp_path, experiment="custom",
                          A=[[1.0, float("nan")], [0.3, 1.4]], b=[0.4, 0.9])
    _assert_invalid_config(config, "non-finite")


def test_output_dir_under_a_regular_file_is_reported(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    lines = []
    config = _tiny_config(tmp_path, output_dir=str(blocker / "out"))
    assert run_experiment(config, log=lines.append) == 2
    assert json.loads(lines[0])["error"] == "unwritable-output-dir"
    assert blocker.read_text() == ""


@pytest.mark.parametrize("experiment,data", [
    ("simplex-tv", {}),
    ("custom", {"A": [[1.0, 0.2]] * 10, "b": [0.5] * 10}),
])
def test_batch_larger_than_summand_count_is_rejected(tmp_path, experiment, data):
    config = _tiny_config(tmp_path, experiment=experiment,
                          oracle_mode="scaled-unbiased", batch_size=11, **data)
    _assert_invalid_config(config, "batch_size 11 exceeds the 10")
    # a batch of every summand is still a valid request
    config.with_overrides(batch_size=10).validate()


CUSTOM_DATA = {"A": [[1.0, 0.2], [0.3, 1.4]], "b": [0.4, 0.9]}


UNREAD_CASES = [
    ("simplex-tv", "gamma", 0.25),
    ("simplex-tv", "noise_level", 0.9),
    ("simplex-tv", "A", CUSTOM_DATA["A"]),
    ("simplex-tv", "b", CUSTOM_DATA["b"]),
    ("ot-inverse", "m", 10),
    ("ot-inverse", "A", CUSTOM_DATA["A"]),
    ("ot-inverse", "b", CUSTOM_DATA["b"]),
    ("custom", "n", 8),
    ("custom", "m", 10),
    ("custom", "gamma", 0.25),
    ("custom", "noise_level", 0.9),
]


@pytest.mark.parametrize("experiment,key,value", UNREAD_CASES,
                         ids=[f"{e}-{k}" for e, k, _ in UNREAD_CASES])
def test_key_the_experiment_never_reads_is_rejected(tmp_path, experiment, key,
                                                    value):
    data = CUSTOM_DATA if experiment == "custom" else {}
    config = _tiny_config(tmp_path, experiment=experiment,
                          **dict(data, **{key: value}))
    _assert_invalid_config(config, f"{experiment} does not read {key}")
    assert not (tmp_path / "out" / "trace.csv").exists()
    # the same key left at its default is not an error
    default = getattr(ExperimentConfig(), key)
    dataclasses.replace(config, **{key: default}).validate()


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


def test_stop_gap_with_stochastic_repeats_is_rejected(tmp_path):
    config = _tiny_config(tmp_path, oracle_mode="paper-partial", batch_size=4,
                          repeats=3, stop_gap=1e9)
    _assert_invalid_config(config, "stop_gap")
    # a single stochastic repeat still stops early
    config = config.with_overrides(repeats=1, output_dir=str(tmp_path / "one"))
    assert run_experiment(config, log=lambda s: None) == 0
    for name in ("run_000.csv", "mean_trace.csv"):
        records = read_trace(tmp_path / "one" / name)
        assert len(records) == 100 and records[-1].k == 100
