import dataclasses
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from sbpd import experiment
from sbpd.bregman import DomainError
from sbpd.cli import main
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
from sbpd.oracle import GradientOracle
from sbpd import problems, solver
from sbpd.problems import (
    ReferenceSolution,
    SimplexTVProblem,
    build_simplex_tv,
    compute_reference,
)
from sbpd.solver import (
    ReferenceEvaluator,
    SolverState,
    asymptotic_residual,
    estimate_inequality_terms,
    initial_state,
    lagrangian_gap,
    run,
)


def test_config_round_trips_through_dict():
    config = ExperimentConfig(experiment="ot-inverse", n=30, gamma=0.5, repeats=4)
    assert ExperimentConfig.from_dict(asdict(config)) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "simplex-tv", "stepsize": 0.1})


@pytest.mark.parametrize("overrides,match", [
    ({"experiment": "nope"}, "experiment"),
    ({"n": 1.5}, "n must"),
    ({"iterations": 0}, "iterations"),
    ({"oracle_mode": "minibatch"}, "oracle_mode"),
    ({"batch_size": 0}, "batch_size"),
    ({"batch_size": 2.5}, "batch_size"),
    ({"gamma": 0.0}, "gamma"),
    ({"experiment": "custom"}, "custom experiments"),
    ({"noise_level": 1.5}, "noise_level"),
    ({"m": 1.5}, "m must"),
    ({"batch_size": True}, "batch_size"),
    ({"repeats": 0}, "repeats"),
    ({"cert_every": -1}, "cert_every"),
    ({"reference_iterations": 10}, "reference_iterations"),
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
        TraceRecord(2004, 1.0, 2.0, 3.0, 4.0, float("inf"), 2**63),
        TraceRecord(2006, 1.0, 2.0, 3.0, 4.0, 5e-324, 0),
        TraceRecord(2008, 1.0, 2.0, 3.0, 4.0, float("nan"), 7),
    ]
    path = tmp_path / "t.csv"
    write_trace(path, records)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert text[2].endswith(",,")        # missing optionals are empty cells
    back = read_trace(path)
    # a NaN cell reads back as another NaN object, which compares unequal
    assert back[:-1] == records[:-1] and np.isnan(back[-1].estimate_slack)
    for r in back:
        assert type(r.k) is int
        assert all(type(v) is float for v in r[1:5])
        assert r.estimate_slack is None or type(r.estimate_slack) is float
        assert r.wall_nanos is None or type(r.wall_nanos) is int
    write_trace(tmp_path / "again.csv", back)
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_trace_record_is_the_tuple_of_its_cells(tmp_path):
    # a NamedTuple: the fields, in order, are the header; the two optional
    # cells default to None; a record equals the tuple of its fields and
    # cannot be changed in place
    assert CSV_HEADER == ("k,gap_pointwise,gap_ergodic,lagrangian,residual,"
                          "estimate_slack,wall_nanos")
    assert ",".join(TraceRecord._fields) == CSV_HEADER
    record = TraceRecord(3, 0.25, 0.5, -1.0, 1e-3)
    assert record == (3, 0.25, 0.5, -1.0, 1e-3, None, None)
    assert record.estimate_slack is None and record.wall_nanos is None
    assert not dataclasses.is_dataclass(record)
    with pytest.raises(AttributeError):
        record.k = 4
    records = [record, TraceRecord(4, float("nan"), -0.0, 2.0, 0.5, float("nan"), 11),
               TraceRecord(5, 1.0, 2.0, 3.0, 4.0, None, 12)]
    path = tmp_path / "t.csv"
    write_trace(path, records)
    assert path.read_text() == (f"{CSV_HEADER}\n3,0.25,0.5,-1.0,0.001,,\n"
                                "4,nan,-0.0,2.0,0.5,nan,11\n5,1.0,2.0,3.0,4.0,,12\n")
    back = read_trace(path)
    assert all(type(r) is TraceRecord for r in back)
    assert [back[0], back[2]] == [records[0], records[2]]
    assert all(np.isnan(v) for v in (back[1].gap_pointwise, back[1].estimate_slack))
    assert back[1][2:5] + back[1][6:] == (-0.0, 2.0, 0.5, 11)


def test_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_trace(path)


@pytest.mark.parametrize("row", ["1,0.5,0.5,-1.25,2.0,,,7", "1,0.5,0.5"],
                         ids=["eighth-cell", "three-cells"])
def test_trace_rejects_a_row_off_the_header_length(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n2,0.5,0.5,-1.25,2.0,,\n{row}\n")
    with pytest.raises(ValueError, match=r"bad\.csv line 3: \d cells, the header has 7"):
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


def _oracle(config, problem):
    # the one oracle run_phases steps: None (exact), seed config.seed for one
    # repeat, and the tuple of the R seeds for R > 1 repeats
    if not config.is_stochastic():
        return None
    seeds = tuple(range(config.seed, config.seed + config.repeats))
    return GradientOracle(config.oracle_mode, config.batch_size,
                          seeds if config.repeats > 1 else config.seed, problem.m)


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


def _per_row_mean_records(traces):
    # the per-row np.mean form that _mean_records must reproduce bitwise
    out = []
    for rows in zip(*traces):
        slacks = [r.estimate_slack for r in rows]
        walls = [r.wall_nanos for r in rows]
        out.append(TraceRecord(
            k=rows[0].k,
            gap_pointwise=float(np.mean([r.gap_pointwise for r in rows])),
            gap_ergodic=float(np.mean([r.gap_ergodic for r in rows])),
            lagrangian=float(np.mean([r.lagrangian for r in rows])),
            residual=float(np.mean([r.residual for r in rows])),
            estimate_slack=(None if any(s is None for s in slacks)
                            else float(np.mean(slacks))),
            wall_nanos=(None if any(w is None for w in walls)
                        else int(np.mean(walls))),
        ))
    return out


@pytest.mark.parametrize("repeats", [2, 3, 8, 20])
@pytest.mark.parametrize("missing", [False, True], ids=["full", "none-cells"])
def test_mean_trace_bytes_match_the_per_row_mean(tmp_path, repeats, missing):
    rng = np.random.default_rng(repeats)
    rows = 300
    traces = []
    for r in range(repeats):
        values = rng.standard_normal((5, rows)) * 10.0 ** rng.integers(-12, 3, (5, rows))
        walls = rng.integers(0, 10**12, rows)
        traces.append([TraceRecord(
            k=k, gap_pointwise=float(values[0, k]), gap_ergodic=float(values[1, k]),
            lagrangian=float(values[2, k]), residual=abs(float(values[3, k])),
            # None slack cells in one repeat, or in every repeat
            estimate_slack=(None if missing and (k % 3 == 0 or r == 1 and k % 7 == 0)
                            else float(values[4, k])),
            wall_nanos=None if missing and k % 5 == 0 else int(walls[k]))
            for k in range(rows)])
    write_trace(tmp_path / "vectorized.csv", experiment._mean_records(traces))
    write_trace(tmp_path / "per_row.csv", _per_row_mean_records(traces))
    assert ((tmp_path / "vectorized.csv").read_bytes()
            == (tmp_path / "per_row.csv").read_bytes())
    if missing:
        assert read_trace(tmp_path / "vectorized.csv")[7].estimate_slack is None


def test_mean_records_rejects_runs_off_one_grid():
    a = [TraceRecord(k=k, gap_pointwise=0.0, gap_ergodic=0.0, lagrangian=0.0,
                     residual=0.0) for k in (1, 2, 3)]
    shifted = [r._replace(k=r.k + 1) for r in a]
    # rows at different k, or a run that stops early
    for traces in ([a, shifted], [a, a[:2]], [a[:2], a]):
        with pytest.raises(RuntimeError, match="logging grid"):
            experiment._mean_records(traces)


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


@pytest.mark.parametrize("overrides,match", [
    ({"beta": -1.0}, "beta must be nonnegative"),
    ({"experiment": "ot-inverse", "beta": -1.0}, "beta must be nonnegative"),
    ({"experiment": "ot-inverse", "gamma": 0.0}, "gamma must be finite and positive"),
    ({"n": 1}, "need n, m >= 2"),
    ({"m": 1}, "need n, m >= 2"),
    ({"experiment": "ot-inverse", "n": 3}, "need n >= 4"),
    ({"experiment": "ot-inverse", "noise_level": 1.5}, "noise_level must lie in [0, 1]"),
], ids=["tv-negative-beta", "ot-negative-beta", "ot-zero-gamma", "tv-n-1", "tv-m-1",
        "ot-n-3", "ot-noise_level-1.5"])
def test_problem_family_rejects_out_of_range_values(tmp_path, overrides, match):
    # the families check their sizes, beta, gamma and noise_level when they
    # are built, which run_guarded reports as an invalid config before any
    # reference is run
    _assert_invalid_config(_tiny_config(tmp_path, **overrides), match)
    assert list((tmp_path / "out").glob("reference_*.json")) == []


MALFORMED_NUMBERS = [
    ({"n": 8.5}, "n must be an integer"),
    ({"experiment": "ot-inverse", "beta": "1"}, "beta must be a real number"),
    ({"iterations": 20.0}, "iterations must be an integer"),
    ({"stop_gap": "x"}, "stop_gap must be a real number"),
    ({"cert_every": 1.5}, "cert_every must be an integer"),
    ({"repeats": True}, "repeats must be an integer"),
]


@pytest.mark.parametrize("overrides,match", MALFORMED_NUMBERS,
                         ids=["n-float", "beta-string", "iterations-float",
                              "stop_gap-string", "cert_every-float", "repeats-bool"])
def test_malformed_numeric_value_is_rejected(tmp_path, overrides, match):
    # each value once crashed with a TypeError, failed only after the
    # reference was cached, or ran (cert_every 1.5 certified every third step)
    _assert_invalid_config(_tiny_config(tmp_path, **overrides), match)
    assert list((tmp_path / "out").glob("reference_*.json")) == []


NON_FINITE_REALS = [
    {"experiment": "ot-inverse", "gamma": float("nan")},
    {"stop_gap": float("nan")},
    {"experiment": "ot-inverse", "gamma": float("inf")},
    {"beta": float("nan")},
]


@pytest.mark.parametrize("overrides", NON_FINITE_REALS,
                         ids=["ot-gamma-nan", "tv-stop_gap-nan",
                              "ot-gamma-inf", "tv-beta-nan"])
def test_non_finite_real_value_is_rejected(tmp_path, overrides):
    # NaN fails every bound comparison: these once failed after the build,
    # ran as if stop_gap were unset, or ran to a NaN final gap
    key = next(k for k in overrides if k != "experiment")
    config = _tiny_config(tmp_path, iterations=20, **overrides)
    _assert_invalid_config(config, f"{key} must be finite")
    assert list((tmp_path / "out").glob("reference_*.json")) == []


CUSTOM_DATA = {"experiment": "custom", "A": [[1.0, 0.2], [0.3, 1.4], [0.5, 0.6]],
               "b": [0.4, 0.9, 0.5]}


@pytest.mark.parametrize("overrides,match", [
    ({"n": 8, "m": 9, "iterations": 20, "seed": 2**128 - 1,
      "oracle_mode": "paper-partial", "batch_size": 3, "repeats": 2},
     "seed + repeats - 1 must be below 2**128"),
    (dict(CUSTOM_DATA, seed=-3, oracle_mode="paper-partial", batch_size=2),
     "seed must be nonnegative"),
], ids=["tv-seed-past-philox-keys", "custom-negative-seed"])
def test_seed_outside_the_philox_key_range_is_rejected(tmp_path, overrides, match):
    # each oracle is keyed by seed + repeat index: these once cached a
    # reference and then failed with a ValueError from the generator
    _assert_invalid_config(_tiny_config(tmp_path, **overrides), match)
    assert list((tmp_path / "out").glob("reference_*.json")) == []


def test_largest_philox_seed_runs(tmp_path):
    config = _tiny_config(tmp_path, iterations=20, seed=2**128 - 2, repeats=2,
                          oracle_mode="paper-partial", batch_size=3)
    assert run_experiment(config, log=lambda s: None) == 0
    assert (tmp_path / "out" / "mean_trace.csv").exists()


@pytest.mark.parametrize("bad_step", [500, 1100], ids=["reference", "measured"])
def test_non_finite_gradient_mid_run_fails_the_run(tmp_path, monkeypatch, bad_step):
    # 1000 reference steps, the first 1000 measured ones replayed from them,
    # then 300 more stepped; the reference phase logs nothing, so only run's
    # final check sees the NaN there
    calls = []
    f_grad = SimplexTVProblem.f_grad

    def nan_grad(self, x):
        calls.append(1)
        grad = f_grad(self, x)
        return np.full_like(grad, np.nan) if len(calls) >= bad_step else grad

    monkeypatch.setattr(SimplexTVProblem, "f_grad", nan_grad)
    config = _tiny_config(tmp_path, reference_iterations=1000, iterations=1300)
    lines = []
    assert run_experiment(config, log=lines.append) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc["error"] == "DomainError" and json.loads(lines[0]) == doc
    assert not (tmp_path / "out" / "trace.csv").exists()
    cached = list((tmp_path / "out").glob("reference_*.json"))
    assert len(cached) == (bad_step > 1000)


@pytest.mark.parametrize("overrides", [
    {},
    {"experiment": "custom", "A": [[1.0, 0.2, 0.7]] * 4, "b": [0.5] * 4},
    {"experiment": "ot-inverse", "n": 12, "iterations": 50},
], ids=["simplex-tv", "custom", "ot-inverse"])
def test_no_run_computes_an_svd(tmp_path, monkeypatch, overrides):
    # the steps take the closed-form column bound of coupling_norm, so a
    # run, cold and warm, and a reference never reach LAPACK's SVD (which
    # np.linalg.norm(M, 2) calls through the name in numpy.linalg._linalg)
    def svd(*args, **kwargs):
        raise AssertionError("a run computed an SVD")

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg._linalg, "svd", svd)
    config = _tiny_config(tmp_path, **overrides)
    for cache in ("miss", "hit"):
        assert run_experiment(config, log=lambda s: None) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["reference_cache"] == cache
    if not overrides:
        path = tmp_path / "reference.json"
        path.write_text(json.dumps(dict(asdict(config), iterations=50,
                                        output_dir=str(tmp_path / "ref"))))
        assert main(["reference", "--config", str(path)]) == 0


def test_stochastic_oracle_on_ot_inverse_is_rejected(tmp_path):
    config = _tiny_config(tmp_path, experiment="ot-inverse", iterations=50,
                          oracle_mode="paper-partial", batch_size=4)
    _assert_invalid_config(config, "ot-inverse")


@pytest.mark.parametrize("key,data", [
    ("A", {"A": [[True, 1.0], [2.0, 3.0]], "b": [1, 2]}),
    ("b", {"A": [[1.0, 1.0], [2.0, 3.0]], "b": [1, False]}),
    ("A", {"A": "[[1.0, 2.0], [3.0, 4.0]]", "b": [1, 2]}),
    ("A", {"A": [1.0, 2.0], "b": [1, 2]}),
    ("A", {"A": [[1.0, [2.0]], [3.0, 4.0]], "b": [1, 2]}),
    ("b", {"A": [[1.0, 2.0], [3.0, 4.0]], "b": {"x": 1},
           "oracle_mode": "paper-partial", "batch_size": 2}),
    ("b", {"A": [[1.0, 2.0], [3.0, 4.0]], "b": [[1, 2]]}),
    ("A", {"A": [[10 ** 400, 2.0], [3.0, 4.0]], "b": [1, 2]}),
], ids=["bool-in-A", "bool-in-b", "string-A", "vector-A", "nested-entry",
        "object-b-with-batch", "matrix-b", "int-beyond-float"])
def test_custom_arrays_must_hold_numbers(tmp_path, key, data):
    # a true once read as 1.0, an object b as one gradient summand, and an
    # integer beyond the float range escaped as a traceback
    config = _tiny_config(tmp_path, experiment="custom", **data)
    _assert_invalid_config(config, f"A and b must be arrays of numbers: {key} must")


def test_custom_matrix_with_nan_is_rejected(tmp_path):
    # NaN passes the positivity test (NaN <= 0 is false), so only the
    # finiteness check stops it
    for bad in (float("nan"), float("inf")):
        config = _tiny_config(tmp_path, experiment="custom",
                              A=[[1.0, bad], [0.3, 1.4]], b=[0.4, 0.9])
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
    # cold, the walls of the held steps, and of the steps past a shorter
    # reference, share the clock that starts with the reference; warm, every
    # step is stepped on the measured phase's clock
    for name, overrides, rows in (
            ("held", {"iterations": 60}, 60),
            ("held-then-stepped", {"reference_iterations": 1000, "iterations": 1100}, 1050)):
        config = _tiny_config(tmp_path / name, record_timing=True, **overrides)
        for _ in ("cold", "warm"):
            assert run_experiment(config, log=lambda s: None) == 0
            walls = [r.wall_nanos for r in read_trace(Path(config.output_dir) / "trace.csv")]
            assert len(walls) == rows and all(isinstance(w, int) and w > 0 for w in walls)
            assert walls == sorted(walls)


@pytest.mark.parametrize("value", ["no", 1, None], ids=["string", "int", "null"])
def test_record_timing_must_be_a_bool(tmp_path, value):
    # "no" is truthy: it once ran and wrote wall-clock nanoseconds into
    # trace.csv, so reruns were no longer byte-identical
    config = _tiny_config(tmp_path, iterations=20, record_timing=value)
    _assert_invalid_config(config, "record_timing")
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_stop_gap_cuts_run_short(tmp_path):
    config = _tiny_config(tmp_path, iterations=4000, stop_gap=1e9)
    assert run_experiment(config, log=lambda s: None) == 0
    records = read_trace(tmp_path / "out" / "trace.csv")
    assert len(records) == 100 and records[-1].k == 100
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["resolved"]["measured_iterations"] == 100


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


@pytest.mark.parametrize("overrides", [
    {},
    {"oracle_mode": "paper-partial", "batch_size": 5},
    {"cert_every": 3},
    {"experiment": "ot-inverse"},
], ids=["tv-exact", "tv-paper-partial-q5", "tv-cert-every-3", "ot-inverse"])
def test_logged_rows_match_one_shot_functions(tmp_path, overrides):
    # past k = 1000 rows are sparse, so the certificate of a logged row can
    # not reuse the previous row's energy; cert_every = 3 never can
    config = _tiny_config(tmp_path, iterations=1200, **overrides)
    assert run_experiment(config, log=lambda s: None) == 0
    problem = config.build_problem()
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    w_star = compute_reference(problem, config.resolved_reference_budget(),
                               config.seed, cache_dir=config.output_dir).w_star
    oracle = None
    name = "trace.csv"
    if config.is_stochastic():
        oracle = GradientOracle(config.oracle_mode, config.batch_size,
                                config.seed, problem.m)
        name = "run_000.csv"
    rows = {r.k: r for r in read_trace(tmp_path / "out" / name)}
    seen = []

    def observe(prev, state):
        row = rows.get(state.k)
        if row is None:
            return False
        seen.append(state.k)
        assert row.gap_pointwise == lagrangian_gap(
            saddle, (state.x, state.mu), w_star)
        assert row.gap_ergodic == lagrangian_gap(
            saddle, (state.x_bar, state.mu_bar), w_star)
        assert row.lagrangian == saddle.lagrangian_eval(state.x.coords, state.mu)
        if state.k % config.cert_every:
            assert row.estimate_slack is None
            return False
        delta = None
        if oracle is not None:
            _, delta = oracle.grad_estimate(
                saddle.f_grad, saddle.f_partial_grad, prev.x.coords, prev.k)
        slack, _ = estimate_inequality_terms(
            saddle, schedule, (prev.x, prev.mu), (state.x, state.mu), w_star,
            k=prev.k, primal_delta=delta)
        assert row.estimate_slack == slack
        return False

    run(saddle, schedule, initial_state(*problem.initial_point()),
        config.iterations, oracle, observe)
    assert seen == sorted(rows) and seen[-1] == 1200
    assert any(k > 1000 and k - 1 not in rows for k in seen)


def test_infeasible_reference_fails_before_any_step(tmp_path):
    config = _tiny_config(tmp_path)
    problem = config.build_problem()
    steps = []

    def counted_grad(x):
        steps.append(1)
        return problem.f_grad(x)

    saddle = dataclasses.replace(problem.saddle_problem(), f_grad=counted_grad)
    x0, mu0 = problem.initial_point()
    reference = ReferenceSolution(x_star=np.full(8, 0.5), mu_star=mu0,
                                  ref_tol=0.0, config_hash="", iterations=1000)
    with pytest.raises(DomainError, match="w_ref"):
        experiment._measured_run(problem, saddle, problem.default_schedule(),
                                 reference, experiment._logged_ks(10), config)
    assert steps == []


def _slack_cells(out, names):
    return sum(r.estimate_slack is not None
               for name in names for r in read_trace(out / name))


@pytest.mark.parametrize("overrides,names", [
    ({}, ["trace.csv"]),
    ({"oracle_mode": "paper-partial", "batch_size": 4, "repeats": 2,
      "cert_every": 3}, ["run_000.csv", "run_001.csv"]),
], ids=["exact", "stochastic-cert-every-3"])
def test_meta_certificate_counts_the_certified_rows(tmp_path, overrides, names):
    config = _tiny_config(tmp_path, **overrides)
    assert run_experiment(config, log=lambda s: None) == 0
    out = tmp_path / "out"
    cert = json.loads((out / "meta.json").read_text())["certificate"]
    assert cert["evaluated"] == _slack_cells(out, names) > 0
    assert cert["violations"] == 0
    assert cert["worst_scaled_slack"] >= -1e-8


def test_meta_certificate_is_empty_without_certificates(tmp_path):
    config = _tiny_config(tmp_path, cert_every=0)
    assert run_experiment(config, log=lambda s: None) == 0
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["certificate"] == {"evaluated": 0, "worst_scaled_slack": None,
                                   "violations": 0}


def test_meta_certificate_of_the_rerun_config(tmp_path):
    # the acceptance 11 config: no violation, and a rerun writes the same
    # meta.json apart from its output_dir
    metas = []
    for sub in ("a", "b"):
        config = ExperimentConfig(experiment="simplex-tv", n=12, m=14, seed=9,
                                  iterations=1200, oracle_mode="paper-partial",
                                  batch_size=4, repeats=2,
                                  output_dir=str(tmp_path / sub))
        assert run_experiment(config, log=lambda s: None) == 0
        meta = json.loads((tmp_path / sub / "meta.json").read_text())
        assert meta["config"].pop("output_dir") == str(tmp_path / sub)
        metas.append(meta)
    assert metas[0] == metas[1]
    cert = metas[0]["certificate"]
    assert cert["violations"] == 0
    assert cert["evaluated"] == _slack_cells(tmp_path / "a",
                                             ["run_000.csv", "run_001.csv"])


def test_meta_reference_cache_reads_miss_then_hit(tmp_path):
    # the rerun in the same directory reads the checked reference file; a
    # file that fails its checks is recomputed, and reads as a miss
    config = _tiny_config(tmp_path)
    out = tmp_path / "out"
    metas = []
    for _ in range(2):
        assert run_experiment(config, log=lambda s: None) == 0
        metas.append(json.loads((out / "meta.json").read_text()))
    assert [m.pop("reference_cache") for m in metas] == ["miss", "hit"]
    assert metas[0] == metas[1]
    (ref_file,) = out.glob("reference_*.json")
    ref_file.write_text("{}")
    assert run_experiment(config, log=lambda s: None) == 0
    assert json.loads((out / "meta.json").read_text())["reference_cache"] == "miss"


def test_meta_certificate_counts_a_violation_and_exits_0(tmp_path, monkeypatch):
    slack_of = experiment.ReferenceEvaluator.slack
    broken = []

    def breaks_the_first_two_rows(self, *args):
        # a block of logged k is certified in one call, one slack per row
        slack, scale = slack_of(self, *args)
        slack = slack.copy()
        first = slice(0, 2 - len(broken))
        broken.extend(slack[first].tolist())
        slack[first] = -1e-6 * scale[first]
        return slack, scale

    monkeypatch.setattr(experiment.ReferenceEvaluator, "slack", breaks_the_first_two_rows)
    config = _tiny_config(tmp_path)
    assert run_experiment(config, log=lambda s: None) == 0
    cert = json.loads((tmp_path / "out" / "meta.json").read_text())["certificate"]
    assert cert["violations"] == 2
    assert cert["worst_scaled_slack"] == -1e-6
    assert cert["evaluated"] == 300


@pytest.mark.parametrize("overrides", [
    {},
    {"oracle_mode": "paper-partial", "batch_size": 4},
    {"oracle_mode": "paper-partial", "batch_size": 4, "repeats": 3},
], ids=["exact", "stochastic", "three-repeats"])
def test_measured_run_hands_records_python_floats(tmp_path, overrides):
    # the evaluator returns numpy scalars for one run and arrays for a
    # stack; a np.float64 cell would write "np.float64(...)" to a trace
    config = _tiny_config(tmp_path, iterations=50, **overrides)
    problem = config.build_problem()
    runs = experiment._measured_run(problem, problem.saddle_problem(),
                                    problem.default_schedule(),
                                    compute_reference(problem, 1000, config.seed),
                                    experiment._logged_ks(config.iterations), config,
                                    _oracle(config, problem))
    assert len(runs) == config.repeats
    for records, certificates in runs:
        assert len(records) == len(certificates) == 50
        cells = [getattr(r, name) for r in records
                 for name in ("gap_pointwise", "gap_ergodic", "lagrangian",
                              "residual", "estimate_slack")]
        cells += [v for pair in certificates for v in pair]
        assert {type(v) for v in cells} == {float}


@pytest.mark.parametrize("overrides,seeds", [
    ({}, []),
    ({"oracle_mode": "paper-partial", "batch_size": 4}, [5]),
    ({"oracle_mode": "scaled-unbiased", "batch_size": 4, "repeats": 3}, [(5, 6, 7)]),
], ids=["exact", "one-repeat", "three-repeats"])
def test_a_run_builds_the_one_oracle_it_steps(tmp_path, monkeypatch, overrides, seeds):
    # no oracle for an exact run, seed config.seed for one repeat, and the
    # tuple of the R seeds for R repeats, which step as one stacked state
    built = []

    class Counted(GradientOracle):
        def __post_init__(self):
            super().__post_init__()
            built.append(self.seed)

    monkeypatch.setattr(experiment, "GradientOracle", Counted)
    config = _tiny_config(tmp_path, iterations=50, **overrides)
    assert run_experiment(config, log=lambda s: None) == 0
    assert built == seeds
    assert [type(s) for s in built] == [type(s) for s in seeds]


def test_a_one_seed_tuple_oracle_steps_a_one_row_stack(tmp_path, monkeypatch):
    # a tuple seed makes a stack of as many rows, one seed included: its run
    # steps (1, n) states, never 1-d ones fed (1, q) batches, and is bitwise
    # the run of the int seed
    config = _tiny_config(tmp_path, iterations=50, oracle_mode="paper-partial",
                          batch_size=4, cert_every=3)
    problem = config.build_problem()
    reference = compute_reference(problem, 1000, config.seed)
    run_of, shapes = experiment.run, []

    def recorded(saddle, schedule, state, *args):
        shapes.append(state.mu.shape)
        return run_of(saddle, schedule, state, *args)

    monkeypatch.setattr(experiment, "run", recorded)
    runs = {}
    for seed in (config.seed, (config.seed,)):
        shapes.clear()
        [(records, certificates)] = experiment._measured_run(
            problem, problem.saddle_problem(), problem.default_schedule(), reference,
            experiment._logged_ks(config.iterations), config,
            GradientOracle(config.oracle_mode, config.batch_size, seed, problem.m))
        assert shapes and set(shapes) == {(1, 7) if type(seed) is tuple else (7,)}
        runs[type(seed)] = ([tuple(float.hex(v) if type(v) is float else v for v in r)
                             for r in records],
                            [tuple(map(float.hex, c)) for c in certificates])
    assert runs[tuple] == runs[int]
    assert len(runs[int][0]) == 50 and len(runs[int][1]) == 16


# bytes of one logged state of the tiny simplex-tv instance: x, log x and
# the ergodic mean of x (n = 8), mu and its mean (n - 1 = 7)
_STATE_BYTES = 8 * (3 * 8 + 2 * 7)


def _counted_measured_run(tmp_path, cert_every, iterations):
    # the coupling applies of one exact measured run, and the run
    config = _tiny_config(tmp_path, cert_every=cert_every, iterations=iterations)
    problem = config.build_problem()
    saddle = problem.saddle_problem()
    reference = compute_reference(problem, 1000, config.seed)
    calls = []
    apply = problem.coupling.apply

    def counted(x):
        calls.append(1)
        return apply(x)

    problem.coupling.apply = counted  # the saddle shares this LinearMap
    [run] = experiment._measured_run(problem, saddle, problem.default_schedule(),
                                     reference, experiment._logged_ks(iterations),
                                     config)
    del problem.coupling.apply
    return len(calls), run, (problem, reference, config)


def _measured_run_applies(tmp_path, cert_every, iterations):
    applies, (records, _), _ = _counted_measured_run(tmp_path, cert_every, iterations)
    assert len(records) == iterations
    return applies


def test_carried_certified_row_applies_the_coupling_twice(tmp_path):
    # every step applies T once and the evaluator once for T x_ref; a block
    # of logged k applies it once to its iterates and ergodic means stacked,
    # and certifying the block adds one apply, to the previous state of k = 1
    # (every later certified k takes E_k from the row before)
    n = 12
    assert n * _STATE_BYTES <= experiment._BLOCK_BYTES  # one block
    plain = _measured_run_applies(tmp_path, 0, n)
    assert plain == n + 1 + 1
    assert _measured_run_applies(tmp_path, 1, n) == plain + 1


@pytest.mark.parametrize("cert_every,fresh", [(0, 0), (1, 3), (3, 3)])
def test_a_block_applies_the_coupling_once_to_its_fresh_previous_states(
        tmp_path, monkeypatch, cert_every, fresh):
    # 1200 steps log k = 1..1000 and every 2nd k after it: 1100 rows, in
    # blocks of 431, 431 and 238 logged k (the last from k = 863), so
    # 1200 + 1 + 3 applies without certificates. A block certifies itself:
    # a certified row takes E_k from the certified row before it in its
    # block when its previous state is that row's, and every block with a
    # certified row applies T once more, to the other previous states: the
    # first certified row's, those of the rows past k = 1000 and, with
    # cert_every 3, every row's. With cert_every 1 the second block's first
    # row, k = 432, applies T to the state the first block ended on, which no
    # block hands on (1206 applies when blocks carried E_{k+1}). Each such
    # block makes one energy call, and every certified row is still bitwise
    # the per-row evaluation of its own step.
    assert experiment._BLOCK_BYTES // _STATE_BYTES == 431
    energy, energies = ReferenceEvaluator.energy, []

    def counted(self, *args):
        energies.append(1)
        return energy(self, *args)

    monkeypatch.setattr(ReferenceEvaluator, "energy", counted)
    applies, (records, certificates), (problem, reference, config) = \
        _counted_measured_run(tmp_path, cert_every, 1200)
    assert len(records) == 1100
    assert applies == 1200 + 1 + 3 + fresh
    assert len(energies) == (3 if cert_every else 0)
    replayed, replayed_certificates = _replayed_run(problem, reference, 1200, config, None)
    assert records == replayed
    assert [tuple(map(float.hex, c)) for c in certificates] == \
        [tuple(map(float.hex, c)) for c in replayed_certificates]
    # cert_every 3: 333 k up to 1000, then the 34 multiples of 6 up to 1200
    assert len(certificates) == {0: 0, 1: 1100, 3: 333 + 34}[cert_every]


def _replayed_run(problem, reference, iterations, config, oracle):
    """``_measured_run``'s records and certificates of one run, evaluated one
    logged k at a time through the public 1-d evaluator."""
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    evaluator = ReferenceEvaluator(saddle, schedule, reference.w_star)
    records, certificates = [], []

    def observe(prev, state):
        if not should_log(state.k, final=iterations):
            return False
        gap, parts = evaluator.gap((state.x, state.mu))
        slack = None
        if config.cert_every and state.k % config.cert_every == 0:
            delta = None
            if oracle is not None:
                _, delta = oracle.grad_estimate(
                    saddle.f_grad, saddle.f_partial_grad, prev.x.coords, prev.k)
            slack, scale = evaluator.certificate(
                (prev.x, prev.mu), (state.x, state.mu), gap,
                primal_delta=delta, parts=parts)
            certificates.append((float(slack), float(scale)))
        records.append(TraceRecord(
            state.k, float(gap),
            float(evaluator.gap((state.x_bar, state.mu_bar))[0]),
            float(evaluator.lagrangian(parts)),
            float(asymptotic_residual(prev, state)),
            None if slack is None else float(slack)))
        tail = records[-100:]
        return (config.stop_gap is not None and len(tail) == 100
                and all(r.gap_pointwise < config.stop_gap for r in tail))

    run(saddle, schedule, initial_state(*problem.initial_point()), iterations,
        oracle, observe)
    return records, certificates


@pytest.mark.parametrize("overrides", [
    {"iterations": 1100},
    {"iterations": 150, "cert_every": 0},
    {"iterations": 128, "cert_every": 3},
    {"iterations": 150, "cert_every": 3, "oracle_mode": "paper-partial",
     "batch_size": 4},
    {"iterations": 150, "oracle_mode": "paper-partial", "batch_size": 4,
     "repeats": 3},
    {"iterations": 1100, "cert_every": 3, "oracle_mode": "scaled-unbiased",
     "batch_size": 4, "repeats": 3},
    {"iterations": 3000, "stop_gap": 1e-3},
    {"experiment": "ot-inverse", "iterations": 150},
    {"experiment": "ot-inverse", "iterations": 1100, "cert_every": 3},
], ids=["exact-1100", "cert-every-0", "full-blocks-cert-every-3",
        "one-repeat-cert-every-3", "three-repeats", "three-repeats-1100-cert-every-3",
        "stop-gap", "ot-inverse", "ot-inverse-1100-cert-every-3"])
def test_blocks_of_logged_k_equal_the_per_row_replay(tmp_path, overrides):
    # logged k are evaluated _BLOCK_BYTES at a time as one stack; every record
    # and (slack, scale) pair equals the 1-d evaluation of its own k, across
    # block boundaries, certified rows split between blocks and a last
    # block that is not full
    config = _tiny_config(tmp_path, **overrides)
    for (records, certificates), (replayed, replayed_certificates) in \
            _runs_and_replays(config):
        assert records == replayed
        assert certificates == replayed_certificates
    if config.stop_gap is not None:  # the run stopped early
        assert 100 < len(records) < config.iterations


@pytest.mark.parametrize("block_states", [1, 7])
@pytest.mark.parametrize("overrides", [
    {"iterations": 1100},
    {"iterations": 1100, "cert_every": 3, "oracle_mode": "scaled-unbiased",
     "batch_size": 4, "repeats": 3},
    {"iterations": 3000, "stop_gap": 1e-3, "cert_every": 2},
], ids=["exact-1100", "three-repeats-1100-cert-every-3", "stop-gap-cert-every-2"])
def test_small_blocks_equal_the_per_row_replay(tmp_path, monkeypatch, overrides,
                                               block_states):
    # a block reads nothing of the blocks before it: with one logged state a
    # block, every certified row starts its own chain of energies. The
    # stop_gap run stops at k = 180 with 90 certificates: with 7 states a
    # block, its stop block is k = 176-182, and the stop rule cuts row 181
    # (not certified) and row 182 (certified) from it
    config = _tiny_config(tmp_path, **overrides)
    monkeypatch.setattr(experiment, "_BLOCK_BYTES",
                        block_states * config.repeats * _STATE_BYTES)

    def bits(rows):
        return [tuple(float.hex(v) if type(v) is float else v for v in row) for row in rows]

    for run, replay in _runs_and_replays(config):
        assert [bits(rows) for rows in run] == [bits(rows) for rows in replay]
    if config.stop_gap is not None:
        records, certificates = run
        assert records[-1].k == 180 and len(certificates) == 90


def _runs_and_replays(config):
    # each run of _measured_run, (records, certificates), with its per-row replay
    problem = config.build_problem()
    reference = compute_reference(problem, 1000, config.seed)
    runs = experiment._measured_run(problem, problem.saddle_problem(),
                                    problem.default_schedule(), reference,
                                    experiment._logged_ks(config.iterations), config,
                                    _oracle(config, problem))
    assert len(runs) == config.repeats
    return [((records, list(certificates)), _replayed_run(
        problem, reference, config.iterations, config,
        config.is_stochastic() and GradientOracle(config.oracle_mode, config.batch_size,
                                                  config.seed + r, problem.m) or None))
        for r, (records, certificates) in enumerate(runs)]


def test_nan_in_the_last_block_fails_its_feasibility_check(tmp_path, monkeypatch):
    # 1000 reference steps, the first 1000 measured ones replayed from them,
    # then 300 more stepped; a NaN iterate at k = 1298 is reported by the
    # check of its row in the last block, which is evaluated inside the run,
    # not by run's final check
    calls = []
    prox = problems.kl_prox_simplex

    def nan_prox(x, v, lam):
        calls.append(1)
        point = prox(x, v, lam)
        if len(calls) >= 1000 + 298:
            point.coords[0] = np.nan
        return point

    monkeypatch.setattr(problems, "kl_prox_simplex", nan_prox)
    config = _tiny_config(tmp_path, reference_iterations=1000, iterations=1300)
    assert run_experiment(config, log=lambda s: None) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc == {"error": "DomainError",
                   "message": "primal part of w violates its constraints"}
    assert len(calls) == 1000 + 300


def test_nan_in_a_middle_window_fails_that_window_s_check(tmp_path, monkeypatch):
    # 1000 reference steps, then 300 more stepped in three windows of 50
    # logged k (the even k 1002-1100, 1102-1200 and 1202-1300), one run
    # call each; a NaN iterate at k = 1150 is reported by the feasibility
    # check of the second window, evaluated at k = 1200 inside its call,
    # not by that call's final check, and no later step is taken
    calls = []
    prox = problems.kl_prox_simplex

    def nan_prox(x, v, lam):
        calls.append(1)
        point = prox(x, v, lam)
        if len(calls) >= 1000 + 150:
            point.coords[0] = np.nan
        return point

    monkeypatch.setattr(problems, "kl_prox_simplex", nan_prox)
    monkeypatch.setattr(experiment, "_BLOCK_BYTES", 50 * _STATE_BYTES)
    config = _tiny_config(tmp_path, reference_iterations=1000, iterations=1300)
    assert run_experiment(config, log=lambda s: None) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc == {"error": "DomainError",
                   "message": "primal part of w violates its constraints"}
    assert len(calls) == 1000 + 200


def test_nan_past_the_stop_k_fails_the_run_cold_and_warm(tmp_path, monkeypatch):
    # the run stops at k = 100 and a NaN iterate enters at k = 200. A warm
    # run steps and evaluates on to k = 431, the last k of its stop block,
    # whose feasibility check reports the NaN; a cold run steps the whole
    # 1500-step reference, whose final check reports it
    calls = []
    prox = problems.kl_prox_simplex

    def nan_prox(x, v, lam):
        calls.append(1)
        point = prox(x, v, lam)
        if len(calls) >= 200:
            point.coords[0] = np.nan
        return point

    config = _tiny_config(tmp_path, iterations=1200, stop_gap=0.05)
    error = tmp_path / "out" / "error.json"
    for cached, message, steps in [
            (False, "x has non-finite entries at k = 1500", 1500),
            (True, "primal part of w violates its constraints", 431)]:
        if cached:
            assert run_experiment(config, log=lambda s: None) == 0
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(problems, "kl_prox_simplex", nan_prox)
            assert run_experiment(config, log=lambda s: None) == 1
        assert json.loads(error.read_text()) == {"error": "DomainError", "message": message}
        assert len(calls) == steps
        error.unlink()


def test_nan_in_an_ergodic_mean_only_fails_its_finiteness_check(tmp_path, monkeypatch):
    # the iterates stay finite and x_bar (the first n entries of the (x | mu)
    # means row) turns NaN at stepped k = 1100 (past the 1000 held steps), in
    # the means a window carries; the means, stacked with the iterates for
    # one gap, are checked after the iterates' feasibility, as vectors, as
    # before
    moved_means = experiment._moved_means
    config = _tiny_config(tmp_path, reference_iterations=1000, iterations=1300)

    def nan_mean(bar, k, new, out):
        out = moved_means(bar, k, new, out)
        if k == 1100:
            out[..., :config.n] = np.nan
        return out

    monkeypatch.setattr(experiment, "_moved_means", nan_mean)
    lines = []
    assert run_experiment(config, log=lines.append) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc == {"error": "ValueError",
                   "message": "coords contains non-finite entries"}
    assert json.loads(lines[0]) == doc
    assert not (tmp_path / "out" / "trace.csv").exists()


def test_nan_inside_the_held_steps_fails_the_reference(tmp_path, monkeypatch):
    # the 300 measured steps are the reference's first ones, held and never
    # stepped again: a NaN iterate at k = 150 fails the reference's final
    # check, before anything is written
    calls = []
    prox = problems.kl_prox_simplex

    def nan_prox(x, v, lam):
        calls.append(1)
        point = prox(x, v, lam)
        if len(calls) == 150:
            point.coords[0] = np.nan
        return point

    monkeypatch.setattr(problems, "kl_prox_simplex", nan_prox)
    config = _tiny_config(tmp_path)
    lines = []
    assert run_experiment(config, log=lines.append) == 1
    out = tmp_path / "out"
    doc = json.loads((out / "error.json").read_text())
    assert doc["error"] == "DomainError" and json.loads(lines[0]) == doc
    assert doc["message"].endswith("has non-finite entries at k = 1000")
    assert len(calls) == 1000
    assert not (out / "trace.csv").exists()
    assert list(out.glob("reference_*.json")) == []


def test_nan_mid_block_of_a_stochastic_run_fails_its_next_estimate(tmp_path, monkeypatch):
    # a stochastic run steps its measured phase, and the step after a NaN
    # iterate draws a gradient estimate before the iterate's block is checked
    calls = []
    prox = problems.kl_prox_simplex

    def nan_prox(x, v, lam):
        calls.append(1)
        point = prox(x, v, lam)
        if len(calls) == 1000 + 100:
            point.coords[0] = np.nan
        return point

    monkeypatch.setattr(problems, "kl_prox_simplex", nan_prox)
    config = _tiny_config(tmp_path, oracle_mode="paper-partial", batch_size=4,
                          cert_every=3)
    lines = []
    assert run_experiment(config, log=lines.append) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc == {"error": "OracleError",
                   "message": "non-finite gradient estimate at iteration 100"}
    assert json.loads(lines[0]) == doc


@pytest.mark.parametrize("repeats", [1, 3])
@pytest.mark.parametrize("mode", ["paper-partial", "scaled-unbiased"])
def test_block_noise_terms_equal_the_per_row_grad_estimate(tmp_path, monkeypatch,
                                                           mode, repeats):
    # a block's gradient-estimate errors are one stacked partial gradient
    # minus one stacked full gradient, each row bitwise the delta that
    # GradientOracle.grad_estimate gives its own k; blocks of 10 logged k
    # put prev.k 250..259 in one block, across the oracle blocks at k = 256
    monkeypatch.setattr(experiment, "_BLOCK_BYTES", 10 * repeats * _STATE_BYTES)
    config = _tiny_config(tmp_path, oracle_mode=mode, batch_size=4, repeats=repeats)
    problem = config.build_problem()
    saddle = problem.saddle_problem()
    estimate_errors, blocks = experiment._estimate_errors, []

    def kept(saddle, oracle, batches, x, ks):
        delta = estimate_errors(saddle, oracle, batches, x, ks)
        blocks.append((ks.tolist(), delta))
        return delta

    monkeypatch.setattr(experiment, "_estimate_errors", kept)
    experiment._measured_run(problem, saddle, problem.default_schedule(),
                             compute_reference(problem, 1000, config.seed),
                             experiment._logged_ks(config.iterations), config,
                             _oracle(config, problem))
    expected = []
    for r in range(repeats):
        oracle, deltas = GradientOracle(mode, 4, config.seed + r, problem.m), {}

        def observe(prev, state):
            deltas[prev.k] = oracle.grad_estimate(
                saddle.f_grad, saddle.f_partial_grad, prev.x.coords, prev.k)[1]
            return False

        run(saddle, problem.default_schedule(),
            initial_state(*problem.initial_point()), config.iterations, oracle, observe)
        expected.append(deltas)
    rows = [(k, i % repeats, delta[i]) for ks, delta in blocks for i, k in enumerate(ks)]
    assert len(rows) == config.iterations * repeats
    assert all(delta.tobytes() == expected[r][k].tobytes() for k, r, delta in rows)
    assert any({255, 256} <= set(ks) for ks, _ in blocks)


@pytest.mark.parametrize("cert_every,certified", [(1, 200), (3, 66)])
def test_a_run_draws_once_per_step_and_per_certified_k(tmp_path, monkeypatch,
                                                       cert_every, certified):
    # each stacked step draws the (R, q) batch of its k in one call, and each
    # certified k takes the batch of its step again (a block hit), for its
    # noise term
    sample_batch, calls = GradientOracle.sample_batch, []

    def counted(self, k):
        calls.append(k)
        return sample_batch(self, k)

    monkeypatch.setattr(GradientOracle, "sample_batch", counted)
    config = _tiny_config(tmp_path, iterations=200, oracle_mode="paper-partial",
                          batch_size=4, repeats=2, cert_every=cert_every)
    assert run_experiment(config, log=lambda s: None) == 0
    assert len(calls) == 200 + certified


def test_non_finite_full_gradient_at_a_certified_row_fails_with_its_k(tmp_path,
                                                                       monkeypatch):
    # the full gradient at repeat 1's iterate x_56 is NaN; k = 57 is certified,
    # in the middle of its block, and the run fails with that row's own k
    config = _tiny_config(tmp_path, oracle_mode="paper-partial", batch_size=4,
                          repeats=2, cert_every=3)
    assert run_experiment(config, log=lambda s: None) == 0  # caches the reference
    problem = config.build_problem()
    iterates = {}

    def observe(prev, state):
        iterates[state.k] = state.x.coords
        return False

    run(problem.saddle_problem(), problem.default_schedule(),
        initial_state(*problem.initial_point()), 56,
        GradientOracle("paper-partial", 4, config.seed + 1, problem.m), observe)
    f_grad = SimplexTVProblem.f_grad

    def nan_at_x56(self, x):
        g = f_grad(self, x)
        return np.where((x == iterates[56]).all(axis=-1)[..., None], np.nan, g)

    monkeypatch.setattr(SimplexTVProblem, "f_grad", nan_at_x56)
    lines = []
    assert run_experiment(config, log=lines.append) == 1
    doc = json.loads((tmp_path / "out" / "error.json").read_text())
    assert doc == {"error": "OracleError",
                   "message": "non-finite full gradient at iteration 56"}
    assert json.loads(lines[0]) == doc


def _stacked(pairs):
    # the (prev, state) of each logged k, states of a means-keeping run, as
    # the row stacks of a _Block: the iterates, then the ergodic means
    prevs, states = zip(*pairs)

    def rows(arrays):
        return np.array(arrays).reshape(-1, arrays[0].shape[-1])

    return experiment._Block(
        [s.k for s in states], rows([s.x.coords for s in states] + [s.x_bar for s in states]),
        rows([s.mu for s in states] + [s.mu_bar for s in states]),
        rows([s.x.log_coords for s in states]), rows([p.x.coords for p in prevs]),
        rows([p.x.log_coords for p in prevs]), rows([p.mu for p in prevs]), None, None, None)


@pytest.mark.parametrize("experiment_name", ["simplex-tv", "ot-inverse", "custom"])
def test_held_steps_rebuild_the_stepped_states_bitwise(tmp_path, experiment_name):
    # 1200 of 1500 reference steps are the measured phase: k = 1..1000 and
    # every 2nd k after it are logged, so past k = 1000 each previous state is
    # held on its own; every block, across its bounds, stacks each logged
    # state and its previous state bitwise as the means-keeping run steps them
    overrides = {"ot-inverse": {"n": 12}, "custom": CUSTOM_DATA}.get(experiment_name, {})
    config = _tiny_config(tmp_path, experiment=experiment_name, **overrides)
    problem = config.build_problem()
    held = experiment._LoggedSteps(experiment._logged_ks(1200), 1200, config.cert_every)
    stepped = {}
    compute_reference(problem, 1500, config.seed, callback=held)
    last = run(problem.saddle_problem(), problem.default_schedule(),
               initial_state(*problem.initial_point()), 1200,
               callback=lambda prev, state: stepped.update({state.k: (prev, state)}))
    assert held.ks == [k for k in range(1, 1201) if should_log(k)]
    assert held.rows == 1100
    for a, b in ((0, 1100), (0, 7), (7, 1000), (999, 1003), (1050, 1100)):
        block = held.block(a, b)
        expected = _stacked([stepped[k] for k in held.ks[a:b]])
        assert block.ks == expected.ks == held.ks[a:b]
        for name in ("x", "mu", "log_x", "prev_x", "prev_log_x", "prev_mu"):
            assert getattr(block, name).tobytes() == getattr(expected, name).tobytes(), name
    kept = SolverState(held.last.k, held.last.x, held.last.mu,
                       *np.split(held.means, [problem.n], axis=-1))
    assert kept.k == last.k == 1200
    assert all(a.tobytes() == b.tobytes() for a, b in zip(
        (kept.x.coords, kept.x.log_coords, kept.mu, kept.x_bar, kept.mu_bar),
        (last.x.coords, last.x.log_coords, last.mu, last.x_bar, last.mu_bar)))


@pytest.mark.parametrize("experiment_name", ["simplex-tv", "ot-inverse", "custom"])
def test_a_reference_is_bitwise_a_means_keeping_run_of_its_budget(tmp_path,
                                                                   experiment_name):
    overrides = {"ot-inverse": {"n": 12}, "custom": CUSTOM_DATA}.get(experiment_name, {})
    problem = _tiny_config(tmp_path, experiment=experiment_name, **overrides).build_problem()
    seen = []
    ref = compute_reference(problem, 1000, 5,
                            callback=lambda prev, state: seen.append((prev, state)))
    assert [state.k for _, state in seen] == list(range(1, 1001))
    assert all(s.x_bar is None and s.mu_bar is None for pair in seen for s in pair)

    schedule, last = problem.default_schedule(), []
    state = run(problem.saddle_problem(), schedule,
                initial_state(*problem.initial_point()), 1000,
                callback=lambda prev, new: last.__setitem__(slice(None), (prev, new)))
    assert state.x_bar is not None and state.mu_bar is not None
    scale = 1.0 / schedule.lam + 1.0 / schedule.nu + problem.coupling_norm
    ref_tol = float(asymptotic_residual(*last) * scale)
    assert ref.x_star.tobytes() == state.x.coords.tobytes()
    assert ref.mu_star.tobytes() == state.mu.tobytes()
    assert np.float64(ref.ref_tol).tobytes() == np.float64(ref_tol).tobytes()


def test_a_reference_ignores_what_its_callback_returns():
    problem = build_simplex_tv(8, 10, 5)
    seen = []
    ref = compute_reference(problem, 1000, 5,
                            callback=lambda prev, state: seen.append(state.k) or True)
    assert seen == list(range(1, 1001))
    plain = compute_reference(problem, 1000, 5)
    assert ref.x_star.tobytes() == plain.x_star.tobytes()
    assert ref.mu_star.tobytes() == plain.mu_star.tobytes()
    assert np.float64(ref.ref_tol).tobytes() == np.float64(plain.ref_tol).tobytes()


def test_held_columns_fit_the_logged_k():
    # 2500 measured steps log 1000 + 500 + 167 k and the final one, each
    # held once with its (x | mu) means row; the previous states that are not
    # logged (500 + 166 past k = 1000, and the initial one) are held on their
    # own; the means of the other k go to two scratch rows beside the step's
    problem = build_simplex_tv(8, 10, 5)  # 8 + 7 floats a state
    held = experiment._LoggedSteps(experiment._logged_ks(2500), 2500, 1)
    compute_reference(problem, 3000, 5, callback=held)
    logged = [k for k in range(1, 2501) if should_log(k, final=2500)]
    alone = [k - 1 for k in logged if k - 1 not in set(logged)]
    assert (len(logged), len(alone)) == (1668, 667)
    assert held.ks == logged and held.rows == 1668
    assert held.log_x.shape == (1668 + 667, 8) and held.mu.shape == (1668 + 667, 7)
    assert held.bar.shape == (1668, 8 + 7)
    assert [a.shape for a in (*held.spare, held.now)] == [(8 + 7,)] * 3


@pytest.mark.parametrize("overrides", [
    {},
    {"reference_iterations": 2000},
    {"oracle_mode": "paper-partial", "batch_size": 4, "repeats": 3},
], ids=["exact", "reference-shorter", "stochastic-three-repeats"])
def test_window_means_rows_are_bitwise_a_means_keeping_run(tmp_path, monkeypatch, overrides):
    # 2500 steps, cold then warm, in windows of 7 logged k: past k = 2000
    # every 3rd k is logged, so a third of those steps are neither logged nor
    # a logged k's previous state and move the means through the two scratch
    # rows. The means row of every packed k of every window (the cold
    # reference's one, the windows it hands over to, and those of a warm or
    # stochastic run) is bitwise (x_bar | mu_bar) of a means-keeping run, and
    # so is a block's means half, even for a block whose end lies past rows
    repeats = overrides.get("repeats", 1)
    monkeypatch.setattr(experiment, "_BLOCK_BYTES", 7 * repeats * _STATE_BYTES)
    windows = []

    class Recorded(experiment._LoggedSteps):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            windows.append(self)

    monkeypatch.setattr(experiment, "_LoggedSteps", Recorded)
    config = _tiny_config(tmp_path, iterations=2500, **overrides)
    problem = config.build_problem()
    oracle = GradientOracle(config.oracle_mode, config.batch_size,
                            [config.seed + r for r in range(repeats)],
                            problem.m) if repeats > 1 else None
    kept = {}
    run(problem.saddle_problem(), problem.default_schedule(),
        initial_state(*problem.initial_point(), rows=repeats if repeats > 1 else None),
        2500, oracle, lambda prev, state: kept.update({state.k: state}))

    def means(ks):
        return np.array([np.concatenate((kept[k].x_bar, kept[k].mu_bar), axis=-1)
                         for k in ks])

    for cold in (True, False):
        windows.clear()
        assert run_experiment(config, log=lambda s: None) == 0
        budget = min(2500, config.resolved_reference_budget())
        reference_window = cold and not config.is_stochastic()
        used = [w for w in windows if w.rows]  # a cached reference steps no window
        assert len(used[0].ks) == (sum(k <= budget for k in experiment._logged_ks(2500))
                                   if reference_window else 7)
        assert [k for w in used for k in w.ks[:w.rows]] == experiment._logged_ks(2500)
        for w in used:
            assert w.bar.tobytes() == means(w.ks).tobytes()
            assert w.means.tobytes() == means([w.last.k]).tobytes()
            a = max(0, w.rows - 4)
            block = w.block(a, w.rows + 5)
            rows = (w.rows - a) * repeats
            bar = means(w.ks[a:]).reshape(rows, -1)
            assert block.ks == w.ks[a:]
            assert block.x[rows:].tobytes() == bar[:, :problem.n].tobytes()
            assert block.mu[rows:].tobytes() == bar[:, problem.n:].tobytes()


def test_a_cached_reference_allocates_no_held_columns(tmp_path):
    problem = build_simplex_tv(8, 10, 5)
    compute_reference(problem, 1000, 5, cache_dir=str(tmp_path))
    held = experiment._LoggedSteps(experiment._logged_ks(300), 300, 1)
    assert compute_reference(problem, 1000, 5, cache_dir=str(tmp_path),
                             callback=held).from_cache
    assert held.rows == 0 and not hasattr(held, "log_x")


@pytest.mark.parametrize("overrides", [
    {},
    {"reference_iterations": 1000, "iterations": 1300},
], ids=["reference-longer", "reference-shorter"])
def test_an_exact_run_lists_its_logged_k_once(tmp_path, monkeypatch, overrides):
    # run_phases lists the logged k once, cold or warm, and the reference's
    # window takes those up to its budget; after a cached reference the
    # window sees no step and builds no per-k lists
    listed, calls, windows = experiment._logged_ks, [], []

    class Recorded(experiment._LoggedSteps):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            windows.append(self)

    monkeypatch.setattr(experiment, "_logged_ks", lambda *a: calls.append(a) or listed(*a))
    monkeypatch.setattr(experiment, "_LoggedSteps", Recorded)
    config = _tiny_config(tmp_path, **overrides)
    for cold in (True, False):
        calls.clear()
        windows.clear()
        assert run_experiment(config, log=lambda s: None) == 0
        assert calls == [(config.iterations,)]
        assert windows[0].rows == (len(windows[0].ks) if cold else 0)
        assert all(hasattr(windows[0], name) == cold for name in ("certified", "batches"))


@pytest.mark.parametrize("overrides", [
    {"cert_every": 2},
    {"reference_iterations": 1000, "iterations": 1300},
    {"iterations": 1200, "stop_gap": 0.05},
    {"reference_iterations": 1001, "iterations": 1500},
], ids=["cert-every-2", "reference-shorter-than-run", "stop-gap",
        "reference-budget-not-logged"])
def test_cold_and_warm_runs_write_the_same_bytes(tmp_path, overrides):
    # a cold exact run steps the reference once and evaluates its held
    # steps, stepping on past a shorter reference; a warm one steps its
    # measured phase: each file is the same, and meta.json differs only in
    # reference_cache
    config = _tiny_config(tmp_path, **overrides)
    out = tmp_path / "out"
    outputs = []
    for _ in range(2):
        assert run_experiment(config, log=lambda s: None) == 0
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    cold, warm = outputs
    assert sorted(name.split("_")[0] for name in cold) == ["meta.json", "reference", "trace.csv"]
    metas = [json.loads(files.pop("meta.json")) for files in outputs]
    assert [meta.pop("reference_cache") for meta in metas] == ["miss", "hit"]
    assert cold == warm and metas[0] == metas[1]
    k = read_trace(out / "trace.csv")[-1].k
    iterations = config.iterations
    assert k < iterations if "stop_gap" in overrides else k == iterations


@pytest.mark.parametrize("overrides,cold_steps,warm_steps", [
    ({}, 1000, 300),
    ({"reference_iterations": 1000, "iterations": 1300}, 1300, 1300),
    # the stop is at k = 100; a warm run steps on to k = 431, the last k of
    # the block that holds it (_BLOCK_BYTES // _STATE_BYTES logged k)
    ({"iterations": 1200, "stop_gap": 0.05}, 1500, 431),
    # k = 1001 is not logged: the reference's window carries the means and
    # its last state to it, and the measured phase steps on from there
    ({"reference_iterations": 1001, "iterations": 1500}, 1500, 1500),
], ids=["reference-longer", "reference-shorter", "stop-gap",
        "reference-budget-not-logged"])
def test_a_cold_exact_run_steps_each_step_once(tmp_path, monkeypatch, overrides,
                                               cold_steps, warm_steps):
    # max(budget, iterations) steps cold; warm, the measured phase's alone,
    # up to the end of the block that holds a stop_gap run's stop k
    step, steps = solver.sbpd_step, []

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(solver, "sbpd_step", counted)
    config = _tiny_config(tmp_path, **overrides)
    counts = []
    for _ in range(2):
        steps.clear()
        assert run_experiment(config, log=lambda s: None) == 0
        counts.append(len(steps))
    measured = read_trace(tmp_path / "out" / "trace.csv")[-1].k
    assert counts == [cold_steps, warm_steps]
    assert measured == (100 if "stop_gap" in overrides else config.iterations)


@pytest.mark.parametrize("final", [1, 2, 999, 1000, 1001, 1999, 2000, 2001, 20000, 25000])
def test_logged_ks_are_should_log_s(final):
    assert experiment._logged_ks(final) == [k for k in range(1, final + 1)
                                            if should_log(k, final=final)]
    assert all(type(k) is int for k in experiment._logged_ks(final))


@pytest.mark.parametrize("overrides,warm_moves", [
    ({}, 300),
    ({"reference_iterations": 1000, "iterations": 1300}, 1300),
    ({"oracle_mode": "paper-partial", "batch_size": 4, "repeats": 3}, 300),
    ({"iterations": 1200, "stop_gap": 0.05}, 431),
], ids=["exact", "reference-shorter", "stochastic-three-repeats", "stop-gap"])
def test_a_run_steps_no_means_and_moves_them_once_per_measured_step(tmp_path, monkeypatch,
                                                                    overrides, warm_moves):
    # cold, then warm: no state a run steps carries ergodic means, and the
    # measured phase's windows move them once per step they see, in order; a
    # cold exact run moves them through the reference's first `iterations`
    # steps, which it measures (all of them, even when stop_gap stops early).
    # The stop_gap run stops at k = 100, and a warm one moves them on to
    # k = 431, the last k of the block that holds its stop k
    step, moved_means = solver.sbpd_step, experiment._moved_means
    means_free, moves = [], []

    def stepped(problem, schedule, state, oracle=None):
        new = step(problem, schedule, state, oracle)
        means_free.extend(s.x_bar is None and s.mu_bar is None for s in (state, new))
        return new

    def moved(bar, k, new, out):
        moves.append(k)
        return moved_means(bar, k, new, out)

    monkeypatch.setattr(solver, "sbpd_step", stepped)
    monkeypatch.setattr(experiment, "_moved_means", moved)
    config = _tiny_config(tmp_path, **overrides)
    trace = "run_000.csv" if config.is_stochastic() else "trace.csv"
    for cold in (True, False):
        means_free.clear()
        moves.clear()
        assert run_experiment(config, log=lambda s: None) == 0
        measured = read_trace(tmp_path / "out" / trace)[-1].k
        assert means_free and all(means_free)
        assert moves == list(range(1, (config.iterations if cold else warm_moves) + 1))
        assert measured == (100 if "stop_gap" in overrides else config.iterations)
