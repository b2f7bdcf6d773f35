"""Tests of the benchmark itself: span arithmetic, instrumentation, and the
negative controls of its output checks.

    python3 -m pytest benchmarks
"""

import dataclasses
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calibration
import tracing
import verify
from tracing import Span, Tracer, self_times
from worker import Workbench
from workloads import Workload

HERE = Path(__file__).resolve().parent

TINY = Workload(
    name="tiny",
    config=dict(experiment="simplex-tv", n=6, m=7, iterations=200,
                cert_every=1),
    step_chunk=50, cert_chunk=20, gap_tol=1.0)
TINY_STOCHASTIC = Workload(
    name="tiny-stochastic",
    config=dict(experiment="simplex-tv", n=6, m=7, iterations=200,
                oracle_mode="paper-partial", batch_size=3, repeats=2,
                cert_every=1),
    step_chunk=50, cert_chunk=20, gap_tol=1.0)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# ------------------------------------------------------------- self time

def test_self_times_on_nested_tree():
    spans = [
        Span(1, "root", 0, 100, None),
        Span(2, "a", 10, 40, 1),
        Span(3, "a1", 15, 25, 2),
        Span(4, "b", 50, 90, 1),
        Span(5, "b1", 50, 60, 4),
        Span(6, "b2", 70, 90, 4),
    ]
    assert self_times(spans) == {1: 30, 2: 20, 3: 10, 4: 10, 5: 10, 6: 20}


def test_self_times_counts_overlap_once_and_clips_children():
    spans = [
        Span(1, "p", 0, 10, None),
        Span(2, "c", 1, 5, 1),
        Span(3, "c", 3, 8, 1),
        Span(4, "c", 9, 14, 1),   # sticks out of its parent
    ]
    # covered: [1, 8] and [9, 10] -> 8
    assert self_times(spans)[1] == 2


def test_tracer_aggregates_match_raw_spans():
    clock = FakeClock()
    tr = Tracer(clock=clock, keep_depth=10)

    def tick(n):
        clock.now += n

    with tr.span("root"):
        tick(5)
        with tr.span("a"):
            tick(3)
            with tr.span("leaf"):
                tick(4)
            tick(1)
        with tr.span("b"):
            tick(2)
            with tr.span("leaf"):
                tick(6)
        tick(7)

    raw = self_times(tr.spans)
    by_name = {}
    for s in tr.spans:
        by_name[s.name] = by_name.get(s.name, 0) + raw[s.id]
    agg = {}
    for name, _, _, _, self_ns in tr.rows("root"):
        agg[name] = agg.get(name, 0) + self_ns
    assert agg == by_name == {"root": 12, "a": 4, "b": 2, "leaf": 10}
    assert tr.total("leaf", "root") == (2, 10)
    assert tr.total("leaf", "root", parent="b") == (1, 6)
    assert tr.self_ns("root") == 28 == tr.total("root", "root")[1]


def test_tracer_keeps_only_shallow_raw_spans():
    tr = Tracer(keep_depth=2)
    with tr.span("root"):
        with tr.span("child"):
            with tr.span("grandchild"):
                pass
    assert sorted(s.name for s in tr.spans) == ["child", "root"]
    assert tr.n_spans == 3
    assert tr.total("grandchild", "root")[0] == 1


# -------------------------------------------------------- instrumentation

def test_instrument_restores_every_patched_attribute():
    from sbpd import bregman, experiment, linalg, oracle, problems, solver
    owners = (linalg, bregman, oracle, solver, problems, experiment,
              linalg.LinearMap, oracle.GradientOracle,
              problems.SimplexTVProblem, problems.OTInverseProblem)
    before = [dict(vars(o)) for o in owners]
    tr = Tracer()
    with tracing.instrument(tr):
        assert experiment.sbpd_step is not before[5]["sbpd_step"]
        assert bregman.as_vector is not before[1]["as_vector"]
    after = [dict(vars(o)) for o in owners]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[k] is a[k] for k in b)


def test_traced_run_counts_layers_and_keeps_traces(tmp_path):
    bench = Workbench(TINY_STOCHASTIC, 3, tmp_path)
    _, status, messages = bench.timed_run(tmp_path / "plain")
    plain = bench.check_cold(tmp_path / "plain", status, messages)
    tr = Tracer()
    with tracing.instrument(tr):
        with tr.span("root"):
            _, status, messages = bench.timed_run(tmp_path / "traced")
    traced = bench.check_cold(tmp_path / "traced", status, messages)
    assert bench.failed == 0 and plain == traced
    steps = tr.total("solver.sbpd_step", "root")[0]
    # reference budget 1000 plus 2 repeats of 200 measured steps
    assert steps == 1000 + 2 * 200
    assert tr.total("bregman.kl_prox", "root")[0] == steps
    # one batch per measured step, one more per certified (logged) step
    assert tr.total("oracle.sample_batch", "root")[0] == 2 * 200 * 2
    assert tr.counted("experiment.log_rows", "root") == 2 * 200
    assert tr.counted("linalg.as_vector", "root") > 0


# ------------------------------------------------------- output checks

def test_clean_runs_pass_every_check(tmp_path):
    bench = Workbench(TINY, 5, tmp_path)
    _, _, out_dir = bench.run_pair()
    bench.run_pair()
    w_ref = bench.reference(out_dir).w_star
    _, state = bench.certified_chunk(TINY.cert_chunk, w_ref)
    bench.check_final_state(state, out_dir, "certified loop")
    assert bench.problems == []
    assert (bench.attempted, bench.failed) == (5, 0)
    assert (bench.cert_attempted, bench.cert_failed) == (TINY.cert_chunk, 0)


def test_one_byte_change_to_a_trace_fails_the_run(tmp_path):
    bench = Workbench(TINY, 5, tmp_path)
    out_dir = tmp_path / "run"
    _, status, messages = bench.timed_run(out_dir)
    cold = bench.check_cold(out_dir, status, messages)
    _, status, messages = bench.timed_run(out_dir)
    trace = out_dir / "trace.csv"
    data = bytearray(trace.read_bytes())
    i = data.index(b"\n") + 5
    data[i] = ord("7") if data[i] != ord("7") else ord("8")
    trace.write_bytes(bytes(data))
    bench.check_warm(out_dir, status, messages, cold)
    assert (bench.attempted, bench.failed) == (2, 1)
    assert "trace.csv differs" in bench.problems[0]


def test_missing_meta_or_error_json_fails_the_run(tmp_path):
    bench = Workbench(TINY, 5, tmp_path)
    out_dir = tmp_path / "run"
    _, status, _ = bench.timed_run(out_dir)
    assert verify.run_problems(status, out_dir, ["trace.csv"]) == []
    (out_dir / "meta.json").unlink()
    (out_dir / "error.json").write_text("{}")
    assert verify.run_problems(1, out_dir, ["trace.csv", "absent.csv"]) == [
        "exit status 1", "error.json written", "meta.json missing",
        "absent.csv missing"]


def test_rate_bound_breach_fails_the_run(tmp_path):
    bench = Workbench(TINY, 5, tmp_path)
    out_dir = tmp_path / "run"
    bench.timed_run(out_dir)
    assert verify.rate_bound_problems(out_dir) == []
    meta = json.loads((out_dir / "meta.json").read_text())
    meta["resolved"]["rate_constant"] = 0.0
    meta["resolved"]["ref_tol"] = -1.0
    (out_dir / "meta.json").write_text(json.dumps(meta))
    assert verify.rate_bound_problems(out_dir)


@pytest.mark.parametrize("workload", [TINY, TINY_STOCHASTIC])
def test_injected_slack_below_threshold_fails_the_certificate(tmp_path, workload):
    bench = Workbench(workload, 5, tmp_path)
    out_dir = tmp_path / "run"
    bench.timed_run(out_dir)
    w_ref = bench.reference(out_dir).w_star
    from sbpd.solver import estimate_inequality_terms

    def injected(*args, k=0, **kwargs):
        slack, scale = estimate_inequality_terms(*args, k=k, **kwargs)
        if k == 7:
            slack = -2 * verify.CERT_TOL * scale
        return slack, scale

    bench.certified_chunk(workload.cert_chunk, w_ref, terms=injected)
    assert (bench.cert_attempted, bench.cert_failed) == (workload.cert_chunk, 1)
    assert bench.problems == [f"certificate broken on 1/{workload.cert_chunk} steps"]


def test_slack_at_the_threshold_passes():
    assert not verify.cert_failed(-1e-8 * 3.0, 3.0)
    assert verify.cert_failed(-1.01e-8 * 3.0, 3.0)


def test_loop_state_must_match_the_logged_row(tmp_path):
    bench = Workbench(TINY, 5, tmp_path)
    out_dir = tmp_path / "run"
    bench.timed_run(out_dir)
    _, state = bench.bare_chunk(TINY.step_chunk)
    bench.check_final_state(state, out_dir, "bare loop")
    _, state = bench.bare_chunk(TINY.step_chunk + 1)
    state = dataclasses.replace(state, k=TINY.step_chunk)
    bench.check_final_state(state, out_dir, "bare loop")
    assert (bench.attempted, bench.failed) == (2, 1)


# ------------------------------------------------------------- harness

def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "tv-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ------------------------------------------------------------ calibration

def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_takes_kernel_samples_and_subtracts_its_own_time():
    with calibration.Sampler("simplex", period_s=0.01) as sampler:
        _, timing = sampler.time(lambda: busy(0.2))
    assert len(sampler.samples) >= 5
    # the busy loop spins for 0.2 s of wall time, the sampler's included
    assert timing.seconds == pytest.approx(
        0.2 - sampler.stolen_ns * 1e-9, abs=0.01)
    reference_us = calibration.KERNELS["simplex"][3]
    assert timing.scale == pytest.approx(
        reference_us / statistics.fmean(sampler.samples))
    assert timing.scaled == timing.seconds * timing.scale


def test_sampler_samples_after_a_short_call_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler("transport", period_s=10.0) as sampler:
        _, timing = sampler.time(lambda: None)
    assert len(sampler.samples) == 1
    assert timing.scale == calibration.scale("transport", sampler.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_unscaled_timing_reports_wall_time():
    _, timing = calibration.Unscaled().time(lambda: busy(0.02))
    assert timing.scaled == timing.seconds >= 0.02
