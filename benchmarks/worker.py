"""Measure one workload in a fresh single-threaded process.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and every BLAS/OpenMP thread count set to 1. Prints one JSON document as its
last line of standard output.

Untraced (``--trace 0``) samples, scaled to the reference host speed by
``calibration`` and reported as medians:

- ``run_s`` / ``warm_run_s``: pairs of ``run_experiment`` calls in a fresh
  output directory, the first with a cold reference cache and the second
  with the cache hit;
- ``step_us``: bare ``solver.run`` in chunks that each restart from the
  initial point;
- ``cert_step_us``: ``sbpd_step`` plus ``estimate_inequality_terms`` on
  every step (plus ``grad_estimate`` for the noise term when the oracle is
  stochastic), in chunks as above;

and ``peak_rss_mb``, the peak resident set of this process.

Traced (``--trace 1``): untraced and traced cold runs alternate, then one
traced warm run; per-layer numbers come from the traced cold runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from sbpd import experiment, solver
from sbpd.experiment import ExperimentConfig
from sbpd.oracle import GradientOracle
from sbpd.problems import compute_reference

import calibration
import tracing
import verify
from workloads import WORKLOADS

# rounds of a --trace 0 run, whatever the time budget
MIN_ROUNDS = 3
# loop-chunk time per round, as a share of the round's pair time
LOOP_SHARE = 0.3
# untraced and traced cold runs of a --trace 1 run (alternated)
TRACED_RUNS = 4
COLD_ROOT = "bench.cold_run"
WARM_ROOT = "bench.warm_run"


class Workbench:
    """The workload's problem, solver inputs and failure tallies."""

    def __init__(self, workload, seed, work_dir, clock=None):
        self.wl = workload
        self.clock = clock or calibration.Unscaled()
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.config = ExperimentConfig(
            **workload.experiment_config(seed, self.work_dir / "unused"))
        self.problem = self.config.build_problem()
        self.saddle = self.problem.saddle_problem()
        self.schedule = self.problem.default_schedule()
        self.x0, self.mu0 = self.problem.initial_point()
        self.oracle = None
        if not workload.deterministic:
            self.oracle = GradientOracle(self.config.oracle_mode,
                                         self.config.batch_size, seed,
                                         self.problem.m)
        self.attempted = 0
        self.failed = 0
        self.cert_attempted = 0
        self.cert_failed = 0
        self.problems = []
        self._first_cold = None
        self._dirs = 0

    def fresh_dir(self, label):
        self._dirs += 1
        return self.work_dir / f"{label}-{self._dirs:02d}"

    def note(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: " + "; ".join(problems))

    # -------------------------------------------------------- pipeline

    def timed_run(self, out_dir, run=None):
        run = run or experiment.run_experiment
        config = ExperimentConfig(
            **self.wl.experiment_config(self.seed, out_dir))
        messages = []
        status, timing = self.clock.time(
            lambda: run(config, log=messages.append))
        return timing, status, messages

    def check_cold(self, out_dir, status, messages):
        names = self.wl.trace_names()
        problems = verify.run_problems(status, out_dir, names) + messages
        cold = verify.snapshot(out_dir, names)
        if not problems:
            if self.wl.deterministic:
                problems += verify.rate_bound_problems(out_dir)
            if self._first_cold is None:
                self._first_cold = cold
            else:
                problems += verify.rerun_problems(self._first_cold, cold)
        self.note("cold run", problems)
        return cold

    def check_warm(self, out_dir, status, messages, cold):
        names = self.wl.trace_names()
        problems = verify.run_problems(status, out_dir, names) + messages
        if not problems:
            problems += verify.rerun_problems(cold, verify.snapshot(out_dir, names))
        self.note("warm run", problems)

    def run_pair(self):
        """A cold and a warm run in a fresh directory, both checked."""
        out_dir = self.fresh_dir("pair")
        cold_t, status, messages = self.timed_run(out_dir)
        cold = self.check_cold(out_dir, status, messages)
        warm_t, status, messages = self.timed_run(out_dir)
        self.check_warm(out_dir, status, messages, cold)
        return cold_t, warm_t, out_dir

    def reference(self, cache_dir):
        return compute_reference(self.problem,
                                 self.config.resolved_reference_budget(),
                                 self.seed, cache_dir=str(cache_dir))

    # ------------------------------------------------------------ loops

    def bare_chunk(self, steps):
        state = solver.initial_state(self.x0, self.mu0)
        state, timing = self.clock.time(lambda: solver.run(
            self.saddle, self.schedule, state, steps, oracle=self.oracle))
        return timing, state

    def certified_chunk(self, steps, w_ref, terms=None):
        """``steps`` certified steps from the initial point.

        Returns ``(timing, final_state)`` and tallies the steps whose
        slack breaks the acceptance 02 tolerance. ``terms`` replaces
        ``estimate_inequality_terms`` (negative controls use it).
        """
        saddle, schedule, oracle = self.saddle, self.schedule, self.oracle
        terms = terms or solver.estimate_inequality_terms
        stochastic = oracle is not None and not oracle.is_exact
        step = solver.sbpd_step

        def loop():
            state = solver.initial_state(self.x0, self.mu0)
            failures = 0
            for _ in range(steps):
                prev = state
                state = step(saddle, schedule, prev, oracle)
                delta = None
                if stochastic:
                    _, delta = oracle.grad_estimate(
                        saddle.f_grad, saddle.f_partial_grad, prev.x.coords,
                        prev.k)
                slack, scale = terms(saddle, schedule, (prev.x, prev.mu),
                                     (state.x, state.mu), w_ref, k=prev.k,
                                     primal_delta=delta)
                if verify.cert_failed(slack, scale):
                    failures += 1
            return state, failures

        (state, failures), timing = self.clock.time(loop)
        self.cert_attempted += steps
        self.cert_failed += failures
        if failures:
            self.problems.append(f"certificate broken on {failures}/{steps} steps")
        return timing, state

    def check_final_state(self, state, trace_dir, what):
        """The loop's final state must match the pipeline's logged row.

        Each chunk restarts from the initial point with the workload seed,
        which is the oracle seed of repeat 0, so the Lagrangian at the last
        step must equal, bit for bit, the one ``run_experiment`` logged at
        the same k.
        """
        name = self.wl.trace_names()[0]
        rows = {r.k: r for r in experiment.read_trace(str(Path(trace_dir, name)))}
        row = rows.get(state.k)
        value = self.saddle.lagrangian_eval(state.x.coords, state.mu)
        problems = []
        if row is None:
            problems.append(f"k={state.k} is not a logged row of {name}")
        elif value != row.lagrangian:
            problems.append(f"Lagrangian {value!r} at k={state.k} differs from "
                            f"the logged {row.lagrangian!r}")
        self.note(what, problems)


def versions():
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps.get(k, {}) for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS") or k.startswith("OMP_")},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Timed samples per metric: as measured, scale factor, and scaled."""

    def __init__(self):
        self.raw = {}
        self.scale = {}
        self.scaled = {}

    def add(self, name, timing, per=1.0):
        """Record ``timing`` divided by ``per`` (e.g. us per step)."""
        self.raw.setdefault(name, []).append(timing.seconds / per)
        self.scale.setdefault(name, []).append(timing.scale)
        self.scaled.setdefault(name, []).append(timing.scaled / per)

    def median(self, name):
        return statistics.median(self.scaled[name])

    def as_doc(self):
        return {"raw": self.raw, "scale": self.scale, "scaled": self.scaled}


def measure(bench, seconds):
    """Rounds of one cold/warm pair plus loop chunks, until ``seconds`` pass.

    Each round then spends a share of its pair's time on loop chunks
    (alternating bare and certified), so every metric samples the whole
    run. ``bench.clock`` scales each sample to the reference host speed;
    each metric is the median of its scaled samples.
    """
    wl = bench.wl
    # warm-up: first calls into numpy/scipy pay one-off dispatch set-up
    bench.bare_chunk(min(wl.step_chunk, 50))
    rec = Samples()
    us = 1e-6  # seconds per microsecond

    ref_dir = w_ref = None
    rounds = 0
    round_s = 0.0
    deadline = time.perf_counter() + seconds
    # stop before a round that would overrun the budget
    while rounds < MIN_ROUNDS or time.perf_counter() + round_s < deadline:
        round_start = time.perf_counter()
        cold, warm, out_dir = bench.run_pair()
        rec.add("run_s", cold)
        rec.add("warm_run_s", warm)
        if ref_dir is None:
            ref_dir = out_dir
            w_ref = bench.reference(ref_dir).w_star
        loop_deadline = (time.perf_counter()
                         + LOOP_SHARE * (cold.seconds + warm.seconds))
        while True:
            timing, bare_state = bench.bare_chunk(wl.step_chunk)
            rec.add("step_us", timing, wl.step_chunk * us)
            timing, cert_state = bench.certified_chunk(wl.cert_chunk, w_ref)
            rec.add("cert_step_us", timing, wl.cert_chunk * us)
            if time.perf_counter() >= loop_deadline:
                break
        rounds += 1
        round_s = time.perf_counter() - round_start
    bench.check_final_state(bare_state, ref_dir, "bare loop")
    bench.check_final_state(cert_state, ref_dir, "certified loop")

    metrics = {
        "run_s": (rec.median("run_s"), "s"),
        "warm_run_s": (rec.median("warm_run_s"), "s"),
        "step_us": (rec.median("step_us"), "us/step"),
        "cert_step_us": (rec.median("cert_step_us"), "us/step"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, rec.as_doc()


def measure_traced(bench, spans_out):
    """Alternate untraced and traced cold runs, then one traced warm run.

    Per-layer numbers are means over the traced cold runs, as measured.
    Run times are scaled by kernel timings taken right before and after each
    run (``bench.clock``), outside the spans; the tracing overhead is the
    median over consecutive (untraced, traced) pairs of their difference.
    """
    wl = bench.wl
    bench.bare_chunk(min(wl.step_chunk, 50))
    rec = Samples()

    tracer = tracing.Tracer()
    traced = tracer.wrap("experiment.run_experiment", experiment.run_experiment)

    def under(root):
        def run(config, log):
            with tracer.span(root):
                return traced(config, log=log)
        return run

    trace_bytes = []
    for _ in range(TRACED_RUNS):
        out_dir = bench.fresh_dir("untraced")
        timing, status, messages = bench.timed_run(out_dir)
        rec.add("trace.untraced_run_s", timing)
        bench.check_cold(out_dir, status, messages)

        out_dir = bench.fresh_dir("traced")
        with tracing.instrument(tracer):
            timing, status, messages = bench.timed_run(out_dir, under(COLD_ROOT))
        rec.add("trace.run_s", timing)
        cold = bench.check_cold(out_dir, status, messages)
        trace_bytes.append(sum(len(b) for b in cold.values() if b is not None))
    with tracing.instrument(tracer):
        _, status, messages = bench.timed_run(out_dir, under(WARM_ROOT))
    bench.check_warm(out_dir, status, messages, cold)

    wrapper_ns = (tracing.wrapper_overhead_ns(),
                  tracing.wrapper_overhead_ns(counted=True))
    metrics = layer_metrics(tracer, wl, out_dir, rec,
                            statistics.median(trace_bytes), wrapper_ns)
    Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w") as fh:
        json.dump(dict(tracer.to_doc(), span_overhead_ns=wrapper_ns[0],
                       count_overhead_ns=wrapper_ns[1]), fh)
    return metrics, rec.as_doc()


MODULES = ("linalg", "bregman", "oracle", "solver", "problems", "experiment")


# spans reported as <name>_calls and <name>_s
CALLS_AND_TIME = ("bregman.kl_prox", "linalg.apply", "linalg.adjoint",
                  "oracle.sample_batch", "problems.lagrangian", "solver.cert")
# (span, metric) pairs reported as time only
TIME_ONLY = (
    ("bregman.linf_prox", "bregman.linf_prox_s"),
    ("problems.dual_prox", "problems.dual_prox_s"),
    ("oracle.estimate", "oracle.estimate_s"),
    ("oracle.grad_estimate", "oracle.grad_estimate_s"),
    ("problems.f_grad", "problems.f_grad_s"),
    ("problems.f_partial_grad", "problems.f_partial_grad_s"),
    ("problems.h_star_grad", "problems.h_star_grad_s"),
    ("solver.lagrangian_gap", "solver.gap_s"),
    ("solver.asymptotic_residual", "solver.residual_s"),
    ("problems.compute_reference", "problems.reference_s"),
    ("experiment.write_trace", "experiment.write_trace_s"),
)


def layer_metrics(tracer, wl, out_dir, rec, trace_bytes, wrapper_ns):
    """Per-layer metrics, as means per traced cold ``run_experiment`` call."""
    root = COLD_ROOT
    runs, root_ns = tracer.total(root, root)

    def tot(name, parent=None, under=root):
        return tracer.total(name, under, parent)

    def ratio(a, b):
        return a / b if b else 0.0

    per_run_s = 1e-9 / runs
    m = {}
    for name in CALLS_AND_TIME:
        c, t = tot(name)
        m[name + "_calls"] = (c / runs, "count")
        m[name + "_s"] = (t * per_run_s, "s")
    for name, metric in TIME_ONLY:
        m[metric] = (tot(name)[1] * per_run_s, "s")

    semidual = tot("problems.semidual")[0]
    m["problems.semidual_calls"] = (semidual / runs, "count")
    m["problems.semidual_value_used_frac"] = (ratio(
        tot("problems.semidual", parent="problems.h_star_value")[0], semidual),
        "ratio")

    steps = tot("solver.sbpd_step")[0]
    m["solver.step_calls"] = (steps / runs, "count")
    m["solver.step_self_s"] = (
        tracer.self_ns(root, "solver.sbpd_step") * per_run_s, "s")
    measured_steps, measured_step_ns = tot("solver.sbpd_step",
                                           parent="experiment.measured_run")
    measured_ns = tot("experiment.measured_run")[1]
    rows = tracer.counted("experiment.log_rows", root)
    m["experiment.log_rows"] = (rows / runs, "count")
    m["experiment.log_row_us"] = (
        ratio(measured_ns - measured_step_ns, rows) * 1e-3, "us/row")
    m["solver.cert_per_measured_step"] = (ratio(
        tot("solver.cert", parent="experiment.measured_run")[0],
        measured_steps), "ratio")
    m["problems.reference_steps"] = (
        tot("solver.sbpd_step", parent="solver.run")[0] / runs, "count")
    refs = misses = 0
    for under in (root, WARM_ROOT):
        refs += tot("problems.compute_reference", under=under)[0]
        misses += tot("solver.run", parent="problems.compute_reference",
                      under=under)[0]
    m["problems.reference_cache_hit_frac"] = (ratio(refs - misses, refs), "ratio")
    as_vector = tracer.counted("linalg.as_vector", root)
    m["linalg.as_vector_per_step"] = (ratio(as_vector, steps), "ratio")
    m["experiment.trace_bytes"] = (trace_bytes, "bytes")
    trace_name = "trace.csv" if wl.deterministic else "mean_trace.csv"
    m["solver.k_to_gap"] = (
        verify.k_to_gap(str(Path(out_dir, trace_name)), wl.gap_tol), "count")

    # per-module self time; together they account for the traced run
    module_ns = 0
    for mod in MODULES:
        ns = tracer.self_ns(root, mod + ".")
        module_ns += ns
        m[f"{mod}.self_s"] = (ns * per_run_s, "s")
    n_spans = sum(c for _, _, c, _, _ in tracer.rows(root))
    m["trace.run_s"] = (rec.median("trace.run_s"), "s")
    m["trace.untraced_run_s"] = (rec.median("trace.untraced_run_s"), "s")
    m["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(rec.scaled["trace.run_s"],
                              rec.scaled["trace.untraced_run_s"])), "s")
    span_ns, count_ns = wrapper_ns
    traced_scale = statistics.median(rec.scale["trace.run_s"])
    m["trace.overhead_est_s"] = (
        (n_spans * span_ns + as_vector * count_ns) * per_run_s * traced_scale,
        "s")
    m["trace.spans"] = (n_spans / runs, "count")
    m["trace.self_sum_frac"] = (ratio(module_ns, root_ns), "ratio")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.trace:
        bench = Workbench(workload, args.seed, args.work_dir,
                          calibration.Bracketed(workload.kernel))
        metrics, samples = measure_traced(bench, args.spans_out)
    else:
        with calibration.Sampler(workload.kernel) as clock:
            bench = Workbench(workload, args.seed, args.work_dir, clock)
            metrics, samples = measure(bench, args.seconds)
    print(json.dumps({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "cert_attempted": bench.cert_attempted,
        "cert_failed": bench.cert_failed,
        "problems": bench.problems,
        "versions": versions(),
        "sbpd_file": sys.modules["sbpd"].__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
