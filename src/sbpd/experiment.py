"""Experiment configuration, trace records, and the run orchestrator.

A run has two phases. First a long deterministic reference run produces an
approximate saddle point (cached under its config hash). Then the measured
phase reruns the solver for 80% of the reference budget by default, once per
oracle: once with the exact oracle (replaying the first steps of the
reference trajectory) or ``repeats`` times with derived seeds (stochastic),
logging Lagrangian gaps against the reference into CSV traces.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import __version__
from .oracle import ORACLE_MODES, GradientOracle
from .problems import (
    build_ot_inverse,
    build_simplex_tv,
    compute_reference,
    simplex_tv_from_arrays,
)
from .solver import (
    asymptotic_residual,
    ergodic_rate_constant,
    estimate_inequality_terms,
    initial_state,
    lagrangian_gap,
    run,
    sbpd_step,  # noqa: F401  unused; benchmarks/tracing.py patches it by name
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceRecord",
    "CSV_HEADER",
    "should_log",
    "write_trace",
    "read_trace",
    "run_experiment",
]

EXPERIMENTS = ("simplex-tv", "ot-inverse", "custom")
# keys each experiment never reads; setting one (to a value other than its
# default) is an error, not a silent no-op
UNREAD_KEYS = {
    "simplex-tv": ("gamma", "noise_level", "A", "b"),
    "ot-inverse": ("m", "A", "b"),
    "custom": ("n", "m", "gamma", "noise_level"),
}
CSV_HEADER = "k,gap_pointwise,gap_ergodic,lagrangian,residual,estimate_slack,wall_nanos"
ENV_OUTPUT_DIR = "SBPD_OUTPUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One JSON-serializable document describing a full experiment."""

    experiment: str = "simplex-tv"
    n: int = 50
    m: int = 50
    seed: int = 7
    iterations: int = 20_000
    batch_size: object = "full"
    oracle_mode: str = "exact"
    gamma: float = 1.0
    beta: float = 1.0
    noise_level: float = 0.1
    repeats: int = 1
    cert_every: int = 1
    output_dir: str = "runs"
    reference_iterations: Optional[int] = None
    record_timing: bool = False
    stop_gap: Optional[float] = None
    A: Optional[list] = None
    b: Optional[list] = None

    @staticmethod
    def from_dict(doc):
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**doc)

    @staticmethod
    def from_json(path):
        with open(path) as fh:
            return ExperimentConfig.from_dict(json.load(fh))

    def with_overrides(self, **overrides):
        doc = asdict(self)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return ExperimentConfig.from_dict(doc)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
        if self.n < 2:
            raise ConfigError("n must be at least 2")
        if self.experiment == "simplex-tv" and self.m < 2:
            raise ConfigError("m must be at least 2")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if self.oracle_mode not in ORACLE_MODES:
            raise ConfigError(f"oracle_mode must be one of {ORACLE_MODES}")
        if self.batch_size != "full":
            q = self.batch_size
            if not isinstance(q, int) or isinstance(q, bool) or q < 1:
                raise ConfigError("batch_size must be 'full' or a positive integer")
        # no silent fallback to one run with the exact oracle
        if self.is_stochastic() and self.batch_size == "full":
            raise ConfigError(f"oracle_mode {self.oracle_mode} needs an integer batch_size")
        if not self.is_stochastic() and (self.batch_size != "full" or self.repeats > 1):
            raise ConfigError("the exact oracle needs batch_size 'full' and repeats = 1")
        if self.gamma <= 0:
            raise ConfigError("gamma must be positive")
        if self.beta < 0:
            raise ConfigError("beta must be nonnegative")
        if not 0.0 <= self.noise_level <= 1.0:
            raise ConfigError("noise_level must lie in [0, 1]")
        if self.repeats < 1:
            raise ConfigError("repeats must be positive")
        if self.cert_every < 0:
            raise ConfigError("cert_every must be nonnegative")
        if self.reference_iterations is not None and self.reference_iterations < 1000:
            raise ConfigError("reference_iterations must be at least 1000")
        if self.experiment == "custom" and (self.A is None or self.b is None):
            raise ConfigError("custom experiments need explicit A and b arrays")
        if self.experiment == "ot-inverse" and self.is_stochastic():
            raise ConfigError("ot-inverse has no finite-sum gradient; "
                              "stochastic oracles need simplex-tv or custom")
        if self.batch_size != "full":
            m = self.m if self.experiment == "simplex-tv" else np.size(self.b)
            if self.batch_size > m:
                raise ConfigError(
                    f"batch_size {self.batch_size} exceeds the {m} gradient summands")
        if self.stop_gap is not None and self.repeats > 1:
            # each repeat would stop at its own k, and the mean trace and
            # final gap would average rows from different iterations
            raise ConfigError("stop_gap on a stochastic run needs repeats = 1")
        defaults = ExperimentConfig()
        unread = [key for key in UNREAD_KEYS[self.experiment]
                  if _differs(getattr(self, key), getattr(defaults, key))]
        if unread:
            raise ConfigError(f"{self.experiment} does not read "
                              f"{', '.join(unread)}; remove from the config")
        return self

    def resolved_reference_budget(self):
        # default: measured phase = 80% of the reference run
        if self.reference_iterations is not None:
            return self.reference_iterations
        return max(1000, math.ceil(self.iterations / 0.8))

    def resolved_output_dir(self):
        return os.environ.get(ENV_OUTPUT_DIR) or self.output_dir

    def build_problem(self):
        if self.experiment == "simplex-tv":
            return build_simplex_tv(self.n, self.m, self.seed, self.beta)
        if self.experiment == "ot-inverse":
            return build_ot_inverse(self.n, self.seed, self.gamma, self.beta,
                                    self.noise_level)
        return simplex_tv_from_arrays(np.array(self.A, dtype=np.float64),
                                      np.array(self.b, dtype=np.float64),
                                      self.beta)

    def is_stochastic(self):
        return self.oracle_mode != "exact"


def _differs(value, default):
    # None defaults mark array keys, which must not be compared elementwise
    return value is not None if default is None else value != default


@dataclass(frozen=True)
class TraceRecord:
    k: int
    gap_pointwise: float
    gap_ergodic: float
    lagrangian: float
    residual: float
    estimate_slack: Optional[float] = None
    wall_nanos: Optional[int] = None


def should_log(k, final=None):
    """Dense early logging, then every ceil(k/1000)-th iteration."""
    if k == final:
        return True
    if k <= 1000:
        return True
    return k % math.ceil(k / 1000.0) == 0


def _cell(value):
    return "" if value is None else repr(value)


def write_trace(path, records):
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            repr(r.k), repr(r.gap_pointwise), repr(r.gap_ergodic),
            repr(r.lagrangian), repr(r.residual),
            _cell(r.estimate_slack), _cell(r.wall_nanos),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_cell(text):
    if text == "":
        return None
    return int(text) if ("." not in text and "e" not in text and "E" not in text
                         and "n" not in text) else float(text)


def read_trace(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected trace header")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        records.append(TraceRecord(
            k=int(cells[0]),
            gap_pointwise=float(cells[1]),
            gap_ergodic=float(cells[2]),
            lagrangian=float(cells[3]),
            residual=float(cells[4]),
            estimate_slack=_parse_cell(cells[5]),
            wall_nanos=_parse_cell(cells[6]),
        ))
    return records


def _mean_records(traces):
    # all runs share the logging grid, so aggregation is columnwise
    out = []
    for rows in zip(*traces):
        ks = {r.k for r in rows}
        if len(ks) != 1:
            raise RuntimeError("runs disagree on the logging grid")
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


def _measured_run(problem, saddle, schedule, reference, iterations, config,
                  oracle=None):
    """One measured-phase run; returns the list of logged records."""
    w_star = reference.w_star
    records = []
    stop_count = 0
    t0 = time.perf_counter_ns()

    def observe(prev, state):
        nonlocal stop_count
        if not should_log(state.k, final=iterations):
            return False
        slack = None
        if config.cert_every and state.k % config.cert_every == 0:
            delta = None
            if oracle is not None and not oracle.is_exact:
                _, delta = oracle.grad_estimate(
                    saddle.f_grad, saddle.f_partial_grad, prev.x.coords, prev.k)
            slack, _ = estimate_inequality_terms(
                saddle, schedule, (prev.x, prev.mu), (state.x, state.mu),
                w_star, primal_delta=delta)
        records.append(TraceRecord(
            k=state.k,
            gap_pointwise=lagrangian_gap(saddle, (state.x, state.mu), w_star),
            gap_ergodic=lagrangian_gap(saddle, (state.x_bar, state.mu_bar), w_star),
            lagrangian=saddle.lagrangian_eval(state.x.coords, state.mu),
            residual=asymptotic_residual(prev, state),
            estimate_slack=slack,
            wall_nanos=(time.perf_counter_ns() - t0 if config.record_timing
                        else None),
        ))
        if config.stop_gap is None:
            return False
        stop_count = stop_count + 1 if records[-1].gap_pointwise < config.stop_gap else 0
        return stop_count >= 100

    run(saddle, schedule, initial_state(*problem.initial_point()), iterations,
        oracle, observe)
    return records


def _error_json(output_dir, kind, message):
    doc = {"error": kind, "message": message}
    try:
        os.makedirs(output_dir, exist_ok=True)
        with open(os.path.join(output_dir, "error.json"), "w") as fh:
            json.dump(doc, fh, indent=2)
    except OSError:
        pass
    return doc


def run_experiment(config, log=print):
    """Execute a configured experiment; returns a process exit status."""
    output_dir = config.resolved_output_dir()
    try:
        config.validate()
        problem = config.build_problem()
    except (ConfigError, ValueError) as exc:
        doc = _error_json(output_dir, "invalid-config", str(exc))
        log(json.dumps(doc))
        return 2

    try:
        os.makedirs(output_dir, exist_ok=True)
        probe = os.path.join(output_dir, ".write_probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        log(json.dumps({"error": "unwritable-output-dir", "message": str(exc)}))
        return 2

    try:
        saddle = problem.saddle_problem()
        schedule = problem.default_schedule()
        ref_budget = config.resolved_reference_budget()
        reference = compute_reference(problem, ref_budget, config.seed,
                                      cache_dir=output_dir)

        stochastic = config.is_stochastic()
        oracle_seeds = ([config.seed + r for r in range(config.repeats)]
                        if stochastic else [])
        # None is the exact oracle
        oracles = [GradientOracle(config.oracle_mode, config.batch_size, seed,
                                  problem.m) for seed in oracle_seeds] or [None]
        traces = [_measured_run(problem, saddle, schedule, reference,
                                config.iterations, config, oracle)
                  for oracle in oracles]
        final_gap = float(np.mean([t[-1].gap_ergodic for t in traces]))
        if stochastic:
            for r, records in enumerate(traces):
                write_trace(os.path.join(output_dir, f"run_{r:03d}.csv"), records)
            write_trace(os.path.join(output_dir, "mean_trace.csv"),
                        _mean_records(traces))
        else:
            write_trace(os.path.join(output_dir, "trace.csv"), traces[0])

        x0, mu0 = problem.initial_point()
        meta = {
            "version": __version__,
            "config": asdict(config),
            "resolved": {
                "L_p": saddle.L_p,
                "L_d": saddle.L_d,
                "coupling_norm": problem.coupling_norm,
                "lam": schedule.lam,
                "nu": schedule.nu,
                "oracle_mode": config.oracle_mode,
                "batch_size": config.batch_size,
                "oracle_seeds": oracle_seeds,
                "measured_iterations": config.iterations,
                "reference_iterations": ref_budget,
                "reference_hash": reference.config_hash,
                "ref_tol": reference.ref_tol,
                "rate_constant": ergodic_rate_constant(
                    saddle, schedule, reference.w_star, (x0, mu0)),
                "final_ergodic_gap": final_gap,
            },
        }
        with open(os.path.join(output_dir, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        return 0
    except Exception as exc:  # solver or I/O failure: report and signal
        doc = _error_json(output_dir, type(exc).__name__, str(exc))
        log(json.dumps(doc))
        return 1
