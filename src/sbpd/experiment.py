"""Experiment configuration, trace records, and the run orchestrator.

A run has two phases. First a long deterministic reference run produces an
approximate saddle point (cached under its config hash). Then the measured
phase runs the solver for 80% of the reference budget by default, logging
Lagrangian gaps against the reference into CSV traces. Every measured step
is stepped without ergodic means into one producer of logged k,
``_LoggedSteps``: the callback of a window of logged k, which moves the
means in place as one (x | mu) row and packs each logged k into float64
columns. With the exact oracle the measured phase is the first steps of the
reference trajectory, so a computed reference steps them once, into one
window; the measured phase steps on from its last state only when the
reference budget is shorter, and steps every step after a cached reference,
by one ``run`` call per window. A run builds the one oracle it steps: a
stochastic run steps its ``repeats`` runs over one oracle of their derived
seeds, as one stacked state whose rows are bitwise the repeats' own runs.
Windows are evaluated in blocks of ``_BLOCK_BYTES`` of logged states, each
as one stack of rows (one per repeat of each k) that holds the iterates and
the ergodic means, each bitwise the row the k's own state gives alone. A
block certifies itself: a certified k whose previous state is the certified
state before it in the block takes that state's energy E_{k+1} as its E_k,
and one energy pass gives every other E_k and E_{k+1} of the block.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple, Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from .bregman import BregmanPoint
from .oracle import ORACLE_MODES, GradientOracle, OracleError
from .problems import (
    build_ot_inverse,
    build_simplex_tv,
    compute_reference,
    simplex_tv_from_arrays,
)
from .solver import (  # noqa: F401  benchmarks/tracing.py patches the unused names
    LagrangianParts,
    ReferenceEvaluator,
    SolverState,
    _bare_state,
    _moved_means,
    asymptotic_residual,
    certificate_holds,
    ergodic_rate_constant,
    estimate_inequality_terms,
    lagrangian_gap,
    run,
    sbpd_step,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceRecord",
    "CSV_HEADER",
    "should_log",
    "write_trace",
    "read_trace",
    "run_guarded",
    "run_experiment",
    "run_phases",
]

EXPERIMENTS = ("simplex-tv", "ot-inverse", "custom")
# keys each experiment never reads; setting one (to a value other than its
# default) is an error, not a silent no-op
UNREAD_KEYS = {
    "simplex-tv": ("gamma", "noise_level", "A", "b"),
    "ot-inverse": ("m", "A", "b"),
    "custom": ("n", "m", "gamma", "noise_level"),
}
INTEGER_KEYS = ("n", "m", "seed", "iterations", "repeats", "cert_every",
                "reference_iterations")
REAL_KEYS = ("gamma", "beta", "noise_level", "stop_gap")
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
        if not isinstance(doc, dict):
            raise ConfigError(f"a config must be a JSON object, "
                              f"got {type(doc).__name__}")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return ExperimentConfig(**doc)

    @staticmethod
    def from_json(path):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON text
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(doc)

    def with_overrides(self, **overrides):
        doc = asdict(self)
        doc.update({k: v for k, v in overrides.items() if v is not None})
        return ExperimentConfig.from_dict(doc)

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}")
        # a JSON config can carry any type; compare and count only numbers
        for key in INTEGER_KEYS + REAL_KEYS:
            value = getattr(self, key)
            if value is None and getattr(ExperimentConfig, key) is None:
                continue  # an optional key left unset
            kind = int if key in INTEGER_KEYS else (int, float)
            if not isinstance(value, kind) or isinstance(value, bool):
                label = "an integer" if kind is int else "a real number"
                raise ConfigError(f"{key} must be {label}, got {value!r}")
            # NaN compares false with every bound below, so check it here
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        # a truthy string would record wall-clock data into trace.csv
        if not isinstance(self.record_timing, bool):
            raise ConfigError(f"record_timing must be true or false, "
                              f"got {self.record_timing!r}")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError(f"output_dir must be a non-empty string, "
                              f"got {self.output_dir!r}")
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
        if self.repeats < 1:
            raise ConfigError("repeats must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        # oracle r is keyed by seed + r, and a Philox key lies below 2**128
        if self.is_stochastic() and self.seed + self.repeats - 1 >= 1 << 128:
            raise ConfigError(f"seed + repeats - 1 must be below 2**128 on a "
                              f"stochastic run, got {self.seed + self.repeats - 1}")
        if self.cert_every < 0:
            raise ConfigError("cert_every must be nonnegative")
        if self.reference_iterations is not None and self.reference_iterations < 1000:
            raise ConfigError("reference_iterations must be at least 1000")
        if self.experiment == "custom":
            if self.A is None or self.b is None:
                raise ConfigError("custom experiments need explicit A and b arrays")
            # a true would read as 1.0, an object b as one summand; a huge int overflows
            for key, rows in (("A", self.A), ("b", [self.b])):
                if not (type(rows) is list and all(type(row) is list and all(
                        type(e) is float or (type(e) is int and abs(e) <= sys.float_info.max)
                        for e in row) for row in rows)):
                    raise ConfigError(f"A and b must be arrays of numbers: {key} must be a JSON "
                                      f"array{' of rows' * (key == 'A')} of numbers within "
                                      f"the float range")
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
        return simplex_tv_from_arrays(self.A, self.b, self.beta)

    def is_stochastic(self):
        return self.oracle_mode != "exact"


def _differs(value, default):
    # None defaults mark array keys, which must not be compared elementwise
    return value is not None if default is None else value != default


class TraceRecord(NamedTuple):
    """One logged row of a trace: its fields, in order, are the CSV columns.

    A record is the tuple of its fields, and equals that tuple.
    """

    k: int
    gap_pointwise: float
    gap_ergodic: float
    lagrangian: float
    residual: float
    estimate_slack: Optional[float] = None
    wall_nanos: Optional[int] = None


def _column(name, hint):
    # Optional[T] is Union[T, None]; only its column reads "" as None
    kinds = get_args(hint) or (hint,)
    return name, kinds[0], type(None) in kinds


# annotations, like fields, come in declaration order
_COLUMNS = tuple(_column(name, hint)
                 for name, hint in get_type_hints(TraceRecord).items())
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def should_log(k, final=None):
    """Dense early logging, then every ceil(k/1000)-th iteration, and ``final``.

    ``k`` >= 1 is an int, or an int array (``_logged_ks``), compared elementwise.
    """
    return (k % -(-k // 1000) == 0) | (k == final)


# rows of a trace formed per write; a chunk's cells are held at once (all
# 1500 rows of a 2000-iteration trace at once peaked 0.8 MB above row by row)
_WRITE_ROWS = 256


def write_trace(path, records):
    # the cells of each chunk of rows are made a column at a time, one repr
    # pass per column, and the chunk's lines are joined from its columns
    rows = iter(records)
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        while chunk := list(itertools.islice(rows, _WRITE_ROWS)):
            columns = [_cells(values, optional)
                       for values, (_, _, optional) in zip(_columns(chunk), _COLUMNS)]
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _columns(records):
    # one tuple per column: a record is the tuple of its cells
    return list(zip(*records)) or [()] * len(_COLUMNS)


def _cells(values, optional):
    # one column's CSV cells; None, in an optional column, writes ""
    if optional:
        return ["" if v is None else repr(v) for v in values]
    return list(map(repr, values))


def read_trace(path):
    """Parse each cell with its column's type; a foreign header, a row whose
    cell count is not the header's or a cell that does not parse raises."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path} does not carry the expected trace header")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(_COLUMNS):
            raise ValueError(f"{path} line {number}: {len(cells)} cells, "
                             f"the header has {len(_COLUMNS)}")
        values = [None if cell == "" and optional else kind(cell)
                  for cell, (_, kind, optional) in zip(cells, _COLUMNS)]
        records.append(TraceRecord(*values))
    return records


def _mean_records(traces):
    # all runs share the logging grid, so aggregation is columnwise: each
    # column is one (rows, R) array and one mean(axis=1), which sums every
    # row as np.mean sums a list of R values (mean(axis=0) of the transpose
    # sums in another order)
    runs = [_columns(t) for t in traces]  # each run's columns; [0] is k
    if len({len(t) for t in traces}) > 1 or len({run[0] for run in runs}) > 1:
        raise RuntimeError("runs disagree on the logging grid")
    if not runs or not runs[0][0]:
        return []

    def means(cells, kind):
        # the float mean of each row, cast back to the column's type; a row
        # with an empty cell (None) in any run stays empty
        empty = [False] * len(cells[0])
        if any(None in c for c in cells):
            empty = [None in row for row in zip(*cells)]
            cells = [[0 if v is None else v for v in c] for c in cells]
        values = np.array(cells, dtype=np.float64).T.copy()  # (rows, R), C order
        return [None if e else kind(mean)
                for e, mean in zip(empty, values.mean(axis=1).tolist())]

    columns = [means([run[c] for run in runs], kind)
               for c, (_, kind, _) in enumerate(_COLUMNS) if c]
    return [TraceRecord(k, *values) for k, values in zip(runs[0][0], zip(*columns))]


# bytes of the logged states a block of logged k holds (x, log x, mu and the
# ergodic means, R rows per k) before it is evaluated as one stack; a larger
# block dispatches less but holds more states at once. 128 KiB is 66 k of the
# 50x50 simplex-tv instance, 22 k of its 3 stochastic repeats and 21 k of the
# n = 108 ot-inverse instance, whose rows are the widest
_BLOCK_BYTES = 128 << 10


class _Block(NamedTuple):
    """A block of logged k as stacks of rows, R rows per k in (k, r) order."""

    ks: list
    x: np.ndarray  # the iterates' coordinates, then the ergodic means'
    mu: np.ndarray  # the iterates' mu, then the ergodic means'
    log_x: np.ndarray  # the iterates' log coordinates
    prev_x: np.ndarray  # the previous states' coordinates, log coordinates and mu
    prev_log_x: np.ndarray
    prev_mu: np.ndarray
    certified: list
    batches: list  # the batch each certified stochastic k's step drew, else None
    walls: list


def _rows(arrays):
    # one (rows, d) stack of vectors or of (R, d) stacks, in order
    return np.reshape(arrays, (-1, arrays[0].shape[-1]))


def _logged_ks(final):
    # should_log's k of a run of final steps, in one numpy pass
    k = np.arange(1, final + 1)
    return k[should_log(k, final)].tolist()


class _LoggedSteps:
    """A window of logged k ``ks``, as the callback of ``run``: the one
    producer of ``_Block``s. Each measured step, stepped without ergodic
    means, is seen by one window, which carries the means as one (x | mu)
    row (R rows for a stacked state) from ``means`` (``None``: the initial
    point) through each step up to ``final``: it copies the step's x and mu
    into a scratch row and moves the means in place (``_moved_means``,
    ``solver._advance``'s recursion) into its logged k's row of the means
    column, else into one of two scratch rows. It packs each of its k into
    float64 columns, allocated with its per-k lists at its first step: the
    means, log x and mu of its state, after log x and mu of its previous
    state when that one is not logged; with a noisy ``oracle`` a certified
    k's batch (a block hit), with a clock ``t0`` its wall. A call returns
    whether the last k was packed; ``last`` is the last state seen.
    ``block`` rebuilds x as ``np.exp(log x)``, bitwise as
    ``kl_prox_simplex`` forms it (the initial state keeps its own x), and
    splits the means into x_bar and mu_bar.
    """

    def __init__(self, ks, final, cert_every, t0=None, oracle=None, means=None):
        self.ks, self.final, self.means, self.t0, self.oracle = ks, final, means, t0, oracle
        self.cert_every, self.walls = cert_every, None if t0 is None else []
        self.rows, self.next, self.slots = 0, ks[0], None  # rows: the logged k packed

    def _allocate(self, prev, state):
        # a k's slot follows its previous state's, its own when k - 1 is not logged here
        ks, cert_every = self.ks, self.cert_every
        self.certified = [bool(cert_every) and k % cert_every == 0 for k in ks]
        self.batches = [None] * len(ks)
        self.alone = [k - 1 != before for k, before in zip(ks, [None] + ks[:-1])]
        self.slots = [i + s for i, s in enumerate(itertools.accumulate(self.alone))]
        x, mu, rows = state.x.log_coords.shape, state.mu.shape, self.slots[-1] + 1
        self.log_x, self.mu = np.empty((rows, *x)), np.empty((rows, *mu))
        self.n, self.bar = x[-1], np.empty((len(ks), *x[:-1], x[-1] + mu[-1]))
        *self.spare, self.now = np.empty((3, *self.bar.shape[1:]))
        self.now_x, self.now_mu = self.now[..., :self.n], self.now[..., self.n:]
        self.x0 = prev.x.coords  # the initial state's, if the window starts at k = 1
        if self.means is None:
            self.means = np.concatenate((prev.x.coords, prev.mu), axis=-1)

    def __call__(self, prev, state):
        k = state.k
        if k > self.final:
            return False
        if self.slots is None:
            self._allocate(prev, state)
        self.now_x[...], self.now_mu[...] = state.x.coords, state.mu
        i, logged = self.rows, k == self.next
        # k - 1's means lie in a logged row, the other scratch row or before the window
        self.means = _moved_means(self.means, k, self.now,
                                  self.bar[i] if logged else self.spare[k & 1])
        if logged:
            j = self.slots[i]
            if self.alone[i]:
                self.log_x[j - 1], self.mu[j - 1] = prev.x.log_coords, prev.mu
            self.log_x[j], self.mu[j] = state.x.log_coords, state.mu
            if self.oracle is not None and self.certified[i]:
                self.batches[i] = self.oracle.sample_batch(prev.k)
            if self.walls is not None:
                self.walls.append(time.perf_counter_ns() - self.t0)
            self.rows = i + 1
            self.next = self.ks[i + 1] if i + 1 < len(self.ks) else None
        self.last = state
        return self.next is None

    def block(self, a, b):
        """The packed logged k a to b - 1, in order, as a ``_Block``."""
        ks = self.ks[a:b]
        slots = np.array(self.slots[a:b])
        lo = slots[0] - 1
        log_x = self.log_x[lo:slots[-1] + 1]
        x = np.exp(log_x)
        if ks[0] == 1:
            x[0] = self.x0
        now, prev, bar = slots - lo, slots - lo - 1, self.bar[a:b]
        return _Block(ks, _rows(np.concatenate((x[now], bar[..., :self.n]))),
                      _rows(np.concatenate((self.mu[slots], bar[..., self.n:]))),
                      _rows(log_x[now]), _rows(x[prev]), _rows(log_x[prev]),
                      _rows(self.mu[slots - 1]), self.certified[a:b], self.batches[a:b],
                      [None] * len(ks) if self.walls is None else self.walls[a:b])


def _measured_run(problem, saddle, schedule, reference, ks, config, oracle=None,
                  logged=None):
    """The measured phase over ``oracle`` (``None`` is the exact one), of
    ``ks[-1]`` steps logged at ``ks`` (``_logged_ks``).

    Returns one ``(records, certificates)`` pair per run: the certificates
    are the ``(slack, scale)`` pairs of its certified rows. An oracle of a
    tuple of R seeds (one seed included) steps R runs as one stacked state
    of R rows, whose batch of a k is the (R, q) stack of theirs; an int seed
    steps one 1-d state. Every step goes, without ergodic means, into a
    ``_LoggedSteps`` window: ``logged``, the reference's window of an exact
    run, holds its first steps when the reference was computed, and the
    steps after them are stepped here by one ``run`` call per window of
    ``_BLOCK_BYTES`` of logged states. A window is evaluated in blocks of
    that size (``_evaluate_block``) at its last k, inside its call, before
    ``run``'s final check, and hands its means to the next; a block reads
    nothing of the blocks before it, and the ``stop_gap`` rule cuts the
    records and certificates of a block past its stop k. Walls count from
    the start of this phase, or from ``logged``'s clock.
    """
    rows = len(oracle.seed) if isinstance(getattr(oracle, "seed", None), tuple) else None
    evaluator = ReferenceEvaluator(saddle, schedule, reference.w_star)
    runs = [([], []) for _ in range(rows or 1)]
    noisy = oracle if oracle is not None and not oracle.is_exact else None
    noise = functools.partial(_estimate_errors, saddle, oracle) if noisy else None
    state = _bare_state(*problem.initial_point(), rows=rows)
    # x, log x, mu and the ergodic means of x and mu of a logged state
    state_bytes = 2 * (state.x.coords.nbytes + state.mu.nbytes) + state.x.log_coords.nbytes
    block_rows = max(1, _BLOCK_BYTES // state_bytes)
    means, t0 = None, time.perf_counter_ns() if config.record_timing else None

    def stopped():
        # the stop rule, over the last block and the 99 rows before it: cut the
        # run after the first row whose last 100 gaps are all below stop_gap
        records, certificates = runs[0] if config.stop_gap is not None else ([], [])
        below = 0
        for i in range(max(0, len(records) - block_rows - 99), len(records)):
            below = below + 1 if records[i].gap_pointwise < config.stop_gap else 0
            if below == 100:
                cut = sum(r.estimate_slack is not None for r in records[i + 1:])
                del records[i + 1:], certificates[len(certificates) - cut:]
                return True
        return False

    def evaluated(window):
        # evaluate a window's blocks; whether the stop rule stops the run
        for a in range(0, window.rows, block_rows):
            _evaluate_block(evaluator, window.block(a, a + block_rows), runs, noise)
            if stopped():
                return True
        return False

    if logged is not None and logged.rows:
        if evaluated(logged):
            return runs
        state, means, t0, ks = logged.last, logged.means, logged.t0, ks[logged.rows:]
    for a in range(0, len(ks), block_rows):
        window = _LoggedSteps(ks[a:a + block_rows], ks[-1], config.cert_every, t0, noisy,
                              means)
        state = run(saddle, schedule, state, window.ks[-1] - state.k, oracle,
                    lambda prev, new, window=window: window(prev, new) and evaluated(window))
        if stopped():  # the stop row ends a cut run, so the rule holds again
            break
        means = window.means
    return runs


def _estimate_errors(saddle, oracle, batches, x, ks):
    """The errors estimate - grad f(x) of the gradient estimates of ``oracle``
    on the batches ``batches`` at the points ``x`` (rows of iterations ``ks``).

    One stacked partial gradient and one stacked full gradient; row i is
    bitwise ``GradientOracle.grad_estimate``'s delta at iteration ``ks[i]``,
    as ``linalg.matvec`` runs the vector's gemv on every row.
    """
    estimate = saddle.f_partial_grad(batches, x)
    if oracle.mode == "scaled-unbiased":
        estimate = (oracle.m / oracle.batch_size) * estimate
    full = saddle.f_grad(x)
    finite = np.isfinite(full).all(axis=-1)
    if not finite.all():
        raise OracleError(f"non-finite full gradient at iteration {ks[finite.argmin()]}")
    return estimate - full


def _evaluate_block(evaluator, block, runs, noise=None):
    """Append the records and certificates of a ``_Block`` of logged k to ``runs``.

    The block is one stack of rows, R per k in (k, r) order, each row
    bitwise its 1-d value and made a Python float by one ``tolist`` per
    column. The iterates and the ergodic means go through one ``gap``,
    checked as ``gap`` checks each, the iterates first. The certified rows
    take their noise terms from ``noise(batches, x, ks)`` on a stochastic
    run, formed before the checks, and their energies from one ``energy``
    call: E_{k+1} of each, with T x from its parts, and E_k of each previous
    state that is not the certified state before it in the block, with T x
    from one apply; a row whose previous state is that state takes its
    E_{k+1} as its E_k.
    """
    ks, x, mu, certified = block.ks, block.x, block.mu, block.certified
    repeats = len(runs)
    n = len(ks) * repeats
    now = SolverState(None, BregmanPoint(x[:n], block.log_x), mu[:n], None, None)
    prev = SolverState(None, BregmanPoint(block.prev_x, block.prev_log_x), block.prev_mu,
                       None, None)
    # the certified rows; a view of all of them when every k is certified
    rows = slice(None) if all(certified) else np.repeat(certified, repeats)
    delta = None
    if noise is not None and any(certified):
        delta = noise(_rows([b for b, c in zip(block.batches, certified) if c]),
                      prev.x.coords[rows], np.repeat([k - 1 for k in ks], repeats)[rows])
    evaluator.check((now.x, now.mu))
    evaluator.check((x[n:], mu[n:]))
    gap, parts = evaluator.gap((BregmanPoint(x), mu), check=False)
    gap, gap_bar = gap[:n], gap[n:]
    parts = LagrangianParts(*(None if a is None else a[:n] for a in parts))
    columns = [c.tolist() for c in (gap, gap_bar, evaluator.lagrangian(parts),
                                    asymptotic_residual(prev, now))]
    slacks = np.full((len(ks), repeats), None, dtype=object)
    certificates = [()] * repeats
    if any(certified):
        ends = [k for k, c in zip(ks, certified) if c]
        # the certified rows whose previous state is not the certified state before them
        fresh = np.repeat([k - 1 != before for k, before in zip(ends, [None] + ends[:-1])],
                          repeats)
        w_next = [a[rows] for a in (now.x.coords, now.x.log_coords, now.mu, parts.Tx)]
        w_prev = [a[rows][fresh] for a in (prev.x.coords, prev.x.log_coords, prev.mu)]
        w_prev.append(evaluator.problem.coupling.apply(w_prev[0]))
        # one energy pass over the certified states, then the fresh previous states
        x_w, log_x_w, mu_w, Tx_w = map(np.concatenate, zip(w_next, w_prev))
        energy = evaluator.energy((BregmanPoint(x_w, log_x_w), mu_w), Tx_w)
        e_next, e_prev = energy[:len(fresh)], energy[len(fresh):]
        # E_{k+1} of the certified row before; the first certified row is fresh
        e_k = np.concatenate((e_prev[:repeats], e_next[:-repeats]))
        e_k[fresh] = e_prev
        slack, scale = evaluator.slack(e_k, e_next, (w_next[0], w_next[2]), gap[rows], delta)
        slack, scale = slack.tolist(), scale.tolist()
        slacks[list(certified)] = np.array(slack, dtype=object).reshape(-1, repeats)
        certificates = [zip(slack[r::repeats], scale[r::repeats]) for r in range(repeats)]
    for r, (records, certs) in enumerate(runs):
        records.extend(map(TraceRecord, ks, *(c[r::repeats] for c in columns),
                           slacks[:, r].tolist(), block.walls))
        certs.extend(certificates[r])


def _certificate_summary(certificates):
    """``meta.json``'s summary of the ``(slack, scale)`` certificates of a run.

    A violation is a certificate that does not hold (``certificate_holds``);
    the worst scaled slack is the least slack / scale (``None`` when nothing
    was certified).
    """
    scaled = [slack / scale for slack, scale in certificates]
    return {
        "evaluated": len(scaled),
        "worst_scaled_slack": min(scaled, default=None),
        "violations": sum(not certificate_holds(slack, scale)
                          for slack, scale in certificates),
    }


def _fail(log, status, kind, message, output_dir=None):
    """Log one failure document, and write it to ``output_dir/error.json``."""
    doc = {"error": kind, "message": str(message)}
    if output_dir is not None:
        try:
            os.makedirs(output_dir, exist_ok=True)
            with open(os.path.join(output_dir, "error.json"), "w") as fh:
                json.dump(doc, fh, indent=2)
        except (OSError, TypeError):  # TypeError: output_dir is no path at all
            pass
    log(json.dumps(doc))
    return status


def run_guarded(load, body, log=print, fallback_dir="runs"):
    """Load and check a config, probe its output dir, then run ``body``.

    ``load()`` returns the config and ``body(config, problem, output_dir)``
    the exit status. A failure logs one JSON document and exits 2 for a
    config that cannot be loaded, validated or built (``invalid-config``,
    also in ``error.json``, under ``fallback_dir`` when ``load`` fails) or
    an unwritable output dir, and 1 for an exception from ``body`` (named
    by its type, also in ``error.json``).
    """
    output_dir = fallback_dir
    try:
        config = load()
        output_dir = config.resolved_output_dir()
        config.validate()
        problem = config.build_problem()
    except ValueError as exc:  # ConfigError, or a problem builder's check
        return _fail(log, 2, "invalid-config", exc, output_dir)
    try:
        os.makedirs(output_dir, exist_ok=True)
        probe = os.path.join(output_dir, ".write_probe")
        open(probe, "w").close()
        os.remove(probe)
    except OSError as exc:
        return _fail(log, 2, "unwritable-output-dir", exc)
    try:
        return body(config, problem, output_dir)
    except Exception as exc:  # solver or I/O failure: report and signal
        return _fail(log, 1, type(exc).__name__, exc, output_dir)


def run_experiment(config, log=print):
    """Execute a configured experiment; returns a process exit status."""
    return run_guarded(lambda: config, run_phases, log)


def run_phases(config, problem, output_dir):
    """The reference and measured phases of a checked config; returns 0."""
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    ref_budget = config.resolved_reference_budget()
    stochastic = config.is_stochastic()
    ks = _logged_ks(config.iterations)
    # an exact measured phase is the reference run's first steps: a computed
    # reference steps them once, and packs their logged k in one window
    logged = None if stochastic else _LoggedSteps(
        ks[:bisect.bisect_right(ks, ref_budget)], config.iterations, config.cert_every,
        time.perf_counter_ns() if config.record_timing else None)
    reference = compute_reference(problem, ref_budget, config.seed,
                                  cache_dir=output_dir, callback=logged)

    oracle_seeds = ([config.seed + r for r in range(config.repeats)]
                    if stochastic else [])
    oracle = None  # the exact oracle; R > 1 repeats step as one stacked state
    if stochastic:
        seeds = tuple(oracle_seeds) if config.repeats > 1 else config.seed
        oracle = GradientOracle(config.oracle_mode, config.batch_size, seeds, problem.m)
    runs = _measured_run(problem, saddle, schedule, reference, ks, config, oracle, logged)
    traces = [records for records, _ in runs]
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
            "measured_iterations": traces[0][-1].k,  # fewer after a stop_gap stop
            "reference_iterations": ref_budget,
            "reference_hash": reference.config_hash,
            "ref_tol": reference.ref_tol,
            "rate_constant": ergodic_rate_constant(
                saddle, schedule, reference.w_star, (x0, mu0)),
            "final_ergodic_gap": final_gap,
        },
        "certificate": _certificate_summary(
            [cert for _, certificates in runs for cert in certificates]),
        "reference_cache": "hit" if reference.from_cache else "miss",
    }
    with open(os.path.join(output_dir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return 0
