"""Stacked repeats: R runs stepped as one state equal the R looped 1-d runs.

A stacked state holds R runs as the rows of its arrays, and an
``OracleStack`` of R oracles gives row r the batches of oracle r. Every
test here compares the stacked run against the 1-d runs of the same seeds,
bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from sbpd import experiment
from sbpd.bregman import BregmanPoint, DomainError
from sbpd.experiment import ExperimentConfig, read_trace, run_experiment
from sbpd.linalg import ShapeError
from sbpd.oracle import GradientOracle, OracleError, OracleStack
from sbpd.problems import build_ot_inverse, build_simplex_tv, compute_reference
from sbpd.solver import ReferenceEvaluator, initial_state, run, sbpd_step


def _fields(state):
    return (state.x.coords, state.x.log_coords, state.mu, state.x_bar,
            state.mu_bar)


def _bits(records):
    """Every cell of ``records``, each float as its hex, so that -0.0, 0.0,
    NaN and every other float differ."""
    return [tuple(v.hex() if isinstance(v, float) else v
                  for v in dataclasses.astuple(record)) for record in records]


def _history(problem, steps, oracle, rows=None):
    """The bytes of every state of a run, stacked or 1-d."""
    states = []
    run(problem.saddle_problem(), problem.default_schedule(),
        initial_state(*problem.initial_point(), rows=rows), steps, oracle,
        lambda prev, new: states.append([a.copy() for a in _fields(new)]))
    return states


def _stack(mode, q, seeds, m):
    return OracleStack(GradientOracle(mode, q, seed, m) for seed in seeds)


def _assert_stacked_is_looped(problem, mode, q, seed, rows, steps):
    seeds = [seed + r for r in range(rows)]
    stacked = _history(problem, steps, _stack(mode, q, seeds, problem.m), rows)
    assert len(stacked) == steps
    for r, s in enumerate(seeds):
        looped = _history(problem, steps, GradientOracle(mode, q, s, problem.m))
        for k, (row_state, state) in enumerate(zip(stacked, looped), 1):
            for row, vector in zip(row_state, state):
                assert row.shape == (rows,) + vector.shape
                assert row[r].tobytes() == vector.tobytes(), (r, k)


@pytest.mark.parametrize("rows", [1, 3, 20])
@pytest.mark.parametrize("mode", ["paper-partial", "scaled-unbiased"])
def test_stacked_run_is_bitwise_the_looped_runs(mode, rows):
    problem = build_simplex_tv(50, 50, 7)
    _assert_stacked_is_looped(problem, mode, 5, 7, rows, 200)


def test_stacked_run_with_the_exact_oracle_of_q_equal_m():
    # q = m makes the oracle exact: the stacked full gradient takes the step
    problem = build_simplex_tv(12, 9, 4)
    assert _stack("paper-partial", 9, (1, 2, 3), 9).is_exact
    _assert_stacked_is_looped(problem, "paper-partial", 9, 1, 3, 200)


def test_stacked_run_with_as_many_rows_as_coordinates():
    # n = R = 3: a product that multiplied the stack as one matrix, instead
    # of row by row, would still find conforming shapes
    problem = build_simplex_tv(3, 4, 2)
    _assert_stacked_is_looped(problem, "paper-partial", 2, 5, 3, 2000)


def _raised(error, problem, steps, oracle, rows=None):
    saddle, schedule = problem.saddle_problem(), problem.default_schedule()
    with pytest.raises(error) as raised, np.errstate(divide="ignore"):
        run(saddle, schedule, initial_state(*problem.initial_point(), rows=rows),
            steps, oracle)
    return str(raised.value)


def test_non_finite_estimate_in_one_repeat_raises_at_the_k_of_its_1d_run():
    # b_3 = 0 makes a batch's estimate infinite from the first k whose batch
    # holds summand 3: each seed meets it at its own k, far below the budget
    problem = build_simplex_tv(6, 20, 3)
    problem.b[3] = 0.0
    seeds = (0, 1, 2, 3)
    messages = [_raised(OracleError, problem, 500,
                        GradientOracle("paper-partial", 2, seed, 20))
                for seed in seeds]
    ks = [int(message.rsplit(" ", 1)[1]) for message in messages]
    assert len(set(ks)) == len(ks) and max(ks) < 500
    stacked = _raised(OracleError, problem, 500,
                      _stack("paper-partial", 2, seeds, 20), rows=len(seeds))
    assert stacked == messages[ks.index(min(ks))]


def test_non_finite_entry_in_one_repeat_raises_the_domain_error_of_its_1d_run():
    # with the exact oracle of q = m nothing checks the steps: run checks
    # the state it returns, so the error names the last k
    problem = build_simplex_tv(6, 5, 3)
    saddle, schedule = problem.saddle_problem(), problem.default_schedule()
    x0, mu0 = problem.initial_point()
    stacked = initial_state(x0, mu0, rows=3)
    stacked.mu[1, 2] = np.nan
    single = initial_state(x0, mu0)
    single.mu[2] = np.nan
    with pytest.raises(DomainError) as from_1d:
        run(saddle, schedule, single, 7, GradientOracle("paper-partial", 5, 1, 5))
    with pytest.raises(DomainError) as from_stack:
        run(saddle, schedule, stacked, 7, _stack("paper-partial", 5, (0, 1, 2), 5))
    assert str(from_stack.value) == str(from_1d.value)


def test_run_experiment_repeats_equal_their_1d_measured_runs(tmp_path):
    mode = "scaled-unbiased"
    config = ExperimentConfig(experiment="simplex-tv", n=10, m=12, seed=5,
                              iterations=1100, oracle_mode=mode, batch_size=4,
                              repeats=3, cert_every=2,
                              output_dir=str(tmp_path / "out"))
    assert run_experiment(config, log=print) == 0
    problem = config.build_problem()
    saddle = problem.saddle_problem()
    reference = compute_reference(problem, config.resolved_reference_budget(),
                                  config.seed)
    looped = []
    for r in range(3):
        oracle = GradientOracle(mode, 4, 5 + r, 12)
        [(records, certificates)] = experiment._measured_run(
            problem, saddle, problem.default_schedule(), reference,
            config.iterations, config, (oracle,))
        trace = read_trace(tmp_path / "out" / f"run_{r:03d}.csv")
        assert _bits(trace) == _bits(records)
        assert len(certificates) == sum(row.estimate_slack is not None
                                        for row in records) == 550
        looped.append(records)
    assert (_bits(read_trace(tmp_path / "out" / "mean_trace.csv"))
            == _bits(experiment._mean_records(looped)))


# -------------------------------------------- one evaluation per logged k

def _config(tmp_path, mode, rows, iterations, cert_every):
    return ExperimentConfig(experiment="simplex-tv", n=6, m=8, seed=5,
                            iterations=iterations, oracle_mode=mode,
                            batch_size=3, repeats=rows, cert_every=cert_every,
                            output_dir=str(tmp_path / "out"))


@pytest.fixture(scope="module")
def looped():
    """``looped(config, r)``: the 1-d measured run of repeat r of ``config``,
    as ``(records, certificates)``; each is run once per module."""
    references, runs = {}, {}
    measured_run = experiment._measured_run  # before a test patches it

    def looped_run(config, r):
        problem = config.build_problem()
        budget = config.resolved_reference_budget()
        if budget not in references:
            references[budget] = compute_reference(problem, budget, config.seed)
        key = (config.oracle_mode, config.cert_every, config.iterations, r)
        if key not in runs:
            oracle = GradientOracle(config.oracle_mode, config.batch_size,
                                    config.seed + r, problem.m)
            [runs[key]] = measured_run(
                problem, problem.saddle_problem(), problem.default_schedule(),
                references[budget], config.iterations, config, (oracle,))
        return runs[key]

    return looped_run


@pytest.mark.parametrize("cert_every", [0, 1, 3])
@pytest.mark.parametrize("mode", ["paper-partial", "scaled-unbiased"])
@pytest.mark.parametrize("rows, iterations", [(2, 40), (3, 1004), (20, 40)])
def test_stacked_evaluation_is_bitwise_the_1d_measured_runs(
        tmp_path, monkeypatch, looped, rows, iterations, mode, cert_every):
    # each logged k is evaluated once, on the stacked state: every cell of
    # every run_*.csv and every (slack, scale) pair is its 1-d run's, bit for
    # bit. cert_every = 1 carries the energy from one logged k to the next
    # up to k = 1000, and past it, where logging thins to every other k,
    # evaluates it again; cert_every = 3 evaluates it at every certified k.
    config = _config(tmp_path, mode, rows, iterations, cert_every)
    measured_run, stacked = experiment._measured_run, []
    monkeypatch.setattr(experiment, "_measured_run",
                        lambda *args: stacked.extend(measured_run(*args)) or stacked)
    assert run_experiment(config, log=print) == 0
    assert len(stacked) == rows
    for r, (_, certificates) in enumerate(stacked):
        records, looped_certificates = looped(config, r)
        assert len(records) == (1002 if iterations > 1000 else iterations)
        assert len(looped_certificates) == (
            0 if cert_every == 0 else sum(row.k % cert_every == 0 for row in records))
        trace = read_trace(tmp_path / "out" / f"run_{r:03d}.csv")
        assert _bits(trace) == _bits(records), r
        assert ([(s.hex(), c.hex()) for s, c in certificates]
                == [(s.hex(), c.hex()) for s, c in looped_certificates]), r


def _stacked_steps(steps, rows=3):
    """(saddle, schedule, reference, the stacked states (x, mu) of ``steps``
    consecutive steps), x carrying its log coordinates; every array is the
    state's own copy."""
    problem = build_simplex_tv(6, 8, 3)
    saddle, schedule = problem.saddle_problem(), problem.default_schedule()
    x0, mu0 = problem.initial_point()
    state = initial_state(x0, mu0, rows=rows)
    oracle = _stack("paper-partial", 3, range(1, rows + 1), 8)
    ws = []
    for _ in range(steps):
        state = sbpd_step(saddle, schedule, state, oracle)
        ws.append((BregmanPoint(state.x.coords.copy(), state.x.log_coords.copy()),
                   state.mu.copy()))
    return saddle, schedule, (x0.coords, mu0), ws


def _error(call, *args):
    with pytest.raises(ValueError) as raised:  # DomainError and ShapeError too
        call(*args)
    return type(raised.value), str(raised.value)


def test_stacked_evaluation_raises_the_error_of_its_bad_row():
    # one bad row (not row 0) of a stacked point raises what the 1-d
    # evaluation of that row raises
    saddle, schedule, reference, [(x, mu)] = _stacked_steps(1)
    evaluator = ReferenceEvaluator(saddle, schedule, reference)
    off_simplex, non_finite, negative, zero = (x.coords.copy() for _ in range(4))
    off_simplex[1] = 0.3
    non_finite[1, 2] = np.nan  # as in an x_bar row, which has no log x
    negative[1] = -negative[1]  # A x < 0 on that row, past an unchecked gap
    zero[1, 0] = 0.0  # the KL term against x needs log x or x > 0
    outside_ball = mu.copy()
    outside_ball[1, 0] = 5.0
    cases = [(evaluator.gap, (off_simplex, mu)),
             (evaluator.gap, (x.coords, outside_ball)),
             (evaluator.gap, (non_finite, mu)),
             (lambda w: evaluator.gap(w, check=False), (negative, mu)),
             (evaluator._energy, (zero, mu))]
    for call, (xs, mus) in cases:
        error = _error(call, (xs, mus))
        assert error == _error(call, (xs[1], mus[1]))
        # the rows before it evaluate
        call((xs[:1], mus[:1]))
        call((xs[0], mus[0]))
    assert [_error(call, w)[1] for call, w in cases] == [
        "primal part of w violates its constraints",
        "dual part of w violates its constraints",
        "coords contains non-finite entries",
        "Ax has nonpositive entries",
        "y has nonpositive entries and no log coordinates"]


@pytest.mark.parametrize("x_rows, mu_rows", [(3, 2), (1, 3), (3, 1), (0, 3)])
def test_stacked_evaluation_rejects_rows_of_two_counts(x_rows, mu_rows):
    # x and mu of different row counts raise ShapeError rather than
    # broadcasting one row against the others; 0 stands for a 1-d x
    saddle, schedule, reference, [(x, mu)] = _stacked_steps(1)
    evaluator = ReferenceEvaluator(saddle, schedule, reference)
    coords = x.coords[0] if x_rows == 0 else x.coords[:x_rows]
    point = BregmanPoint(coords, x.log_coords[0] if x_rows == 0
                         else x.log_coords[:x_rows])
    for call, w in ((evaluator.gap, (coords, mu[:mu_rows])),
                    (evaluator._energy, (point, mu[:mu_rows]))):
        with pytest.raises(ShapeError, match="row count"):
            call(w)


@pytest.mark.parametrize("check", [True, False])
def test_stacked_ot_inverse_evaluation_raises_shape_error(check):
    # the semidual takes one potential: a feasible stack of ot-inverse rows
    # is a shape error, not a dual part that violates its constraints
    problem = build_ot_inverse(8, 1)
    x0, mu0 = problem.initial_point()
    saddle = problem.saddle_problem()
    evaluator = ReferenceEvaluator(saddle, problem.default_schedule(), (x0, mu0))
    state = initial_state(x0, mu0, rows=3)
    with pytest.raises(ShapeError, match="one dual vector"):
        evaluator.gap((state.x, state.mu), check=check)
    with pytest.raises(ShapeError, match="one dual vector"):
        saddle.h_star_grad(state.mu)
    assert evaluator.gap((x0, mu0))[0] == 0.0


@pytest.mark.parametrize("changed", [None, "log x", "mu"])
def test_stacked_certificate_recomputes_a_row_changed_in_place(changed):
    # the carry keys the whole stacked w_next by its bytes: a row changed in
    # place (row 2, not row 0) in the same arrays has its energy evaluated
    # again, and an unchanged state reuses every row's
    saddle, schedule, reference, (w0, w1, w2) = _stacked_steps(3)
    evaluator = ReferenceEvaluator(saddle, schedule, reference)

    def certify(evaluator, w_k, w_next):
        gap, parts = evaluator.gap(w_next)
        applies = []
        apply = saddle.coupling.apply
        saddle.coupling.apply = lambda x: applies.append(1) or apply(x)
        try:
            slack, scale = evaluator.certificate(w_k, w_next, gap, parts=parts)
        finally:
            del saddle.coupling.apply
        return [v.hex() for v in slack.tolist() + scale.tolist()], len(applies)

    certify(evaluator, w0, w1)
    before = evaluator._energy(w1)
    if changed == "mu":
        w1[1][2, 0] += 0.25
    elif changed == "log x":
        w1[0].log_coords[2, 0] -= 0.25
    after = evaluator._energy(w1)
    assert after[:2].tobytes() == before[:2].tobytes()
    assert (after[2] != before[2]) == (changed is not None)
    fresh, _ = certify(ReferenceEvaluator(saddle, schedule, reference), w1, w2)
    # E_k takes the one apply of T x_k when it is evaluated
    assert certify(evaluator, w1, w2) == (fresh, 0 if changed is None else 1)


def test_stacked_certificate_scale_keeps_the_rule_of_max_on_each_row():
    # scale = 1 + max(|E_k|, |E_k+1|, |gap|, |noise|), and max skips a NaN
    # after its first argument: with a NaN gap on row 1, each row's pair is
    # still its 1-d certificate's, bit for bit
    saddle, schedule, reference, (w0, w1) = _stacked_steps(2)
    gaps = ReferenceEvaluator(saddle, schedule, reference).gap(w1)[0]
    gaps[1] = np.nan
    slack, scale = ReferenceEvaluator(saddle, schedule, reference).certificate(
        w0, w1, gaps)
    assert np.isnan(slack[1]) and np.isfinite(scale).all()
    for r in range(3):
        def row(w):
            return BregmanPoint(w[0].coords[r], w[0].log_coords[r]), w[1][r]
        single = ReferenceEvaluator(saddle, schedule, reference).certificate(
            row(w0), row(w1), float(gaps[r]))
        assert (slack[r].hex(), scale[r].hex()) == tuple(v.hex() for v in single)
