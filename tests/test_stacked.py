"""Stacked repeats: R runs stepped as one state equal the R looped 1-d runs.

A stacked state holds R runs as the rows of its arrays, and an
``OracleStack`` of R oracles gives row r the batches of oracle r. Every
test here compares the stacked run against the 1-d runs of the same seeds,
bit for bit.
"""

import numpy as np
import pytest

from sbpd import experiment
from sbpd.bregman import DomainError
from sbpd.experiment import ExperimentConfig, read_trace, run_experiment
from sbpd.oracle import GradientOracle, OracleError, OracleStack
from sbpd.problems import build_simplex_tv, compute_reference
from sbpd.solver import initial_state, run


def _fields(state):
    return (state.x.coords, state.x.log_coords, state.mu, state.x_bar,
            state.mu_bar)


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
        assert read_trace(tmp_path / "out" / f"run_{r:03d}.csv") == records
        assert len(certificates) == sum(row.estimate_slack is not None
                                        for row in records) == 550
        looped.append(records)
    assert (read_trace(tmp_path / "out" / "mean_trace.csv")
            == experiment._mean_records(looped))
