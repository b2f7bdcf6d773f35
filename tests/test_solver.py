import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from sbpd.bregman import (
    BregmanPoint,
    DomainError,
    euclidean_divergence,
    kl_divergence,
    kl_prox_simplex,
    linf_ball_prox,
)
from sbpd.linalg import (
    LinearMap,
    ShapeError,
    forward_difference_matrix,
    operator_norm,
)
from sbpd.oracle import GradientOracle
from sbpd.problems import build_ot_inverse
from sbpd.solver import (
    ReferenceEvaluator,
    SaddleProblem,
    SolverState,
    StepSchedule,
    _moved_means,
    asymptotic_residual,
    certificate_holds,
    default_step_sizes,
    ergodic_rate_constant,
    estimate_inequality_terms,
    initial_state,
    lagrangian_gap,
    run,
    sbpd_step,
    symmetrized_energy_slack,
)


def tv_problem(n, m, seed, beta=1.0):
    """Small simplex-constrained inverse problem, built inline so that the
    solver tests do not depend on the problems module."""
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.01, 1.01, (m, n))
    b = 1.0 - rng.uniform(0.0, 1.0, m)
    B = LinearMap(forward_difference_matrix(n))

    def f_value(x):
        u = A @ x
        return float(np.sum(u * np.log(u / b) - u + b))

    problem = SaddleProblem(
        f_grad=lambda x: A.T @ np.log(A @ x / b),
        h_star_grad=lambda mu: np.zeros(n - 1),
        g_prox=kl_prox_simplex,
        l_star_prox=lambda mu, v, nu: linf_ball_prox(mu, v, nu, beta),
        coupling=B,
        L_p=float(A.sum(axis=0).max()),
        L_d=0.0,
        f_value=f_value,
        h_star_value=None,
        primal_feasible=lambda x: bool(np.all(x >= 0) and abs(x.sum() - 1) <= 1e-9),
        dual_feasible=lambda mu: bool(np.abs(mu).max() <= beta + 1e-12),
        f_partial_grad=lambda idx, x: A[idx].T @ np.log(A[idx] @ x / b[idx]),
    )
    schedule = StepSchedule(*default_step_sizes(problem.L_p, 0.0, operator_norm(B)))
    state = initial_state(BregmanPoint.from_positive_coords(np.full(n, 1.0 / n)),
                          np.zeros(n - 1))
    return problem, schedule, state


def test_default_step_sizes_values():
    assert default_step_sizes(6.0, 0.0, 2.0) == (0.125, 0.5)
    assert default_step_sizes(0.0, 0.0, 1.0) == (1.0, 1.0)


def test_default_step_sizes_errors():
    with pytest.raises(ValueError):
        default_step_sizes(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        default_step_sizes(-1.0, 0.0, 1.0)


def test_step_schedule_rejects_nonpositive_steps():
    sched = StepSchedule(0.2, 0.5)
    assert (sched.lam, sched.nu) == (0.2, 0.5)
    for lam, nu in ((0.0, 0.5), (0.2, -1.0), (float("nan"), 0.5)):
        with pytest.raises(ValueError):
            StepSchedule(lam, nu)


def test_zero_problem_fixed_point():
    n = 5
    problem = SaddleProblem(
        f_grad=lambda x: np.zeros(n),
        h_star_grad=lambda mu: np.zeros(n - 1),
        g_prox=kl_prox_simplex,
        l_star_prox=lambda mu, v, nu: linf_ball_prox(mu, v, nu, 1.0),
        coupling=LinearMap(np.zeros((n - 1, n))),
        L_p=0.0,
        L_d=0.0,
        f_value=None,
        h_star_value=None,
        primal_feasible=lambda x: True,
        dual_feasible=lambda mu: True,
    )
    schedule = StepSchedule(1.0, 1.0)
    x0 = BregmanPoint.from_positive_coords([0.1, 0.2, 0.3, 0.15, 0.25])
    mu0 = np.array([0.5, -0.5, 0.25, 0.0])
    state = sbpd_step(problem, schedule, initial_state(x0, mu0))
    assert np.allclose(state.x.coords, x0.coords, atol=1e-14)
    assert np.array_equal(state.mu, mu0)
    assert asymptotic_residual(initial_state(x0, mu0), state) < 1e-13


def test_single_step_composes_prox_and_gradient():
    problem, schedule, state = tv_problem(2, 3, seed=0)
    out = sbpd_step(problem, schedule, state)
    expected = kl_prox_simplex(state.x, problem.f_grad(state.x.coords),
                               schedule.lam)
    assert np.array_equal(out.x.coords, expected.coords)
    assert out.k == 1


def test_iterates_stay_feasible():
    problem, schedule, state = tv_problem(8, 10, seed=1)
    for _ in range(500):
        state = sbpd_step(problem, schedule, state)
        assert np.all(state.x.coords > 0) or np.all(np.isfinite(state.x.log_coords))
        assert abs(np.exp(state.x.log_coords).sum() - 1.0) <= 1e-12
        assert np.abs(state.mu).max() <= 1.0


def test_ergodic_average_matches_direct_mean():
    problem, schedule, state = tv_problem(5, 6, seed=2)
    xs, mus = [], []
    for _ in range(10_000):
        state = sbpd_step(problem, schedule, state)
        xs.append(state.x.coords)
        mus.append(state.mu)
    direct_x = np.mean(xs, axis=0)
    direct_mu = np.mean(mus, axis=0)
    assert np.allclose(state.x_bar, direct_x, rtol=1e-10, atol=1e-13)
    assert np.allclose(state.mu_bar, direct_mu, rtol=1e-10, atol=1e-13)


def test_run_is_deterministic_bitwise():
    finals = []
    for _ in range(2):
        problem, schedule, state = tv_problem(7, 9, seed=3)
        oracle = GradientOracle("paper-partial", 3, 99, 9)
        state = run(problem, schedule, state, 200, oracle=oracle)
        finals.append(state)
    a, b = finals
    assert np.array_equal(a.x.coords, b.x.coords)
    assert np.array_equal(a.x.log_coords, b.x.log_coords)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.x_bar, b.x_bar)


def test_run_callback_early_stop():
    problem, schedule, state = tv_problem(4, 5, seed=4)
    seen = []
    state = run(problem, schedule, state, 100,
                callback=lambda prev, new: seen.append(new.k) or new.k >= 7)
    assert state.k == 7
    assert seen == list(range(1, 8))


def _nan_from_call(fn, j):
    # fn, except that calls j, j + 1, ... return NaN
    calls = []

    def wrapped(*args):
        calls.append(1)
        out = fn(*args)
        return np.full_like(out, np.nan) if len(calls) >= j else out
    return wrapped


def test_run_rejects_a_non_finite_final_state():
    problem, schedule, state = tv_problem(4, 5, seed=4)
    problem.f_grad = _nan_from_call(problem.f_grad, 30)
    with pytest.raises(DomainError, match="k = 50"):
        run(problem, schedule, state, 50)


def test_a_state_without_means_steps_to_states_without_means():
    problem, schedule, state = tv_problem(4, 5, seed=4)
    bare = dataclasses.replace(state, x_bar=None, mu_bar=None)
    seen = []
    out = run(problem, schedule, bare, 50, callback=lambda *pair: seen.extend(pair))
    assert len(seen) == 100 and out is seen[-1]
    assert all(s.x_bar is None and s.mu_bar is None for s in seen)
    # the iterates are bitwise those of a means-keeping run
    kept = run(problem, schedule, state, 50)
    assert [a.tobytes() for a in (out.x.coords, out.x.log_coords, out.mu)] == \
        [a.tobytes() for a in (kept.x.coords, kept.x.log_coords, kept.mu)]
    # and a NaN fails the final check at the same k as with means
    problem.f_grad = _nan_from_call(problem.f_grad, 30)
    with pytest.raises(DomainError, match="^x has non-finite entries at k = 50"):
        run(problem, schedule, bare, 50)


def test_slotted_states_and_points_replace_and_compare_as_values():
    # benchmarks/test_benchmark.py shifts a state with dataclasses.replace
    _, _, state = tv_problem(4, 5, seed=4)
    shifted = dataclasses.replace(state, k=7)
    assert type(shifted) is SolverState and shifted.k == 7 and state.k == 0
    assert all(getattr(shifted, name) is getattr(state, name)
               for name in ("x", "mu", "x_bar", "mu_bar"))
    point = dataclasses.replace(state.x, log_coords=None)
    assert type(point) is BregmanPoint and point.coords is state.x.coords
    assert point.log_coords is None and state.x.log_coords is not None
    # equality compares the field tuples, as for the frozen types before
    assert state == dataclasses.replace(state) and state != shifted
    assert state.x == BregmanPoint(state.x.coords, state.x.log_coords)
    assert point == BregmanPoint(state.x.coords)
    for value in (state, point):
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("k", [1, 2, 7, 1000, 2**40 + 1, 2**53 - 1])
def test_moved_means_in_place_are_the_recursion_bitwise(k):
    rng = np.random.default_rng(k % 1000)
    bar, new = rng.standard_normal((2, 3, 11)) * [[1.0], [1e-3], [1e8]]
    expected = bar + (new - bar) / k
    for out in (None, np.empty_like(bar), new.copy()):
        before = bar.copy()
        given = new if out is None else out
        given[...] = new
        moved = _moved_means(bar, k, given, out)
        assert moved.tobytes() == expected.tobytes()
        assert out is None or moved is out
        assert bar.tobytes() == before.tobytes()


def test_run_rejects_a_non_finite_state_at_an_early_stop():
    problem, schedule, state = tv_problem(4, 5, seed=4)
    problem.f_grad = _nan_from_call(problem.f_grad, 7)
    seen = []
    with pytest.raises(DomainError, match="k = 9"):
        run(problem, schedule, state, 100,
            callback=lambda prev, new: seen.append(new.k) or new.k >= 9)
    assert seen == list(range(1, 10))
    # stopped before the NaN entered, the run returns normally
    problem, schedule, state = tv_problem(4, 5, seed=4)
    problem.f_grad = _nan_from_call(problem.f_grad, 7)
    assert run(problem, schedule, state, 100,
               callback=lambda prev, new: new.k >= 6).k == 6


@pytest.mark.parametrize("mu0,error", [
    ([0.0, np.nan, 0.0], ValueError),
    ([[0.0, 0.0, 0.0]], ShapeError),
], ids=["nan", "two-dimensional"])
def test_initial_state_rejects_bad_mu0(mu0, error):
    x0 = BregmanPoint.from_positive_coords(np.full(4, 0.25))
    with pytest.raises(error, match="mu0"):
        initial_state(x0, mu0)


def test_three_dim_run_matches_half_step_reference():
    # independent reference: same problem solved with halved steps for
    # twice as long; both must land on the same primal solution
    problem, schedule, state = tv_problem(3, 4, seed=5, beta=0.02)
    main = run(problem, schedule, state, 60_000)
    half = StepSchedule(schedule.lam / 2, schedule.nu / 2)
    _, _, state2 = tv_problem(3, 4, seed=5, beta=0.02)
    ref = run(problem, half, state2, 120_000)
    assert np.abs(main.x.coords - ref.x.coords).sum() <= 1e-6


def feasible_refs(rng, n, beta, count):
    for _ in range(count):
        x = rng.dirichlet(np.ones(n))
        x = np.maximum(x, 1e-12)
        yield x / x.sum(), rng.uniform(-beta, beta, n - 1)


def test_estimate_inequality_stochastic_with_noise_term():
    problem, schedule, state = tv_problem(6, 8, seed=7)
    oracle = GradientOracle("paper-partial", 3, 11, 8)
    rng = np.random.default_rng(1)
    ref = next(iter(feasible_refs(rng, 6, 1.0, 1)))
    for _ in range(100):
        # recompute the noise of this step from (seed, k), then certify
        _, delta = oracle.grad_estimate(
            problem.f_grad, problem.f_partial_grad, state.x.coords, state.k)
        new = sbpd_step(problem, schedule, state, oracle)
        slack, scale = estimate_inequality_terms(
            problem, schedule, (state.x, state.mu), (new.x, new.mu), ref,
            k=state.k, primal_delta=delta)
        assert slack >= -1e-8 * scale
        state = new


def test_estimate_inequality_rejects_infeasible_ref():
    problem, schedule, state = tv_problem(4, 4, seed=8)
    new = sbpd_step(problem, schedule, state)
    with pytest.raises(DomainError):
        estimate_inequality_terms(problem, schedule, (state.x, state.mu),
                                  (new.x, new.mu),
                                  (np.array([0.5, 0.5, 0.5, 0.5]), np.zeros(3)))


def test_lagrangian_gap_identity_and_feasibility():
    problem, schedule, state = tv_problem(5, 5, seed=10)
    w = (state.x.coords, np.zeros(4))
    assert lagrangian_gap(problem, w, w) == 0.0
    with pytest.raises(DomainError):
        lagrangian_gap(problem, (np.full(5, 0.3), np.zeros(4)), w)
    with pytest.raises(DomainError):
        lagrangian_gap(problem, w, (state.x.coords, np.full(4, 5.0)))
    # C0 and the cross-term slack check their references as certificates
    # do: off the simplex, outside the ball
    for bad in ((np.full(5, 0.3), np.zeros(4)), (state.x.coords, np.full(4, 5.0))):
        with pytest.raises(DomainError, match="w_ref"):
            ergodic_rate_constant(problem, schedule, bad, w)
        for pair in ((bad, w), (w, bad)):
            with pytest.raises(DomainError, match="w_ref"):
                symmetrized_energy_slack(problem, schedule, *pair)


def test_reference_evaluator_gaps_a_euclidean_reference_without_an_energy():
    # on a box-constrained primal a reference with a negative entry has a
    # gap; only the KL energy (E_0 and certificates) rejects it
    T = LinearMap(np.array([[1.0, -2.0], [3.0, 4.0]]) / 3.0)
    problem = SaddleProblem(
        f_grad=lambda x: np.zeros(2), h_star_grad=lambda mu: np.zeros(2),
        g_prox=None, l_star_prox=None, coupling=T, L_p=0.0, L_d=0.0,
        f_value=None, h_star_value=None,
        primal_feasible=lambda x: bool(np.abs(x).max() <= 1.0),
        dual_feasible=lambda mu: bool(np.abs(mu).max() <= 1.0))
    ref = (np.array([0.9, -0.4]), np.array([0.1, 0.2]))
    w = (np.array([0.5, 0.5]), np.array([-0.3, 0.4]))
    # L(x, mu) = <Tx, mu> here
    expected = (T.matrix @ w[0]) @ ref[1] - (T.matrix @ ref[0]) @ w[1]
    assert lagrangian_gap(problem, w, ref) == pytest.approx(expected, abs=1e-15)
    with pytest.raises(DomainError, match="negative entries"):
        ergodic_rate_constant(problem, StepSchedule(0.3, 0.25), ref, w)


def test_reference_evaluator_failure_paths():
    problem, schedule, state = tv_problem(5, 5, seed=10)
    w = (state.x.coords, np.zeros(4))
    # an infeasible reference fails when the evaluator is built
    for bad_ref in ((np.full(5, 0.3), np.zeros(4)),
                    (state.x.coords, np.full(4, 5.0))):
        with pytest.raises(DomainError, match="w_ref"):
            ReferenceEvaluator(problem, schedule, bad_ref)
    evaluator = ReferenceEvaluator(problem, schedule, w)
    for bad_w in ((np.full(5, 0.3), np.zeros(4)),
                  (state.x.coords, np.full(4, 5.0))):
        with pytest.raises(DomainError, match="of w violates"):
            evaluator.gap(bad_w)


def test_reference_evaluator_shares_parts_and_matches_the_carried_terms():
    problem, schedule, state = tv_problem(6, 8, seed=4)
    rng = np.random.default_rng(2)
    ref = next(iter(feasible_refs(rng, 6, 1.0, 1)))
    evaluator = ReferenceEvaluator(problem, schedule, ref)
    for _ in range(20):
        new = sbpd_step(problem, schedule, state)
        w_k, w_n = (state.x, state.mu), (new.x, new.mu)
        gap, parts = evaluator.gap(w_n)
        assert gap == lagrangian_gap(problem, w_n, ref)
        assert evaluator.lagrangian(parts) == problem.lagrangian_eval(
            new.x.coords, new.mu)
        expected = estimate_inequality_terms(problem, schedule, w_k, w_n, ref)
        fresh = ReferenceEvaluator(problem, schedule, ref)
        # consecutive estimate_inequality_terms calls carry the energy, the
        # evaluators evaluate it
        assert evaluator.certificate(w_k, w_n, gap, parts=parts) == expected
        assert fresh.certificate(w_k, w_n, gap) == expected
        state = new


def _carry_case():
    """(problem, schedule, reference, five consecutive states (x, mu))."""
    problem, schedule, state = tv_problem(6, 8, seed=4)
    ref = next(iter(feasible_refs(np.random.default_rng(2), 6, 1.0, 1)))
    ws = [(state.x, state.mu)]
    for _ in range(4):
        state = sbpd_step(problem, schedule, state)
        ws.append((state.x, state.mu))
    return problem, schedule, ref, ws


def _certify(evaluator, w_k, w_next):
    return evaluator.certificate(w_k, w_next, evaluator.gap(w_next, check=False)[0])


def _fresh_certificate(problem, schedule, ref, w_k, w_next):
    return _certify(ReferenceEvaluator(problem, schedule, ref), w_k, w_next)


def test_certificate_carries_the_energy_to_the_next_step_only():
    problem, schedule, ref, ws = _carry_case()
    calls = _count_applies(problem)
    # step 1 follows step 0; step 3 skips step 2; step 1 comes out of order.
    # The first call builds the evaluator (T x_ref); every call applies
    # T x_next, shared by the gap and E_{k+1}, and T x_k unless E_k is carried
    for k, applies in ((0, 3), (1, 1), (3, 2), (1, 2)):
        expected = _fresh_certificate(problem, schedule, ref, ws[k], ws[k + 1])
        del calls[:]
        assert estimate_inequality_terms(
            problem, schedule, ws[k], ws[k + 1], ref) == expected
        assert len(calls) == applies


@pytest.mark.parametrize("changed", ["log x", "mu"])
def test_certificate_recomputes_a_state_changed_in_place(changed):
    problem, schedule, ref, ws = _carry_case()
    x, mu = ws[1]
    w1 = (BregmanPoint(x.coords.copy(), x.log_coords.copy()), mu.copy())
    estimate_inequality_terms(problem, schedule, ws[0], w1, ref)
    evaluator = ReferenceEvaluator(problem, schedule, ref)
    before = evaluator.energy(w1)
    if changed == "mu":
        w1[1][0] += 0.25
    else:
        w1[0].log_coords[0] -= 0.25
    assert evaluator.energy(w1) != before
    expected = _fresh_certificate(problem, schedule, ref, w1, ws[2])
    calls = _count_applies(problem)
    assert estimate_inequality_terms(problem, schedule, w1, ws[2], ref) == expected
    # E_1 was kept under the bytes w1 had before the change: T x_k is applied
    assert len(calls) == 2


def test_certificate_recomputes_a_state_without_log_coordinates():
    problem, schedule, ref, ws = _carry_case()
    estimate_inequality_terms(problem, schedule, ws[0], ws[1], ref)
    x, mu = ws[1]
    plain = (x.coords.copy(), mu.copy())
    expected = _fresh_certificate(problem, schedule, ref, plain, ws[2])
    calls = _count_applies(problem)
    assert estimate_inequality_terms(problem, schedule, plain, ws[2], ref) == expected
    assert len(calls) == 2


def test_certificate_of_one_evaluator_does_not_depend_on_the_call_order():
    problem, schedule, ref, ws = _carry_case()
    fresh = [tuple(v.hex() for v in _fresh_certificate(
        problem, schedule, ref, ws[k], ws[k + 1])) for k in range(4)]
    evaluator = ReferenceEvaluator(problem, schedule, ref)
    attributes = dict(vars(evaluator))
    calls = _count_applies(problem)
    for k in (0, 1, 2, 3, 3, 2, 1, 0, 1, 3, 0, 2, 2):
        del calls[:]
        slack, scale = _certify(evaluator, ws[k], ws[k + 1])
        assert (slack.hex(), scale.hex()) == fresh[k]
        # T x_next for the gap and for E_{k+1}, and T x_k, on every call
        assert len(calls) == 3
    assert vars(evaluator).keys() == attributes.keys()
    assert all(vars(evaluator)[name] is value for name, value in attributes.items())


def _energy_of(evaluator, w):
    return evaluator.energy(w)


def _energy_by_definition(problem, schedule, ref, point, mu):
    x_ref, mu_ref = ref
    dp = kl_divergence(x_ref, point)
    dd = euclidean_divergence(mu_ref, mu)
    cross = float(problem.coupling.apply(x_ref - point.coords) @ (mu_ref - mu))
    terms = (dp / schedule.lam, dd / schedule.nu, cross)
    return terms[0] + terms[1] - terms[2], 1.0 + max(abs(t) for t in terms)


def _energy_cases(rng, n):
    """(reference, point, mu) triples: references on the simplex, some with
    exact zeros, and points with log coordinates (some underflowing to 0)
    or plain arrays."""
    refs = list(feasible_refs(rng, n, 1.0, 4))
    zeros = rng.dirichlet(np.ones(n))
    zeros[[0, n // 2]] = 0.0
    refs.append((zeros / zeros.sum(), rng.uniform(-1.0, 1.0, n - 1)))
    points = []
    for _ in range(3):
        logs = np.log(rng.dirichlet(np.ones(n)))
        points.append(BregmanPoint(np.exp(logs), logs))
    logs = rng.uniform(-3.0, 0.0, n)
    logs[[1, n - 1]] = [-800.0, -760.0]  # exp underflows to exactly 0
    logs -= np.log(np.exp(logs).sum())
    points.append(BregmanPoint(np.exp(logs), logs))
    points.append(rng.dirichlet(np.ones(n)))
    for ref in refs:
        for point in points:
            yield ref, point, rng.uniform(-1.0, 1.0, n - 1)


def test_evaluator_energy_matches_its_definition():
    problem, schedule, _ = tv_problem(7, 9, seed=3)
    rng = np.random.default_rng(5)
    cases = list(_energy_cases(rng, 7))
    assert any(np.any(p.coords == 0.0) for _, p, _ in cases
               if isinstance(p, BregmanPoint))
    for ref, point, mu in cases:
        evaluator = ReferenceEvaluator(problem, schedule, ref)
        bp = point if isinstance(point, BregmanPoint) else BregmanPoint(point)
        expected, scale = _energy_by_definition(problem, schedule, ref, bp, mu)
        assert abs(_energy_of(evaluator, (point, mu)) - expected) <= 1e-13 * scale


def test_evaluator_energy_kl_term_is_kl_divergence_bitwise():
    # with T = 0, mu = mu_ref and lam = 1 the energy is the KL term alone
    problem, _, _ = tv_problem(7, 9, seed=3)
    problem = dataclasses.replace(problem, coupling=LinearMap(np.zeros((6, 7))))
    schedule = StepSchedule(1.0, 1.0)
    rng = np.random.default_rng(6)
    for ref, point, _ in _energy_cases(rng, 7):
        evaluator = ReferenceEvaluator(problem, schedule, ref)
        bp = point if isinstance(point, BregmanPoint) else BregmanPoint(point)
        assert _energy_of(evaluator, (point, ref[1])) == kl_divergence(ref[0], bp)


def test_evaluator_energy_rejects_bad_points():
    problem, schedule, state = tv_problem(5, 5, seed=10)
    evaluator = ReferenceEvaluator(problem, schedule, (state.x.coords, np.zeros(4)))
    short = BregmanPoint.from_positive_coords(np.full(4, 0.25))
    with pytest.raises(ShapeError):
        _energy_of(evaluator, (short, np.zeros(4)))
    with pytest.raises(ShapeError):
        _energy_of(evaluator, (np.full(4, 0.25), np.zeros(4)))
    with pytest.raises(ShapeError):
        _energy_of(evaluator, (state.x, np.zeros(3)))
    # a boundary point without log coordinates
    with pytest.raises(DomainError):
        _energy_of(evaluator, (np.array([0.0, 0.25, 0.25, 0.25, 0.25]), np.zeros(4)))


def _count_applies(problem):
    calls = []
    apply = problem.coupling.apply

    def counted(x):
        calls.append(1)
        return apply(x)

    problem.coupling.apply = counted
    return calls


def test_certificate_applies_the_coupling_once_per_point():
    problem, schedule, state = tv_problem(6, 8, seed=4)
    ref = next(iter(feasible_refs(np.random.default_rng(2), 6, 1.0, 1)))
    new = sbpd_step(problem, schedule, state)
    calls = _count_applies(problem)
    estimate_inequality_terms(problem, schedule, (state.x, state.mu),
                              (new.x, new.mu), ref)
    # T x_ref, T x_next (shared by the gap and the cross term), T x_k
    assert len(calls) == 3


def _memo_case(name):
    """(problem, schedule, state, reference, oracle) of one memo test case."""
    if name == "ot-inverse":
        ot = build_ot_inverse(12, seed=3)
        x0, mu0 = ot.initial_point()
        rng = np.random.default_rng(4)
        mu_ref = np.concatenate([rng.uniform(-1.0, 1.0, 12),
                                 rng.uniform(-ot.beta, ot.beta, 11)])
        return (ot.saddle_problem(), ot.default_schedule(),
                initial_state(x0, mu0), (rng.dirichlet(np.ones(12)), mu_ref), None)
    problem, schedule, state = tv_problem(6, 8, seed=7)
    ref = next(iter(feasible_refs(np.random.default_rng(1), 6, 1.0, 1)))
    oracle = GradientOracle("paper-partial", 3, 11, 8) if name == "tv-delta" else None
    return problem, schedule, state, ref, oracle


@pytest.mark.parametrize("name", ["tv-exact", "tv-delta", "ot-inverse"])
def test_estimate_inequality_memo_hit_matches_a_fresh_evaluator(name):
    problem, schedule, state, ref, oracle = _memo_case(name)
    calls = _count_applies(problem)
    for step in range(30):
        delta = None
        if oracle is not None:
            _, delta = oracle.grad_estimate(
                problem.f_grad, problem.f_partial_grad, state.x.coords, state.k)
        new = sbpd_step(problem, schedule, state, oracle)
        w_k, w_n = (state.x, state.mu), (new.x, new.mu)
        del calls[:]
        terms = estimate_inequality_terms(problem, schedule, w_k, w_n, ref,
                                          primal_delta=delta)
        # the first call builds the evaluator (T x_ref) and evaluates E_k
        # (T x_k); later calls hit and carry E_k from the previous call
        assert len(calls) == (3 if step == 0 else 1)
        fresh = ReferenceEvaluator(problem, schedule, ref)
        gap, parts = fresh.gap(w_n, check=False)
        expected = fresh.certificate(w_k, w_n, gap, primal_delta=delta,
                                     parts=parts)
        assert terms == expected
        assert certificate_holds(*terms)
        state = new


def test_estimate_inequality_memo_rechecks_a_reference_changed_in_place():
    problem, schedule, state = tv_problem(5, 5, seed=8)
    new = sbpd_step(problem, schedule, state)
    x_ref, mu_ref = state.x.coords.copy(), np.zeros(4)
    args = (problem, schedule, (state.x, state.mu), (new.x, new.mu))
    first = estimate_inequality_terms(*args, (x_ref, mu_ref))
    x_ref[:] = 0.3  # off the simplex
    with pytest.raises(DomainError, match="primal part of w_ref"):
        estimate_inequality_terms(*args, (x_ref, mu_ref))
    # the memo kept its own copy of the reference it checked
    assert estimate_inequality_terms(
        *args, (state.x.coords.copy(), np.zeros(4))) == first
    x_ref[:] = state.x.coords
    mu_ref[0] = 5.0  # outside the dual ball
    with pytest.raises(DomainError, match="dual part of w_ref"):
        estimate_inequality_terms(*args, (x_ref, mu_ref))


def test_estimate_inequality_memo_misses_on_another_problem_or_schedule():
    problem, schedule, state = tv_problem(6, 8, seed=4)
    ref = next(iter(feasible_refs(np.random.default_rng(2), 6, 1.0, 1)))
    new = sbpd_step(problem, schedule, state)
    w_k, w_n = (state.x, state.mu), (new.x, new.mu)
    calls = _count_applies(problem)
    first = estimate_inequality_terms(problem, schedule, w_k, w_n, ref)
    # an equal schedule and a copy of the reference hit
    estimate_inequality_terms(problem, StepSchedule(schedule.lam, schedule.nu),
                              w_k, w_n, (ref[0].copy(), ref[1].copy()))
    assert len(calls) == 3 + 2
    twin = dataclasses.replace(problem)
    assert estimate_inequality_terms(twin, schedule, w_k, w_n, ref) == first
    assert len(calls) == 5 + 3
    halved = StepSchedule(schedule.lam / 2, schedule.nu)
    terms = estimate_inequality_terms(twin, halved, w_k, w_n, ref)
    assert len(calls) == 8 + 3
    fresh = ReferenceEvaluator(twin, halved, ref)
    assert terms == fresh.certificate(w_k, w_n, fresh.gap(w_n)[0]) != first


def test_estimate_inequality_memo_keeps_at_most_one_problem_alive():
    problem, schedule, state = tv_problem(5, 5, seed=9)
    ref = (state.x.coords, np.zeros(4))
    w = (state.x, state.mu)
    estimate_inequality_terms(problem, schedule, w, w, ref)
    old = weakref.ref(problem)
    del problem
    gc.collect()
    assert old() is not None  # the memo holds the last problem
    other, _, _ = tv_problem(5, 5, seed=10)
    estimate_inequality_terms(other, schedule, w, w, ref)
    gc.collect()
    assert old() is None


def test_estimate_inequality_memo_is_shared_by_two_threads():
    # each thread certifies its own reference, so they evict each other's
    # entry: a barrier makes them take turns at every step, and a short
    # switch interval lets one preempt the other within a call
    problem, schedule, state = tv_problem(6, 8, seed=4)
    refs = list(feasible_refs(np.random.default_rng(2), 6, 1.0, 2))
    ws = [(state.x, state.mu)]
    for _ in range(200):
        state = sbpd_step(problem, schedule, state)
        ws.append((state.x, state.mu))
    results = [None, None]
    barrier = threading.Barrier(2, timeout=30)

    def certify(i):
        terms = []
        for k in range(200):
            barrier.wait()
            terms.append(estimate_inequality_terms(problem, schedule, ws[k],
                                                   ws[k + 1], refs[i]))
        results[i] = terms

    threads = [threading.Thread(target=certify, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for ref, result in zip(refs, results):
        fresh = ReferenceEvaluator(problem, schedule, ref)
        assert result == [_certify(fresh, ws[k], ws[k + 1]) for k in range(200)]


def test_certificate_holds_up_to_the_relative_tolerance():
    assert certificate_holds(0.0, 1.0)
    assert certificate_holds(-1e-8 * 3.0, 3.0)
    assert not certificate_holds(-1.01e-8 * 3.0, 3.0)
    assert not certificate_holds(float("nan"), 1.0)


def test_ergodic_rate_constant_nonnegative_and_hand_value():
    problem, schedule, state = tv_problem(5, 5, seed=11)
    rng = np.random.default_rng(3)
    w0 = (state.x, state.mu)
    for ref in feasible_refs(rng, 5, 1.0, 50):
        assert ergodic_rate_constant(problem, schedule, ref, w0) >= -1e-12
    # hand value at ref = w0: both divergences and the cross term vanish
    assert ergodic_rate_constant(problem, schedule,
                                 (state.x.coords, state.mu), w0) == 0.0


def test_asymptotic_residual_hand_value():
    problem, schedule, state = tv_problem(4, 4, seed=12)
    new = sbpd_step(problem, schedule, state)
    expected = (np.abs(new.x.coords - state.x.coords).sum()
                + np.linalg.norm(new.mu - state.mu))
    assert asymptotic_residual(state, new) == expected
