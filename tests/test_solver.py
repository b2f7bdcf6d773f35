import numpy as np
import pytest

from sbpd.bregman import (
    BregmanPoint,
    DomainError,
    EuclideanEnergy,
    ShannonBoltzmann,
    kl_prox_simplex,
    linf_ball_prox,
)
from sbpd.linalg import DenseMatrixMap, ForwardDifferenceMap, operator_norm
from sbpd.oracle import GradientOracle
from sbpd.solver import (
    SaddleProblem,
    StepSchedule,
    asymptotic_residual,
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
    B = ForwardDifferenceMap(n)

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
        phi_p=ShannonBoltzmann(n),
        phi_d=EuclideanEnergy(n - 1),
        lagrangian_eval=lambda x, mu: f_value(x) + float(B.apply(x) @ mu),
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
    lam, nu = default_step_sizes(6.0, 0.0, 2.0, safety=0.5)
    assert (lam, nu) == (0.0625, 0.25)


def test_default_step_sizes_errors():
    with pytest.raises(ValueError):
        default_step_sizes(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        default_step_sizes(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        default_step_sizes(1.0, 0.0, 1.0, safety=1.5)


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
        coupling=DenseMatrixMap(np.zeros((n - 1, n))),
        L_p=0.0,
        L_d=0.0,
        phi_p=ShannonBoltzmann(n),
        phi_d=EuclideanEnergy(n - 1),
        lagrangian_eval=lambda x, mu: 0.0,
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
    assert out.x_prev is state.x


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


def test_three_dim_run_matches_half_step_reference():
    # independent reference: same problem solved with halved steps for
    # twice as long; both must land on the same primal solution
    problem, schedule, state = tv_problem(3, 4, seed=5, beta=0.02)
    main = run(problem, schedule, state, 60_000)
    half = StepSchedule(schedule.lam / 2, schedule.nu / 2)
    _, _, state2 = tv_problem(3, 4, seed=5, beta=0.02)
    ref = run(problem, half, state2, 120_000)
    assert np.abs(main.x.coords - ref.x.coords).sum() <= 1e-6


def test_classical_primal_dual_degeneration():
    # euclidean entropies, f = h* = 0, box primal and ball dual constraints:
    # the step must reproduce the classical over-relaxed update formulas
    T = DenseMatrixMap(np.array([[1.0, -2.0], [3.0, 4.0]]) / 3.0)
    lam, nu = 0.3, 0.25
    beta = 0.7
    problem = SaddleProblem(
        f_grad=lambda x: np.zeros(2),
        h_star_grad=lambda mu: np.zeros(2),
        g_prox=lambda p, v, l: BregmanPoint.from_coords(
            np.clip(p.coords - l * v, -1.0, 1.0)),
        l_star_prox=lambda mu, v, n_: linf_ball_prox(mu, v, n_, beta),
        coupling=T,
        L_p=0.0,
        L_d=0.0,
        phi_p=EuclideanEnergy(2),
        phi_d=EuclideanEnergy(2),
        lagrangian_eval=lambda x, mu: float(T.apply(x) @ mu),
        primal_feasible=lambda x: bool(np.abs(x).max() <= 1.0 + 1e-12),
        dual_feasible=lambda mu: bool(np.abs(mu).max() <= beta + 1e-12),
    )
    schedule = StepSchedule(lam, nu)
    state = initial_state(BregmanPoint.from_coords([0.9, -0.4]),
                          np.array([0.1, 0.2]))
    x_hand = np.array([0.9, -0.4])
    mu_hand = np.array([0.1, 0.2])
    M = T.matrix
    for _ in range(5):
        state = sbpd_step(problem, schedule, state)
        x_new = np.clip(x_hand - lam * (M.T @ mu_hand), -1.0, 1.0)
        mu_hand = np.clip(mu_hand + nu * (M @ (2 * x_new - x_hand)), -beta, beta)
        x_hand = x_new
        assert np.abs(state.x.coords - x_hand).max() <= 1e-12
        assert np.abs(state.mu - mu_hand).max() <= 1e-12


def feasible_refs(rng, n, beta, count):
    for _ in range(count):
        x = rng.dirichlet(np.ones(n))
        x = np.maximum(x, 1e-12)
        yield x / x.sum(), rng.uniform(-beta, beta, n - 1)


def test_estimate_inequality_deterministic_run():
    problem, schedule, state = tv_problem(6, 6, seed=6)
    rng = np.random.default_rng(0)
    refs = list(feasible_refs(rng, 6, 1.0, 5))
    for _ in range(100):
        new = sbpd_step(problem, schedule, state)
        for ref in refs:
            slack, scale = estimate_inequality_terms(
                problem, schedule, (state.x, state.mu), (new.x, new.mu), ref,
                k=state.k)
            assert slack >= -1e-8 * scale
        state = new


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


def test_symmetrized_energy_nonnegative():
    problem, schedule, _ = tv_problem(6, 6, seed=9)
    rng = np.random.default_rng(2)
    pairs = zip(feasible_refs(rng, 6, 1.0, 300), feasible_refs(rng, 6, 1.0, 300))
    for w1, w2 in pairs:
        assert symmetrized_energy_slack(problem, schedule, w1, w2) >= -1e-10


def test_lagrangian_gap_identity_and_feasibility():
    problem, schedule, state = tv_problem(5, 5, seed=10)
    w = (state.x.coords, np.zeros(4))
    assert lagrangian_gap(problem, w, w) == 0.0
    with pytest.raises(DomainError):
        lagrangian_gap(problem, (np.full(5, 0.3), np.zeros(4)), w)
    with pytest.raises(DomainError):
        lagrangian_gap(problem, w, (state.x.coords, np.full(4, 5.0)))


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
