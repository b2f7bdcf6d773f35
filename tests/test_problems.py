import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

from sbpd.bregman import BregmanPoint, DomainError
from sbpd.experiment import ExperimentConfig
from sbpd.linalg import ShapeError, operator_norm
from sbpd.problems import (
    SimplexTVProblem,
    build_ot_inverse,
    build_simplex_tv,
    bump_kernel,
    compute_reference,
    kl_fidelity_grad,
    kl_fidelity_value,
    kl_rel_smooth_constant,
    ot_semidual_value_grad,
    reference_config_hash,
    semidual_kernel,
    simplex_tv_from_arrays,
)
from sbpd.solver import SolverState, _advance, _bare_state, initial_state, run, sbpd_step


# ----------------------------------------------------------------- fidelity

def test_fidelity_zero_at_exact_data():
    rng = np.random.default_rng(0)
    A = rng.uniform(0.01, 1.01, (4, 3))
    x = rng.dirichlet(np.ones(3))
    b = A @ x
    assert kl_fidelity_value(A, b, x) == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(kl_fidelity_grad(A, b, x), 0.0, atol=1e-14)


def test_fidelity_gradient_scalar_case():
    A = np.array([[2.0]])
    assert kl_fidelity_grad(A, np.array([1.0]), np.array([0.5]))[0] == 0.0


def test_fidelity_gradient_finite_differences():
    rng = np.random.default_rng(1)
    A = rng.uniform(0.01, 1.01, (7, 5))
    b = 1.0 - rng.uniform(0.0, 1.0, 7)
    h = 1e-6
    for _ in range(10):
        x = rng.dirichlet(np.ones(5)) + 0.01
        g = kl_fidelity_grad(A, b, x)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd = (kl_fidelity_value(A, b, x + e)
                  - kl_fidelity_value(A, b, x - e)) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-8)


def test_rel_smooth_constant_values():
    assert kl_rel_smooth_constant(np.eye(5)) == 1.0
    assert kl_rel_smooth_constant([[1.0, 2.0], [3.0, 4.0]]) == 6.0


def test_rel_smooth_constant_rejects_bad_matrices():
    with pytest.raises(ValueError):
        kl_rel_smooth_constant([[1.0, -2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        kl_rel_smooth_constant([[1.0, 2.0], [0.0, 0.0]])


# ----------------------------------------------------------------- semidual

def test_semidual_collapses_when_cost_is_zero():
    rng = np.random.default_rng(7)
    tau = rng.standard_normal(5)
    theta = rng.dirichlet(np.ones(8))
    value, grad = ot_semidual_value_grad(tau, theta, np.zeros((5, 8)), 1.3)
    # closed forms: tempered log-sum-exp and softmax of tau
    weights = np.exp(tau / 1.3)
    assert value == pytest.approx(1.3 * np.log(weights.sum()), abs=1e-12)
    assert np.allclose(grad, weights / weights.sum(), atol=1e-12)
    v0, g0 = ot_semidual_value_grad(np.zeros(5), theta, np.zeros((5, 8)), 1.3)
    assert v0 == pytest.approx(1.3 * np.log(5), abs=1e-12)
    assert np.allclose(g0, 0.2, atol=1e-13)


def test_semidual_gradient_is_simplex_vector():
    rng = np.random.default_rng(8)
    n = 20
    idx = np.arange(n, dtype=float)
    C = 0.5 * (idx[:, None] - idx[None, :]) ** 2
    theta = rng.dirichlet(np.ones(n))
    for _ in range(50):
        tau = rng.standard_normal(n) * rng.uniform(0.1, 50)
        _, grad = ot_semidual_value_grad(tau, theta, C, 1.0)
        assert np.all(grad > 0)
        assert abs(grad.sum() - 1.0) <= 1e-12


def test_semidual_survives_huge_scaled_potentials():
    # gamma = 1e-3 and |tau| ~ 1e3 put |Z| = |tau - C| / gamma near 1e6
    rng = np.random.default_rng(10)
    n, gamma = 30, 1e-3
    idx = np.arange(n, dtype=float)
    C = 0.5 * (idx[:, None] - idx[None, :]) ** 2
    theta = rng.dirichlet(np.ones(n))
    tau = rng.uniform(-1e3, 1e3, n)
    Z = (tau[:, None] - C) / gamma
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(np.exp(Z)))   # an unshifted exp overflows
    value, grad = ot_semidual_value_grad(tau, theta, C, gamma)
    top = theta @ Z.max(axis=0)
    assert np.isfinite(value)
    assert gamma * top <= value <= gamma * (top + np.log(n))
    assert not np.any(np.isnan(grad))
    assert abs(grad.sum() - 1.0) <= 1e-12


def test_semidual_gradient_matches_value_finite_differences():
    rng = np.random.default_rng(9)
    n = 6
    C = rng.uniform(0, 3, (n, 4))
    theta = rng.dirichlet(np.ones(4))
    tau = rng.standard_normal(n)
    h = 1e-5
    _, grad = ot_semidual_value_grad(tau, theta, C, 0.8)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        vp, _ = ot_semidual_value_grad(tau + e, theta, C, 0.8)
        vm, _ = ot_semidual_value_grad(tau - e, theta, C, 0.8)
        assert (vp - vm) / (2 * h) == pytest.approx(grad[i], rel=1e-5, abs=1e-8)


def test_semidual_rejects_off_simplex_theta():
    with pytest.raises(DomainError):
        ot_semidual_value_grad(np.zeros(3), np.array([0.5, 0.6, 0.1]),
                               np.zeros((3, 3)), 1.0)


def _max_shift_semidual(tau, theta, C, gamma):
    # independent reference: the log-domain form over the whole matrix
    # Z = (tau - C) / gamma, each column shifted by its max
    Z = (tau[:, None] - C) / gamma
    top = Z.max(axis=0)
    E = np.exp(Z - top)
    s = E.sum(axis=0)
    return float(gamma * (theta @ (top + np.log(s)))), E @ (theta / s)


def _grid_cost(n):
    idx = np.arange(n, dtype=float)
    return 0.5 * (idx[:, None] - idx[None, :]) ** 2


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_semidual_matches_max_shift_form(gamma):
    # tolerances: value 1e-13 relative (1e-13 absolute near 0), gradient
    # 1e-14 absolute (a simplex vector); measured worst 2.2e-16 and 1.1e-16
    p = build_ot_inverse(108, seed=0, gamma=gamma)
    rng = np.random.default_rng(20)
    for _ in range(30):
        tau = rng.standard_normal(108) * rng.uniform(0.1, 20.0)
        value, grad = ot_semidual_value_grad(tau, p.theta, p.C, gamma)
        ref_value, ref_grad = _max_shift_semidual(tau, p.theta, p.C, gamma)
        assert value == pytest.approx(ref_value, rel=1e-13, abs=1e-13)
        assert np.abs(grad - ref_grad).max() <= 1e-14


@pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9], ids=["below", "above"])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_semidual_matches_max_shift_form_at_the_kernel_bound(gamma, side):
    # (max tau - min tau) / gamma = 300 (1 -+ 1e-9): the kernel form just
    # below the bound, the log-domain fallback just above it; tolerances as
    # in test_semidual_matches_max_shift_form
    C = _grid_cost(108)
    theta = np.random.default_rng(21).dirichlet(np.ones(108))
    tau = np.random.default_rng(22).uniform(0.0, 1.0, 108)
    tau = (tau - tau.min()) / (tau.max() - tau.min()) * 300.0 * side * gamma
    assert (tau.max() - tau.min()) / gamma == pytest.approx(300.0 * side, rel=1e-12)
    value, grad = ot_semidual_value_grad(tau, theta, C, gamma)
    ref_value, ref_grad = _max_shift_semidual(tau, theta, C, gamma)
    assert value == pytest.approx(ref_value, rel=1e-13)
    assert np.abs(grad - ref_grad).max() <= 1e-14
    assert abs(grad.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_semidual_under_column_cost_offsets(gamma):
    # adding offset_j to column j of C shifts the value by -theta . offset
    # and leaves the gradient alone; tolerances: value 1e-11 absolute
    # (about 6 ulps at the offsets' magnitude 1e4, measured 2.3e-13),
    # gradient 1e-14 absolute
    C = _grid_cost(108)
    rng = np.random.default_rng(23)
    theta = rng.dirichlet(np.ones(108))
    offset = rng.uniform(-1e4, 1e4, 108)
    with np.errstate(over="ignore"):
        unshifted = np.exp(-(C + offset) / gamma)
    # an unshifted kernel has all-zero columns and infinite entries
    assert np.any(unshifted.max(axis=0) == 0.0)
    assert not np.all(np.isfinite(unshifted))
    for _ in range(10):
        tau = rng.standard_normal(108) * 5.0
        value, grad = ot_semidual_value_grad(tau, theta, C, gamma)
        moved_value, moved_grad = ot_semidual_value_grad(tau, theta, C + offset,
                                                         gamma)
        assert abs(moved_value - (value - theta @ offset)) <= 1e-11
        assert np.abs(moved_grad - grad).max() <= 1e-14


def test_semidual_kernel_is_column_shifted():
    C = _grid_cost(12) + np.arange(12.0)
    K, c = semidual_kernel(C, 0.7)
    assert np.array_equal(c, C.min(axis=0))
    assert np.array_equal(K.max(axis=0), np.ones(12))
    # zero column minima leave exp(-C / gamma) bitwise as it was
    K0, c0 = semidual_kernel(_grid_cost(12), 0.7)
    assert np.array_equal(c0, np.zeros(12))
    assert np.array_equal(K0, np.exp(-_grid_cost(12) / 0.7))


_TINY = np.finfo(np.float64).tiny


def _exact_kernel(C, gamma):
    c = C.min(axis=0)
    return np.exp(-(C - c) / gamma), c


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
def test_semidual_kernel_drops_the_entries_below_tiny_e300(gamma):
    C = build_ot_inverse(108, seed=5, gamma=gamma).C
    K, c = semidual_kernel(C, gamma)
    exact, exact_c = _exact_kernel(C, gamma)
    assert np.array_equal(c, exact_c)
    assert not np.any((K > 0) & (K < _TINY * np.exp(300.0)))
    assert np.array_equal(K[K > 0], exact[K > 0])
    assert np.all(exact[K == 0] < 2.0 * _TINY * np.exp(300.0))
    assert np.array_equal(K.max(axis=0), np.ones(108))
    # the exact kernel of the benchmark size has a subnormal tail
    if gamma == 1.0:
        assert np.count_nonzero((exact > 0) & (exact < _TINY)) == 140


def _tau_with_spread(rng, n, spread, gamma):
    tau = rng.uniform(0.0, 1.0, n)
    return (tau - tau.min()) / (tau.max() - tau.min()) * spread * gamma


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_semidual_is_bitwise_that_of_the_exact_kernel(gamma):
    flushed = build_ot_inverse(108, seed=5, gamma=gamma)
    exact = build_ot_inverse(108, seed=5, gamma=gamma)
    exact.__dict__["kernel"] = _exact_kernel(exact.C, gamma)
    assert not np.array_equal(flushed.kernel[0], exact.kernel[0])
    rng = np.random.default_rng(24)
    for spread in (1.0, 20.0, 100.0, 299.0):
        for _ in range(5):
            tau = _tau_with_spread(rng, 108, spread, gamma)
            mu = np.concatenate([tau, np.zeros(107)])
            assert flushed.h_star_value(mu) == exact.h_star_value(mu)
            assert np.array_equal(flushed.h_star_grad(mu), exact.h_star_grad(mu))


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_kernel_products_are_normal_at_the_kernel_bound(gamma):
    # the products u_i K_ij of s = u K, at a spread just under 300
    C = _grid_cost(108)
    K, _ = semidual_kernel(C, gamma)
    tau = _tau_with_spread(np.random.default_rng(25), 108,
                           300.0 * (1.0 - 1e-9), gamma)
    u = np.exp((tau - tau.max()) / gamma)
    products = np.outer(u, K)
    assert products[products > 0].min() >= _TINY


def test_ot_inverse_iterates_are_bitwise_those_of_the_exact_kernel():
    states = []
    for flush in (True, False):
        p = build_ot_inverse(108, seed=5)
        if not flush:
            p.__dict__["kernel"] = _exact_kernel(p.C, p.gamma)
        state = run(p.saddle_problem(), p.default_schedule(),
                    initial_state(*p.initial_point()), 500)
        states.append([state.x.coords, state.mu, state.x_bar, state.mu_bar])
    for flushed, exact in zip(*states):
        assert flushed.tobytes() == exact.tobytes()


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_ot_dual_prox_is_bitwise_the_clipped_step(beta):
    n = 8
    p = build_ot_inverse(n, seed=2, beta=beta)
    special = [np.nan, -np.nan, 0.0, -0.0, 0.5, -0.5, np.inf, -np.inf,
               1.5, -1.5, 5e-324, -5e-324]
    rng = np.random.default_rng(26)
    for _ in range(20):
        mu = rng.choice(special + list(rng.standard_normal(6)), 2 * n - 1)
        v = rng.choice([0.0, -0.0, 1.0, -2.0], 2 * n - 1)
        nu = float(rng.choice([0.5, 1.0]))
        old = mu - nu * v
        old[n:] = np.clip(old[n:], -beta, beta)
        assert p.dual_prox(mu, v, nu).tobytes() == old.tobytes()


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf"),
                                   0.0, -1.0])
def test_semidual_rejects_bad_gamma(gamma):
    theta = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="gamma"):
        ot_semidual_value_grad(np.zeros(3), theta, np.zeros((3, 3)), gamma)
    with pytest.raises(ValueError, match="gamma"):
        build_ot_inverse(10, seed=0, gamma=gamma)


@pytest.mark.parametrize("beta", [float("nan"), -1.0, -float("inf")])
def test_builders_reject_bad_beta(beta):
    # NaN compares false with every bound, so a beta < 0 check lets it pass
    with pytest.raises(ValueError, match="beta"):
        build_simplex_tv(5, 5, 0, beta=beta)
    with pytest.raises(ValueError, match="beta"):
        build_ot_inverse(8, 0, beta=beta)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_semidual_rejects_non_finite_cost(bad):
    C = np.zeros((3, 3))
    C[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ot_semidual_value_grad(np.zeros(3), np.full(3, 1.0 / 3.0), C, 1.0)
    # the problem checks C once, when it is built
    p = build_ot_inverse(10, seed=0)
    C = p.C.copy()
    C[4, 7] = bad
    with pytest.raises(ValueError, match="non-finite"):
        dataclasses.replace(p, C=C)


@pytest.mark.parametrize("C", [np.zeros(3), np.zeros((1, 3, 3)), np.float64(0.0)],
                         ids=["1-d", "3-d", "scalar"])
def test_semidual_rejects_a_cost_that_is_not_a_matrix(C):
    shape = re.escape(str(np.shape(C)))
    with pytest.raises(ValueError, match=f"^cost matrix must be 2-d, got shape {shape}$"):
        ot_semidual_value_grad(np.zeros(3), np.full(3, 1.0 / 3.0), C, 1.0)


# ----------------------------------------------------------------- builders

def test_build_simplex_tv_ranges_and_determinism():
    p1 = build_simplex_tv(50, 50, seed=7)
    p2 = build_simplex_tv(50, 50, seed=7)
    A, b = p1.A, p1.b
    assert A.shape == (50, 50)
    assert np.all(A >= 0.01) and np.all(A <= 1.01)
    assert np.all(b > 0) and np.all(b <= 1.0)
    assert p1.L_p == kl_rel_smooth_constant(A)
    assert np.array_equal(A, p2.A)
    assert np.array_equal(b, p2.b)
    assert build_simplex_tv(50, 50, seed=8).b[0] != b[0]


def test_build_simplex_tv_paper_scale():
    p = build_simplex_tv(250, 250, seed=0)
    assert p.n == p.m == 250
    assert p.coupling.output_dim == 249


def test_simplex_tv_from_arrays_validation():
    with pytest.raises(ValueError):
        simplex_tv_from_arrays(np.array([[1.0, 0.0], [1.0, 1.0]]),
                               np.array([1.0, 1.0]), 1.0)
    with pytest.raises(ValueError):
        simplex_tv_from_arrays(np.ones((2, 2)), np.array([1.0, -1.0]), 1.0)
    with pytest.raises(ValueError):
        simplex_tv_from_arrays(np.ones((2, 2)), np.array([1.0, 1.0]), -0.1)


def test_full_gradient_equals_sum_of_partials():
    problem = build_simplex_tv(9, 7, seed=11)
    rng = np.random.default_rng(12)
    x = rng.dirichlet(np.ones(9))
    full = problem.f_grad(x)
    parts = sum(problem.f_partial_grad(np.array([i]), x) for i in range(7))
    assert np.allclose(full, parts, rtol=1e-12, atol=1e-14)


def test_bump_kernel_properties():
    k = bump_kernel(10)
    assert k.shape == (21,)
    assert np.all(k > 0)
    assert k[0] == k[-1]
    assert k.argmax() == 10


def test_build_ot_inverse_noiseless_observation():
    p = build_ot_inverse(40, seed=0, noise_level=0.0)
    assert np.allclose(p.theta, p.F @ p.rho_truth, atol=1e-12)


def test_build_ot_inverse_structure():
    p = build_ot_inverse(108, seed=3)
    assert p.C.shape == (108, 108)
    assert p.C[0, 0] == 0.0
    assert p.C[0, 107] == 0.5 * 107.0**2
    assert abs(p.theta.sum() - 1.0) <= 1e-12
    assert np.all(p.theta >= 0)
    assert np.allclose(p.F.sum(axis=0), 1.0, atol=1e-12)
    assert p.L_d == 1.0
    assert abs(p.rho_truth.sum() - 1.0) <= 1e-12
    # the two boxes do not touch
    support = np.flatnonzero(p.rho_truth)
    gaps = np.diff(support)
    assert gaps.max() > 1


def test_build_ot_inverse_determinism_and_validation():
    a = build_ot_inverse(24, seed=9, noise_level=0.3)
    b = build_ot_inverse(24, seed=9, noise_level=0.3)
    assert np.array_equal(a.theta, b.theta)
    with pytest.raises(ValueError):
        build_ot_inverse(3, seed=0)
    with pytest.raises(ValueError):
        build_ot_inverse(10, seed=0, gamma=0.0)
    with pytest.raises(ValueError):
        build_ot_inverse(10, seed=0, noise_level=1.5)


def test_ot_inverse_checks_its_data_at_construction():
    p = build_ot_inverse(10, seed=0)
    with pytest.raises(DomainError, match="theta"):
        dataclasses.replace(p, theta=np.full(10, 0.11))
    with pytest.raises(ShapeError, match="cost matrix"):
        dataclasses.replace(p, C=np.zeros((10, 11)))
    with pytest.raises(ShapeError, match="square"):
        dataclasses.replace(p, F=np.zeros((9, 10)))
    with pytest.raises(ValueError, match="gamma"):
        dataclasses.replace(p, gamma=0.0)
    with pytest.raises(ValueError, match="beta"):
        dataclasses.replace(p, beta=-1.0)


@pytest.mark.parametrize("field", ["C", "F", "theta"])
def test_ot_inverse_takes_list_data_as_float_arrays(tmp_path, field):
    # a list converts to the float64 array the builder passes, which passes
    # through as it is, so the reference and its hash are the same bytes
    p = build_ot_inverse(10, seed=0)
    assert all(getattr(dataclasses.replace(p), f) is getattr(p, f) for f in ("C", "F", "theta"))
    listed = dataclasses.replace(p, **{field: getattr(p, field).tolist()})
    assert getattr(listed, field).dtype == np.float64
    files = []
    for problem, name in ((p, "arrays"), (listed, "lists")):
        compute_reference(problem, 1000, 0, cache_dir=str(tmp_path / name))
        [path] = (tmp_path / name).glob("reference_*.json")
        files.append((path.name, path.read_bytes()))
    assert files[0] == files[1]


@pytest.mark.parametrize("field,value", [("C", np.nan), ("F", np.inf)])
def test_ot_inverse_rejects_non_finite_data_at_construction(field, value):
    p = build_ot_inverse(10, seed=0)
    data = getattr(p, field).copy()
    data[3, 4] = value
    with pytest.raises(ValueError, match=f"{field} contains non-finite entries"):
        dataclasses.replace(p, **{field: data})


def test_replaced_ot_inverse_steps_by_its_own_gamma():
    p = dataclasses.replace(build_ot_inverse(24, 1), gamma=0.1)
    assert p.L_d == 10.0
    assert p.default_schedule() == build_ot_inverse(24, 1, gamma=0.1).default_schedule()


def test_replaced_simplex_tv_steps_by_its_own_matrix():
    tv = build_simplex_tv(6, 5, seed=2)
    p = dataclasses.replace(tv, A=5 * tv.A)
    assert p.L_p == kl_rel_smooth_constant(5 * tv.A) != tv.L_p
    assert p.default_schedule() == simplex_tv_from_arrays(5 * tv.A, tv.b, 1.0).default_schedule()


@pytest.mark.parametrize("field,value", [
    ("A", np.array([[1.0, 0.0], [1.0, 1.0]])),
    ("b", np.array([1.0, 1.0, 1.0])),
    ("beta", float("nan")),
], ids=["nonpositive-A", "b-length", "nan-beta"])
def test_simplex_tv_checks_its_data_at_construction(field, value):
    data = {"A": np.ones((2, 2)), "b": np.ones(2), "beta": 1.0}
    SimplexTVProblem(**data)
    with pytest.raises(ValueError):
        SimplexTVProblem(**dict(data, **{field: value}))


def test_simplex_tv_converts_list_data():
    # list data once failed with an AttributeError on the missing .shape
    problem = SimplexTVProblem(A=[[1.0, 2.0], [1.0, 1.0]], b=[1.0, 1.0], beta=1.0)
    assert problem.A.dtype == problem.b.dtype == np.float64
    assert problem.descriptor() == simplex_tv_from_arrays(
        np.array([[1.0, 2.0], [1.0, 1.0]]), np.array([1.0, 1.0]), 1.0).descriptor()
    with pytest.raises(ValueError, match="A must be a matrix"):
        SimplexTVProblem(A=[1.0, 2.0], b=[1.0], beta=1.0)
    with pytest.raises(ValueError):
        SimplexTVProblem(A=[[1.0, 2.0], [1.0]], b=[1.0, 1.0], beta=1.0)


@pytest.mark.parametrize("key", ["L_p", "L_d", "B"])
def test_derived_constants_are_not_constructor_fields(key):
    tv, ot = build_simplex_tv(4, 4, seed=0), build_ot_inverse(8, 0)
    for problem in (tv, ot):
        with pytest.raises(TypeError):
            dataclasses.replace(problem, **{key: 1.0})
    with pytest.raises(TypeError):
        SimplexTVProblem(A=tv.A, b=tv.b, beta=1.0, **{key: 1.0})


def test_ot_inverse_run_rejects_a_non_finite_potential():
    # NaN only in the tau block of h*'s gradient: dual_feasible sees only
    # the zeta block, so the run's final check is what reports it
    p = build_ot_inverse(10, seed=0)
    calls = []

    def h_star_grad(mu):
        calls.append(1)
        grad = p.h_star_grad(mu)
        if len(calls) == 20:
            grad[:p.n] = np.nan
        return grad

    saddle = dataclasses.replace(p.saddle_problem(), h_star_grad=h_star_grad)
    state = initial_state(*p.initial_point())
    with pytest.raises(DomainError, match="non-finite"):
        run(saddle, p.default_schedule(), state, 40)


def test_ot_coupling_adjoint_matches_blockwise_sum():
    p = build_ot_inverse(108, seed=3)
    D = np.diff(np.eye(108), axis=0)
    rng = np.random.default_rng(0)
    rho = rng.standard_normal(108)
    tau = rng.standard_normal(108)
    zeta = rng.standard_normal(107)
    y = np.concatenate([tau, zeta])
    expected = p.F.T @ tau + D.T @ zeta
    assert np.allclose(p.coupling.adjoint_apply(y), expected, rtol=0, atol=1e-14)
    lhs = p.coupling.apply(rho) @ y
    rhs = rho @ p.coupling.adjoint_apply(y)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("config", [
    ExperimentConfig(experiment="simplex-tv", n=20, m=30, seed=3),
    ExperimentConfig(experiment="ot-inverse", n=24, seed=3),
], ids=["simplex-tv", "ot-inverse"])
def test_lagrangian_eval_is_bitwise_the_composition_of_its_parts(config):
    problem = config.build_problem()
    saddle = problem.saddle_problem()
    rng = np.random.default_rng(1)
    T = saddle.coupling
    for _ in range(20):
        x = rng.dirichlet(np.ones(problem.n))
        mu = rng.uniform(-problem.beta, problem.beta, T.matrix.shape[0])
        value = saddle.lagrangian_eval(x, mu)
        parts = saddle.parts(x, mu)
        if config.experiment == "simplex-tv":
            # h* vanishes identically: L = f(x) + <Tx, mu>
            assert parts.h is None
            assert value == problem.f_value(x) + float(T.apply(x) @ mu)
            assert value == parts.f + float(parts.Tx @ mu)
        else:
            # f vanishes identically: L = <Tx, mu> - h*(mu)
            assert parts.f is None
            assert value == float(T.apply(x) @ mu) - problem.h_star_value(mu)
            assert value == float(parts.Tx @ mu) - parts.h


def test_h_star_value_is_bitwise_the_semidual_value():
    p = build_ot_inverse(24, seed=3)
    rng = np.random.default_rng(6)
    for scale in (1.0, 50.0, 1e3):
        mu = scale * rng.standard_normal(47)
        value, _ = ot_semidual_value_grad(mu[:24], p.theta, p.C, p.gamma)
        assert p.h_star_value(mu) == value


def test_ot_kernel_is_built_at_the_first_semidual_call():
    p = build_ot_inverse(24, seed=3)
    p.saddle_problem()
    p.default_schedule()
    assert "kernel" not in p.__dict__
    p.h_star_grad(np.zeros(47))
    K, c = p.kernel
    assert np.array_equal(K, semidual_kernel(p.C, p.gamma)[0])


def test_h_star_grad_is_bitwise_the_semidual_gradient():
    # one fresh zero-padded array per call, byte for byte the semidual
    # gradient and n - 1 zeros: tau spreads of 299 and 301 take the kernel
    # form and the log-domain form
    p = build_ot_inverse(24, seed=3)
    rng = np.random.default_rng(5)
    mus = [scale * rng.standard_normal(47) for scale in (1.0, 50.0)]
    for spread in (299.0, 301.0):
        tau = _tau_with_spread(rng, 24, spread, p.gamma)
        assert ((tau.max() - tau.min()) / p.gamma > 300.0) == (spread > 300.0)
        mus.append(np.concatenate([tau, rng.standard_normal(23)]))
    for mu in mus:
        _, grad = ot_semidual_value_grad(mu[:24], p.theta, p.C, p.gamma)
        out = p.h_star_grad(mu)
        assert out.tobytes() == np.concatenate([grad, np.zeros(23)]).tobytes()
        assert not np.signbit(out[24:]).any()
        again = p.h_star_grad(mu)
        assert again is not out and not np.shares_memory(again, out)
        assert again.tobytes() == out.tobytes()


def _textbook_step(problem, saddle, schedule, state):
    # one step as the update reads, with ndarray.max and .sum, the dual
    # gradient padded by np.concatenate and a means-keeping successor from
    # _advance
    x, mu, T = state.x, state.mu, saddle.coupling.matrix
    if isinstance(problem, SimplexTVProblem):
        grad_p = problem.A.T @ np.log((problem.A @ x.coords) / problem.b)
        grad_d = np.zeros(problem.n - 1)
    else:
        grad_p = np.zeros(problem.n)
        tau, (K, _) = mu[:problem.n], problem.kernel
        assert (tau.max() - tau.min()) / problem.gamma <= 300.0  # the kernel form
        u = np.exp((tau - tau.max()) / problem.gamma)
        grad_d = np.concatenate([u * (K @ (problem.theta / (u @ K))),
                                 np.zeros(problem.n - 1)])
    z = x.log_coords - schedule.lam * (grad_p + T.T @ mu)
    top = z.max()
    z = z - (top + np.log(np.exp(z - top).sum()))
    x_next = BregmanPoint(np.exp(z), z)
    drift_d = grad_d - T @ (2.0 * x_next.coords - x.coords)
    mu_next = saddle.l_star_prox(mu, drift_d, schedule.nu)
    if state.x_bar is None:
        return SolverState(state.k + 1, x_next, mu_next, None, None)
    return _advance(state, x_next, mu_next)


@pytest.mark.parametrize("means", [False, True], ids=["means-free", "means-keeping"])
@pytest.mark.parametrize("problem", [build_simplex_tv(20, 30, seed=3),
                                     build_ot_inverse(108, seed=3)],
                         ids=["simplex-tv", "ot-inverse"])
def test_steps_are_bitwise_the_textbook_update(problem, means):
    saddle, schedule = problem.saddle_problem(), problem.default_schedule()
    start = (initial_state if means else _bare_state)(*problem.initial_point())
    stepped = textbook = start
    for k in range(1, 301):
        stepped = sbpd_step(saddle, schedule, stepped)
        textbook = _textbook_step(problem, saddle, schedule, textbook)
        assert stepped.k == textbook.k == k
        assert (stepped.x_bar is None) == (stepped.mu_bar is None) == (not means)
        for a, b in zip((stepped.x.coords, stepped.x.log_coords, stepped.mu,
                         stepped.x_bar, stepped.mu_bar),
                        (textbook.x.coords, textbook.x.log_coords, textbook.mu,
                         textbook.x_bar, textbook.mu_bar)):
            assert a is b is None or a.tobytes() == b.tobytes()


# ------------------------------------------------------------- coupling norm

def _assert_column_bound(problem, spectral_norm):
    # rho >= ||T||_{1->2}: rho^2 against each column's exact sum of squares
    # (zero entries add nothing); rho <= ||T||_2 (1 + 1e-12)
    rho = problem.coupling_norm
    M = problem.coupling.matrix
    sums = [Fraction(0)] * M.shape[1]
    for i, j in zip(*np.nonzero(M)):
        sums[j] += Fraction(M[i, j]) ** 2
    assert Fraction(rho) ** 2 >= max(sums)
    assert rho <= spectral_norm * (1.0 + 1e-12)


@pytest.mark.parametrize("config", [
    ExperimentConfig(experiment="simplex-tv", n=50, m=50, seed=3),
    ExperimentConfig(experiment="custom", A=[[1.0, 0.2, 0.7]] * 4, b=[0.5] * 4),
    ExperimentConfig(experiment="ot-inverse", n=108, seed=3),
], ids=["simplex-tv", "custom", "ot-inverse"])
def test_coupling_norm_bounds_the_largest_column_norm(config):
    problem = config.build_problem()
    _assert_column_bound(problem, operator_norm(problem.coupling))


def test_coupling_norm_bounds_every_forward_difference_column():
    for n in range(2, 400):
        problem = SimplexTVProblem(A=np.ones((1, n)), b=np.ones(1), beta=1.0)
        _assert_column_bound(problem, operator_norm(problem.coupling))


# ---------------------------------------------------------------- reference

def test_reference_hash_covers_coupling_norm():
    problem = build_simplex_tv(6, 6, seed=13)
    other = dataclasses.replace(problem)
    other.__dict__["coupling_norm"] = problem.coupling_norm * (1.0 + 1e-12)
    assert other.descriptor() == problem.descriptor()
    assert (reference_config_hash(other, 1000, 13)
            != reference_config_hash(problem, 1000, 13))


def _hash_with_descriptor(problem, descriptor, budget, seed):
    doc = dict(descriptor, budget=budget, seed=seed,
               coupling_norm=problem.coupling_norm)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_reference_hash_sees_the_semidual_form_on_ot_inverse_only():
    # simplex-tv keeps the descriptor it had before the kernel-form
    # semidual, so its cached references still hit; ot-inverse references
    # of the log-domain form must miss
    tv = build_simplex_tv(6, 6, seed=13)
    tv_before = {"kind": "simplex-tv", "n": 6, "m": 6, "beta": 1.0,
                 "data": "0f2682608154fee23a3554c977ea437374214f0bb0d09d86"
                         "9545b48fc5d10a5f"}
    assert tv.descriptor() == tv_before
    assert (reference_config_hash(tv, 1000, 13)
            == _hash_with_descriptor(tv, tv_before, 1000, 13))
    ot = build_ot_inverse(24, seed=3)
    descriptor = ot.descriptor()
    assert set(descriptor) == {"kind", "n", "gamma", "beta", "data", "semidual"}
    ot_before = {k: v for k, v in descriptor.items() if k != "semidual"}
    assert (reference_config_hash(ot, 1000, 3)
            != _hash_with_descriptor(ot, ot_before, 1000, 3))


def test_reference_cache_round_trip(tmp_path):
    problem = build_simplex_tv(6, 6, seed=13)
    ref1 = compute_reference(problem, 1000, seed=13, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("reference_*.json"))
    assert len(files) == 1
    raw = files[0].read_bytes()
    doc = json.loads(raw)
    assert set(doc) == {"config_hash", "iterations", "ref_tol", "x_star", "mu_star"}
    ref2 = compute_reference(problem, 1000, seed=13, cache_dir=str(tmp_path))
    assert files[0].read_bytes() == raw
    assert np.array_equal(ref1.x_star, ref2.x_star)
    assert np.array_equal(ref1.mu_star, ref2.mu_star)
    assert ref1.ref_tol == ref2.ref_tol
    assert (ref1.from_cache, ref2.from_cache) == (False, True)


def test_reference_feasible_and_converged(tmp_path):
    problem = build_simplex_tv(6, 6, seed=13)
    ref = compute_reference(problem, 2000, seed=13)
    assert np.all(ref.x_star > 0)
    assert abs(ref.x_star.sum() - 1.0) <= 1e-9
    assert np.abs(ref.mu_star).max() <= problem.beta + 1e-12
    assert ref.ref_tol < 1e-6


def test_reference_budget_doubling_self_consistency():
    problem = build_simplex_tv(6, 6, seed=14)
    ref = compute_reference(problem, 2000, seed=14)
    ref2 = compute_reference(problem, 4000, seed=14)
    assert np.abs(ref.x_star - ref2.x_star).sum() <= ref.ref_tol


def test_reference_rejects_tiny_budget():
    problem = build_simplex_tv(6, 6, seed=15)
    with pytest.raises(ValueError):
        compute_reference(problem, 10, seed=15)
