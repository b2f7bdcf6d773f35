import dataclasses
import json

import numpy as np
import pytest

from sbpd.bregman import DomainError
from sbpd.experiment import ExperimentConfig
from sbpd.problems import (
    build_ot_inverse,
    build_simplex_tv,
    bump_kernel,
    compute_reference,
    kl_fidelity_grad,
    kl_fidelity_value,
    kl_rel_smooth_constant,
    ot_semidual_value_grad,
    reference_config_hash,
    simplex_tv_from_arrays,
)


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


# ----------------------------------------------------------------- builders

def test_build_simplex_tv_ranges_and_determinism():
    p1 = build_simplex_tv(50, 50, seed=7)
    p2 = build_simplex_tv(50, 50, seed=7)
    A, b = p1.A.matrix, p1.b
    assert A.shape == (50, 50)
    assert np.all(A >= 0.01) and np.all(A <= 1.01)
    assert np.all(b > 0) and np.all(b <= 1.0)
    assert p1.L_p == kl_rel_smooth_constant(A)
    assert np.array_equal(A, p2.A.matrix)
    assert np.array_equal(b, p2.b)
    assert build_simplex_tv(50, 50, seed=8).b[0] != b[0]


def test_build_simplex_tv_paper_scale():
    p = build_simplex_tv(250, 250, seed=0)
    assert p.n == p.m == 250
    assert p.B.output_dim == 249


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
    assert np.allclose(p.theta, p.F.apply(p.rho_truth), atol=1e-12)


def test_build_ot_inverse_structure():
    p = build_ot_inverse(108, seed=3)
    assert p.C.shape == (108, 108)
    assert p.C[0, 0] == 0.0
    assert p.C[0, 107] == 0.5 * 107.0**2
    assert abs(p.theta.sum() - 1.0) <= 1e-12
    assert np.all(p.theta >= 0)
    assert np.allclose(p.F.matrix.sum(axis=0), 1.0, atol=1e-12)
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


# ------------------------------------------------------------- coupling norm

def _difference_norm(n):
    return 2.0 * np.cos(np.pi / (2 * n))


@pytest.mark.parametrize("config,expected", [
    (ExperimentConfig(experiment="simplex-tv", n=50, m=50, seed=3),
     lambda p: _difference_norm(50)),
    (ExperimentConfig(experiment="custom", A=[[1.0, 0.2, 0.7]] * 4,
                      b=[0.5] * 4),
     lambda p: _difference_norm(3)),
    (ExperimentConfig(experiment="ot-inverse", n=108, seed=3),
     lambda p: np.linalg.norm(np.vstack([
         p.F.matrix, np.diff(np.eye(108), axis=0)]), 2)),
], ids=["simplex-tv", "custom", "ot-inverse"])
def test_coupling_norm_matches_independent_value(config, expected):
    problem = config.build_problem()
    assert problem.coupling_norm == pytest.approx(expected(problem), rel=1e-12)


# ---------------------------------------------------------------- reference

def test_reference_hash_covers_coupling_norm():
    problem = build_simplex_tv(6, 6, seed=13)
    other = dataclasses.replace(problem)
    other.__dict__["coupling_norm"] = problem.coupling_norm * (1.0 + 1e-12)
    assert other.descriptor() == problem.descriptor()
    assert (reference_config_hash(other, 1000, 13)
            != reference_config_hash(problem, 1000, 13))


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
