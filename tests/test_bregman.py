import numpy as np
import pytest

from sbpd.bregman import (
    BregmanPoint,
    DomainError,
    EuclideanEnergy,
    ShannonBoltzmann,
    bregman_divergence,
    kl_prox_simplex,
    linf_ball_prox,
    pinsker_slack,
    three_point_identity_check,
)


def random_simplex(rng, n, size=None):
    return rng.dirichlet(np.ones(n), size=size)


def interior_simplex(rng, n):
    x = rng.dirichlet(np.ones(n))
    while np.any(x <= 0):
        x = rng.dirichlet(np.ones(n))
    return x


# ---------------------------------------------------------------- entropies

def test_shannon_values():
    phi = ShannonBoltzmann(3)
    assert phi.value([1.0, 0.0, 0.0]) == 0.0
    phi2 = ShannonBoltzmann(2)
    assert phi2.value([0.5, 0.5]) == pytest.approx(-np.log(2.0), abs=1e-14)


def test_euclidean_value():
    phi = EuclideanEnergy(2)
    assert phi.value([3.0, 4.0]) == 12.5


def test_shannon_domain_errors():
    phi = ShannonBoltzmann(2)
    with pytest.raises(DomainError):
        phi.value([-0.1, 1.1])
    with pytest.raises(DomainError):
        phi.gradient([0.0, 1.0])


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-6
    for phi in (ShannonBoltzmann(6), EuclideanEnergy(6)):
        for _ in range(20):
            if phi.kind == "shannon-boltzmann":
                x = interior_simplex(rng, 6) + 0.05
            else:
                x = rng.standard_normal(6)
            g = phi.gradient(x)
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd = (phi.value(x + e) - phi.value(x - e)) / (2 * h)
                assert fd == pytest.approx(g[i], rel=1e-5, abs=1e-7)


def test_midpoint_convexity():
    rng = np.random.default_rng(1)
    for phi in (ShannonBoltzmann(5), EuclideanEnergy(5)):
        for _ in range(200):
            if phi.kind == "shannon-boltzmann":
                x, y = rng.random((2, 5)) + 1e-3
            else:
                x, y = rng.standard_normal((2, 5))
            mid = phi.value(0.5 * (x + y))
            assert mid <= 0.5 * (phi.value(x) + phi.value(y)) + 1e-12


# -------------------------------------------------------------- divergences

def test_divergence_identity_case():
    rng = np.random.default_rng(2)
    x = interior_simplex(rng, 4)
    assert bregman_divergence(ShannonBoltzmann(4), x, x) == pytest.approx(0.0, abs=1e-15)
    z = rng.standard_normal(4)
    assert bregman_divergence(EuclideanEnergy(4), z, z) == 0.0


def test_divergence_closed_forms():
    d = bregman_divergence(ShannonBoltzmann(2), [1.0, 0.0], [0.5, 0.5])
    assert d == pytest.approx(np.log(2.0), abs=1e-14)
    d2 = bregman_divergence(EuclideanEnergy(2), [1.0, 2.0], [0.0, 0.0])
    assert d2 == 2.5


def test_divergence_matches_definition():
    # direct route: phi(x) - phi(y) - <grad phi(y), x - y>
    rng = np.random.default_rng(3)
    phi = ShannonBoltzmann(5)
    for _ in range(200):
        x = interior_simplex(rng, 5)
        y = interior_simplex(rng, 5) + 1e-6
        y = y / y.sum()
        direct = phi.value(x) - phi.value(y) - phi.gradient(y) @ (x - y)
        assert bregman_divergence(phi, x, y) == pytest.approx(direct, rel=1e-9, abs=1e-11)


def test_divergence_nonnegative_sweep():
    rng = np.random.default_rng(4)
    phi_s = ShannonBoltzmann(8)
    phi_e = EuclideanEnergy(8)
    for _ in range(1000):
        x = random_simplex(rng, 8)
        y = interior_simplex(rng, 8) + 1e-9
        assert bregman_divergence(phi_s, x, y) >= -1e-13
        u, w = rng.standard_normal((2, 8))
        assert bregman_divergence(phi_e, u, w) >= 0.0


def test_divergence_boundary_y_raises():
    with pytest.raises(DomainError):
        bregman_divergence(ShannonBoltzmann(2), [0.5, 0.5], [1.0, 0.0])


def test_divergence_to_interior_point_matches_array_form():
    rng = np.random.default_rng(5)
    x = random_simplex(rng, 6)
    y = interior_simplex(rng, 6)
    phi = ShannonBoltzmann(6)
    assert bregman_divergence(phi, x, BregmanPoint.from_positive_coords(y)) == \
        bregman_divergence(phi, x, y)
    # a prox output carries log coordinates that only round-trip approximately
    p = kl_prox_simplex(BregmanPoint.from_positive_coords(y), rng.standard_normal(6), 0.3)
    assert bregman_divergence(phi, x, p) == pytest.approx(
        bregman_divergence(phi, x, p.coords), rel=1e-12, abs=1e-15)
    u, w = rng.standard_normal((2, 6))
    euclid = EuclideanEnergy(6)
    assert bregman_divergence(euclid, u, BregmanPoint.from_coords(w)) == \
        bregman_divergence(euclid, u, w)


def test_divergence_to_point_uses_log_coords_when_coords_underflow():
    log_y = np.array([0.0, -800.0])
    point = BregmanPoint(np.exp(log_y), log_y)
    assert point.coords[1] == 0.0
    d = bregman_divergence(ShannonBoltzmann(2), [0.5, 0.5], point)
    assert np.isfinite(d)
    assert d == pytest.approx(400.0 + np.log(0.5), rel=1e-14)
    with pytest.raises(DomainError):
        bregman_divergence(ShannonBoltzmann(2), [0.5, 0.5], point.coords)


@pytest.mark.parametrize("x,point", [
    # negative reference
    ([-0.1, 1.1], BregmanPoint.from_positive_coords([0.5, 0.5])),
    # boundary point without log coordinates
    ([0.5, 0.5], BregmanPoint(np.array([1.0, 0.0]))),
])
def test_divergence_to_point_domain_errors(x, point):
    with pytest.raises(DomainError):
        bregman_divergence(ShannonBoltzmann(2), x, point)


# -------------------------------------------------------------- three point

def test_three_point_degenerate():
    x = np.array([0.25, 0.75])
    assert three_point_identity_check(ShannonBoltzmann(2), x, x, x) == pytest.approx(0.0, abs=1e-15)


def test_three_point_euclidean_exact():
    rng = np.random.default_rng(5)
    phi = EuclideanEnergy(6)
    for _ in range(300):
        x, y, z = rng.standard_normal((3, 6))
        assert three_point_identity_check(phi, x, y, z) < 1e-12


def test_three_point_shannon():
    rng = np.random.default_rng(6)
    phi = ShannonBoltzmann(6)
    for _ in range(1000):
        x = random_simplex(rng, 6)
        y = interior_simplex(rng, 6) + 1e-6
        z = interior_simplex(rng, 6) + 1e-6
        resid = three_point_identity_check(phi, x, y, z)
        bound = 1e-10 * (1.0 + bregman_divergence(phi, x, z))
        assert resid <= bound


# ---------------------------------------------------------------- kl prox

def test_kl_prox_zero_drift_is_identity():
    x = BregmanPoint.from_positive_coords([0.2, 0.3, 0.5])
    out = kl_prox_simplex(x, np.zeros(3), 0.7)
    assert np.allclose(out.coords, x.coords, atol=1e-15)


def test_kl_prox_hand_value():
    x = BregmanPoint.from_positive_coords([0.5, 0.5])
    out = kl_prox_simplex(x, [np.log(2.0), 0.0], 1.0)
    assert np.allclose(out.coords, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)


def test_kl_prox_constant_drift_invariance():
    x = BregmanPoint.from_positive_coords(np.full(5, 0.2))
    out = kl_prox_simplex(x, np.full(5, 3.7), 2.0)
    assert np.allclose(out.coords, 0.2, atol=1e-14)


def test_kl_prox_output_contract():
    rng = np.random.default_rng(7)
    for _ in range(200):
        x = BregmanPoint.from_positive_coords(interior_simplex(rng, 10))
        v = rng.standard_normal(10) * rng.uniform(0.1, 100.0)
        out = kl_prox_simplex(x, v, rng.uniform(1e-3, 10.0))
        assert np.all(out.log_coords > -np.inf)
        assert abs(np.exp(out.log_coords).sum() - 1.0) <= 1e-12
        assert np.allclose(out.coords, np.exp(out.log_coords))


def test_kl_prox_survives_huge_drift():
    x = BregmanPoint.from_positive_coords([0.25, 0.25, 0.5])
    out = kl_prox_simplex(x, [1e6, -1e6, 0.0], 1.0)
    assert np.isfinite(out.log_coords).all()
    assert abs(out.coords.sum() - 1.0) <= 1e-12


def test_kl_prox_optimality_against_grid():
    # independent oracle: dense simplex grid minimization of the prox objective
    rng = np.random.default_rng(8)
    step = 1e-3
    ii = np.arange(0, 1001)
    blocks = []
    for i in ii:
        j = np.arange(0, 1000 - i + 1)
        blocks.append(np.stack([np.full_like(j, i), j, 1000 - i - j], axis=1))
    grid = np.vstack(blocks).astype(float) * step
    for _ in range(5):
        x = interior_simplex(rng, 3)
        xp = BregmanPoint.from_positive_coords(x)
        v = rng.standard_normal(3)
        lam = rng.uniform(0.2, 2.0)
        out = kl_prox_simplex(xp, v, lam)
        kl = np.sum(np.where(grid > 0, grid * (np.log(np.maximum(grid, 1e-300)) - np.log(x)), 0.0), axis=1)
        obj = grid @ v + kl / lam
        best = grid[np.argmin(obj)]
        assert np.abs(best - out.coords).sum() <= 4 * step


def test_kl_prox_parameter_errors():
    x = BregmanPoint.from_positive_coords([0.5, 0.5])
    with pytest.raises(ValueError):
        kl_prox_simplex(x, [0.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        kl_prox_simplex(x, [np.inf, 0.0], 1.0)
    with pytest.raises(DomainError):
        kl_prox_simplex(BregmanPoint.from_coords([0.5, 0.5]), [0.0, 0.0], 1.0)


# ------------------------------------------------------------- ball prox

def test_ball_prox_interior_identity():
    mu = np.array([0.3, -0.4])
    out = linf_ball_prox(mu, np.zeros(2), 1.0, 1.0)
    assert np.array_equal(out, mu)


def test_ball_prox_clips():
    assert np.array_equal(linf_ball_prox([2.0, -3.0], [0.0, 0.0], 1.0, 1.0), [1.0, -1.0])
    assert np.array_equal(linf_ball_prox([0.0, 0.0], [-5.0, 5.0], 1.0, 2.0), [2.0, -2.0])


def test_ball_prox_against_1d_grid():
    rng = np.random.default_rng(9)
    beta = 1.5
    u = np.linspace(-beta, beta, 3001)
    for _ in range(50):
        mu = rng.uniform(-2, 2, 4)
        v = rng.standard_normal(4)
        nu = rng.uniform(0.1, 3.0)
        out = linf_ball_prox(mu, v, nu, beta)
        for i in range(4):
            obj = v[i] * u + (u - mu[i]) ** 2 / (2 * nu)
            best = u[np.argmin(obj)]
            assert abs(best - out[i]) <= (u[1] - u[0]) * 1.01
        assert np.abs(out).max() <= beta


def test_ball_prox_parameter_errors():
    with pytest.raises(ValueError):
        linf_ball_prox([0.0], [0.0], -1.0, 1.0)
    with pytest.raises(ValueError):
        linf_ball_prox([0.0], [0.0], 1.0, -0.5)


# ---------------------------------------------------------------- pinsker

def test_pinsker_identity_case():
    x = np.array([0.25, 0.25, 0.5])
    assert pinsker_slack(x, x) == 0.0


def test_pinsker_closed_form():
    val = pinsker_slack([1.0, 0.0], [0.5, 0.5])
    assert val == pytest.approx(np.log(2.0) - 0.5, abs=1e-14)


def test_pinsker_sweep():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        n = rng.integers(2, 12)
        x = random_simplex(rng, n)
        y = interior_simplex(rng, n)
        assert pinsker_slack(x, y) >= -1e-12


def test_pinsker_domain_errors():
    with pytest.raises(DomainError):
        pinsker_slack([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(DomainError):
        pinsker_slack([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(DomainError):
        pinsker_slack([-0.1, 1.1], [0.5, 0.5])
