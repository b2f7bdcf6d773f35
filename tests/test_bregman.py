import numpy as np
import pytest

from sbpd.bregman import (
    BregmanPoint,
    DomainError,
    euclidean_divergence,
    kl_divergence,
    kl_prox_simplex,
    linf_ball_prox,
    pinsker_slack,
    simplex_violation,
    three_point_identity_check,
)
from sbpd.linalg import ShapeError


def random_simplex(rng, n, size=None):
    return rng.dirichlet(np.ones(n), size=size)


def interior_simplex(rng, n):
    x = rng.dirichlet(np.ones(n))
    while np.any(x <= 0):
        x = rng.dirichlet(np.ones(n))
    return x


# -------------------------------------------------------------- divergences

def test_divergence_identity_case():
    rng = np.random.default_rng(2)
    x = interior_simplex(rng, 4)
    assert kl_divergence(x, x) == pytest.approx(0.0, abs=1e-15)
    z = rng.standard_normal(4)
    assert euclidean_divergence(z, z) == 0.0


def test_divergence_closed_forms():
    d = kl_divergence([1.0, 0.0], [0.5, 0.5])
    assert d == pytest.approx(np.log(2.0), abs=1e-14)
    d2 = euclidean_divergence([1.0, 2.0], [0.0, 0.0])
    assert d2 == 2.5
    with pytest.raises(ShapeError):
        euclidean_divergence([1.0, 2.0], [0.0])


def test_divergence_matches_definition():
    # direct route: phi(x) - phi(y) - <grad phi(y), x - y> for the Shannon
    # entropy phi(x) = sum x log x, whose gradient is 1 + log x
    rng = np.random.default_rng(3)

    def phi(x):
        return float(np.sum(x * np.log(x)))

    for _ in range(200):
        x = interior_simplex(rng, 5)
        y = interior_simplex(rng, 5) + 1e-6
        y = y / y.sum()
        direct = phi(x) - phi(y) - (1.0 + np.log(y)) @ (x - y)
        assert kl_divergence(x, y) == pytest.approx(direct, rel=1e-9, abs=1e-11)


def test_divergence_boundary_y_raises():
    with pytest.raises(DomainError):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_divergence_to_interior_point_matches_array_form():
    rng = np.random.default_rng(5)
    x = random_simplex(rng, 6)
    y = interior_simplex(rng, 6)
    assert kl_divergence(x, BregmanPoint.from_positive_coords(y)) == kl_divergence(x, y)
    # a prox output carries log coordinates that only round-trip approximately
    p = kl_prox_simplex(BregmanPoint.from_positive_coords(y), rng.standard_normal(6), 0.3)
    assert kl_divergence(x, p) == pytest.approx(
        kl_divergence(x, p.coords), rel=1e-12, abs=1e-15)
    # a point without log coordinates falls back to log y
    assert kl_divergence(x, BregmanPoint.from_coords(y)) == kl_divergence(x, y)


def test_divergence_to_point_uses_log_coords_when_coords_underflow():
    log_y = np.array([0.0, -800.0])
    point = BregmanPoint(np.exp(log_y), log_y)
    assert point.coords[1] == 0.0
    d = kl_divergence([0.5, 0.5], point)
    assert np.isfinite(d)
    assert d == pytest.approx(400.0 + np.log(0.5), rel=1e-14)
    with pytest.raises(DomainError):
        kl_divergence([0.5, 0.5], point.coords)


@pytest.mark.parametrize("x,point", [
    # negative reference
    ([-0.1, 1.1], BregmanPoint.from_positive_coords([0.5, 0.5])),
    # boundary point without log coordinates
    ([0.5, 0.5], BregmanPoint(np.array([1.0, 0.0]))),
])
def test_divergence_to_point_domain_errors(x, point):
    with pytest.raises(DomainError):
        kl_divergence(x, point)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_divergence_rejects_non_finite_x_on_both_paths(bad):
    # x is checked against a BregmanPoint as against an array
    y = [0.25, 0.75]
    for target in (y, BregmanPoint.from_positive_coords(y)):
        with pytest.raises(ValueError, match="non-finite"):
            kl_divergence([bad, 0.5], target)


@pytest.mark.parametrize("x", [[0.5], [0.2, 0.3, 0.5]])
def test_divergence_to_point_rejects_length_mismatch(x):
    # once broadcast: [0.5] against a 2-point returned 0.644
    point = BregmanPoint.from_positive_coords([0.25, 0.75])
    with pytest.raises(ShapeError):
        kl_divergence(x, point)


# -------------------------------------------------------------- three point

def test_three_point_degenerate():
    x = np.array([0.25, 0.75])
    assert three_point_identity_check(x, x, x) == pytest.approx(0.0, abs=1e-15)


def test_three_point_euclidean_exact():
    rng = np.random.default_rng(5)
    for _ in range(300):
        x, y, z = rng.standard_normal((3, 6))
        resid = (euclidean_divergence(x, z) - euclidean_divergence(x, y)
                 - euclidean_divergence(y, z) - (y - z) @ (x - y))
        assert abs(resid) < 1e-12


def test_three_point_shannon():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        x = random_simplex(rng, 6)
        y = interior_simplex(rng, 6) + 1e-6
        z = interior_simplex(rng, 6) + 1e-6
        resid = three_point_identity_check(x, y, z)
        bound = 1e-10 * (1.0 + kl_divergence(x, z))
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
    # the drift is not checked: an infinite entry leaves a -inf log
    # coordinate, which solver.run reports
    assert kl_prox_simplex(x, [np.inf, 0.0], 1.0).log_coords[0] == -np.inf
    with pytest.raises(DomainError):
        kl_prox_simplex(BregmanPoint.from_coords([0.5, 0.5]), [0.0, 0.0], 1.0)


@pytest.mark.parametrize("lam", [np.nan, -np.inf])
def test_kl_prox_rejects_a_nan_or_infinite_step_size(lam):
    x = BregmanPoint.from_positive_coords([0.5, 0.5])
    with pytest.raises(ValueError, match="step size must be positive"):
        kl_prox_simplex(x, [0.0, 0.0], lam)


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


@pytest.mark.parametrize("beta", [0.0, -0.0, 0.5, 1.0, np.inf])
def test_ball_prox_is_bitwise_the_clipped_step(beta):
    # the in-place clamp keeps np.clip's NaNs and its sign of zero on ties
    special = [np.nan, -np.nan, 0.0, -0.0, 0.5, -0.5, np.inf, -np.inf,
               1.5, -1.5, 5e-324, -5e-324]
    rng = np.random.default_rng(26)
    for _ in range(20):
        mu = rng.choice(special + list(rng.standard_normal(6)), 15)
        v = rng.choice([0.0, -0.0, 1.0, -2.0], 15)
        nu = float(rng.choice([0.5, 1.0]))
        expected = np.clip(mu - nu * v, -beta, beta)
        assert linf_ball_prox(mu, v, nu, beta).tobytes() == expected.tobytes()


def test_ball_prox_parameter_errors():
    with pytest.raises(ValueError):
        linf_ball_prox([0.0], [0.0], -1.0, 1.0)
    with pytest.raises(ValueError):
        linf_ball_prox([0.0], [0.0], 1.0, -0.5)


@pytest.mark.parametrize("nu, beta, message", [
    (np.nan, 1.0, "step size must be positive"),
    (1.0, np.nan, "ball radius must be nonnegative"),
    (np.nan, np.nan, "step size must be positive"),
])
def test_ball_prox_rejects_nan_parameters(nu, beta, message):
    with pytest.raises(ValueError, match=message):
        linf_ball_prox([0.0], [0.0], nu, beta)


# ---------------------------------------------------------------- pinsker

def test_pinsker_identity_case():
    x = np.array([0.25, 0.25, 0.5])
    assert pinsker_slack(x, x) == 0.0


def test_pinsker_closed_form():
    val = pinsker_slack([1.0, 0.0], [0.5, 0.5])
    assert val == pytest.approx(np.log(2.0) - 0.5, abs=1e-14)


def test_pinsker_domain_errors():
    with pytest.raises(DomainError):
        pinsker_slack([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(DomainError):
        pinsker_slack([0.5, 0.5], [1.0, 0.0])
    with pytest.raises(DomainError):
        pinsker_slack([-0.1, 1.1], [0.5, 0.5])


def test_simplex_violation_of_a_stack_names_its_first_row_off_the_simplex():
    # rows 2 and 3 are off; the message shows row 2's sum, as numpy's repr
    x = np.tile([0.25, 0.25, 0.5], (5, 1))
    assert simplex_violation(x) is None
    x[2, 2] = 0.6
    x[3, 2] = 0.7
    assert simplex_violation(x, "w") == "w does not sum to 1 (got np.float64(1.1))"
    assert simplex_violation(x[2]) == "x does not sum to 1 (got np.float64(1.1))"
    x[4, 0] = np.nan
    assert simplex_violation(x) == "x has negative entries"
