"""Entropies, Bregman divergences, and the D-prox mappings of the solver.

Two entropies are supported: the Shannon-Boltzmann entropy sum(x log x) on
the nonnegative orthant (0 log 0 = 0) and the Euclidean energy ||x||^2 / 2 on
the whole space. Simplex iterates are carried together with their logarithms
(``BregmanPoint``) so that the multiplicative prox update never leaves the
interior, no matter how large the drift is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_vector

__all__ = [
    "DomainError",
    "Entropy",
    "ShannonBoltzmann",
    "EuclideanEnergy",
    "BregmanPoint",
    "bregman_divergence",
    "three_point_identity_check",
    "kl_prox_simplex",
    "linf_ball_prox",
    "pinsker_slack",
]

SIMPLEX_SUM_TOL = 1e-9


class DomainError(ValueError):
    """Raised when a point lies outside an entropy's (interior) domain."""


class Entropy:
    """A convex entropy with value, gradient, and domain predicates."""

    kind = "abstract"

    def __init__(self, dimension):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def in_domain(self, x):
        raise NotImplementedError

    def in_interior(self, x):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dimension={self.dimension})"


class ShannonBoltzmann(Entropy):
    """phi(x) = sum_i x_i log x_i on the nonnegative orthant, 0 log 0 = 0."""

    kind = "shannon-boltzmann"

    def value(self, x):
        x = as_vector(x, self.dimension)
        if np.any(x < 0):
            raise DomainError("shannon-boltzmann requires nonnegative entries")
        pos = x > 0
        return float(np.sum(x[pos] * np.log(x[pos])))

    def gradient(self, x):
        x = as_vector(x, self.dimension)
        if np.any(x <= 0):
            raise DomainError("gradient needs strictly positive entries")
        return 1.0 + np.log(x)

    def in_domain(self, x):
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(np.isfinite(x)) and np.all(x >= 0))

    def in_interior(self, x):
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(np.isfinite(x)) and np.all(x > 0))


class EuclideanEnergy(Entropy):
    """phi(x) = ||x||^2 / 2 on all of R^n."""

    kind = "euclidean-energy"

    def value(self, x):
        x = as_vector(x, self.dimension)
        return 0.5 * float(x @ x)

    def gradient(self, x):
        return as_vector(x, self.dimension).copy()

    def in_domain(self, x):
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(np.isfinite(x)))

    in_interior = in_domain


@dataclass(frozen=True)
class BregmanPoint:
    """An iterate, optionally carrying log coordinates.

    ``log_coords`` is present exactly for Shannon-Boltzmann carriers; the
    multiplicative prox works on the logarithms and the coordinates are the
    exponentials (which may underflow to zero without harming the update).
    """

    coords: np.ndarray
    log_coords: np.ndarray | None = None

    @staticmethod
    def from_coords(x):
        """Euclidean-carrier point: coordinates only."""
        return BregmanPoint(as_vector(x, name="coords"))

    @staticmethod
    def from_positive_coords(x):
        """Interior simplex-carrier point; attaches logarithms."""
        x = as_vector(x, name="coords")
        if np.any(x <= 0):
            raise DomainError("log coordinates need strictly positive entries")
        return BregmanPoint(x, np.log(x))

    @property
    def dimension(self):
        return self.coords.shape[0]


def _kl_divergence(x, y, log_y=None):
    # sum x log(x/y) - x + y, with the 0 log 0 convention on the first slot
    lx = np.log(np.where(x > 0, x, 1.0))
    ly = np.log(y) if log_y is None else log_y
    terms = np.where(x > 0, x * (lx - ly), 0.0)
    return float(terms.sum() - x.sum() + y.sum())


def bregman_divergence(phi, x, y):
    """D_phi(x, y) = phi(x) - phi(y) - <grad phi(y), x - y>.

    ``x`` must lie in the domain of ``phi`` and ``y`` in its interior;
    a boundary ``y`` raises :class:`DomainError` instead of returning
    infinity, because the solver never legitimately produces one.

    A :class:`BregmanPoint` ``y`` (a solver iterate) skips the vector
    validation, and its log coordinates, when present, stand in for
    ``log y``: the value stays finite even where coordinates underflow.
    """
    kl = phi.kind == "shannon-boltzmann"
    log_y = None
    if isinstance(y, BregmanPoint):
        x = np.asarray(x, dtype=np.float64)
        y, log_y = y.coords, y.log_coords
        if kl:
            if np.any(x < 0):
                raise DomainError("x has negative entries")
            if log_y is None and np.any(y <= 0):
                raise DomainError("y is not interior and lacks log coordinates")
    else:
        x = as_vector(x, phi.dimension, "x")
        y = as_vector(y, phi.dimension, "y")
        if kl:
            if not phi.in_domain(x):
                raise DomainError("x outside the nonnegative orthant")
            if not phi.in_interior(y):
                raise DomainError(f"y is not in the interior domain of {phi.kind}")
    if kl:
        return _kl_divergence(x, y, log_y=log_y)
    diff = x - y
    return 0.5 * float(diff @ diff)


def three_point_identity_check(phi, x, y, z):
    """Residual of the three-point identity, zero in exact arithmetic.

    Returns |D(x,z) - D(x,y) - D(y,z) - <grad phi(y) - grad phi(z), x - y>|.
    """
    x = as_vector(x, phi.dimension, "x")
    y = as_vector(y, phi.dimension, "y")
    z = as_vector(z, phi.dimension, "z")
    lhs = bregman_divergence(phi, x, z)
    rhs = (bregman_divergence(phi, x, y) + bregman_divergence(phi, y, z)
           + float((phi.gradient(y) - phi.gradient(z)) @ (x - y)))
    return abs(lhs - rhs)


def kl_prox_simplex(x, v, lam):
    """Multiplicative (entropic) prox step on the probability simplex.

    Minimizes ``<v, u> + D_KL(u, x) / lam`` over the simplex. The minimizer
    is ``x_i exp(-lam v_i)`` renormalized; it is computed entirely in the
    log domain,

        log x' = (log x - lam v) - logsumexp(log x - lam v),

    with the log-sum-exp shifted by its largest term, so the output stays
    strictly interior for arbitrarily large drifts.

    Parameters
    ----------
    x : BregmanPoint
        Current interior point, must carry log coordinates.
    v : array_like
        Drift vector (gradient estimate plus coupling term).
    lam : float
        Step size, positive.

    Returns
    -------
    BregmanPoint
    """
    if lam <= 0:
        raise ValueError("step size must be positive")
    if x.log_coords is None:
        raise DomainError("kl_prox_simplex needs a point with log coordinates")
    v = as_vector(v, x.dimension, "v")
    z = x.log_coords - lam * v
    top = z.max()
    z = z - (top + np.log(np.exp(z - top).sum()))
    return BregmanPoint(np.exp(z), z)


def linf_ball_prox(mu, v, nu, beta):
    """Euclidean prox of the infinity-ball indicator: a clipped gradient step.

    Returns the componentwise clamp of ``mu - nu v`` to ``[-beta, beta]``,
    the exact minimizer of ``<v, u> + ||u - mu||^2 / (2 nu)`` over the ball.
    """
    if nu <= 0:
        raise ValueError("step size must be positive")
    if beta < 0:
        raise ValueError("ball radius must be nonnegative")
    mu = as_vector(mu, name="mu")
    v = as_vector(v, mu.shape[0], "v")
    return np.clip(mu - nu * v, -beta, beta)


def _check_simplex(x, name):
    if np.any(x < 0):
        raise DomainError(f"{name} has negative entries")
    if abs(x.sum() - 1.0) > SIMPLEX_SUM_TOL:
        raise DomainError(f"{name} does not sum to 1 (got {x.sum()!r})")


def pinsker_slack(x, y):
    """D_KL(x, y) - ||x - y||_1^2 / 2 for simplex vectors; nonnegative.

    ``y`` must be strictly positive; ``x`` may touch the boundary.
    """
    x = as_vector(x, name="x")
    y = as_vector(y, x.shape[0], "y")
    _check_simplex(x, "x")
    _check_simplex(y, "y")
    if np.any(y <= 0):
        raise DomainError("y must be strictly positive")
    l1 = float(np.abs(x - y).sum())
    return _kl_divergence(x, y) - 0.5 * l1 * l1
