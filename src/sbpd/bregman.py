"""The two Bregman divergences of the solver and its D-prox mappings.

The primal lives on the probability simplex and is measured in the
Kullback-Leibler divergence, the Bregman divergence of the Shannon entropy
sum(x log x) (0 log 0 = 0); the dual is measured in half the squared
Euclidean distance. Simplex iterates are carried together with their
logarithms (``BregmanPoint``) so that the multiplicative prox update never
leaves the interior, no matter how large the drift is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, as_vector

__all__ = [
    "DomainError",
    "BregmanPoint",
    "kl_divergence",
    "euclidean_divergence",
    "three_point_identity_check",
    "kl_prox_simplex",
    "linf_ball_prox",
    "pinsker_slack",
    "simplex_violation",
]

SIMPLEX_SUM_TOL = 1e-9


class DomainError(ValueError):
    """Raised when a point lies outside a divergence's (interior) domain."""


@dataclass(slots=True)
class BregmanPoint:
    """An iterate with optional log coordinates; slotted, treated as a value.

    ``log_coords`` is present exactly for simplex iterates; the
    multiplicative prox works on the logarithms and the coordinates are the
    exponentials (which may underflow to zero without harming the update).
    A point ``kl_prox_simplex`` returns has ``coords`` exactly
    ``np.exp(log_coords)``; one from ``from_positive_coords`` keeps the
    coordinates it was given.
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


def kl_divergence(x, y):
    """D_KL(x, y) = sum x log(x/y) - x + y, with 0 log 0 = 0.

    ``x`` must be a finite nonnegative vector and ``y`` strictly positive; a
    boundary ``y`` raises :class:`DomainError` instead of returning
    infinity, because the solver never legitimately produces one.

    A :class:`BregmanPoint` ``y`` (a solver iterate) was checked when it was
    built, so of ``y`` only its length is compared. Its log coordinates,
    when present, stand in for ``log y``: the value stays finite even where
    coordinates underflow. A stacked point (R, n) gives the R divergences.
    """
    x = as_vector(x, name="x")
    if not isinstance(y, BregmanPoint):
        y = BregmanPoint(as_vector(y, x.shape[0], "y"))
    return _kl_to_point(x, *_kl_terms(x), y)


def _kl_terms(x):
    """log x (0 log 0 = 0) and sum x of a nonnegative x (a NaN is not)."""
    if not (x >= 0).all():
        raise DomainError("x has negative entries")
    return np.log(np.where(x > 0, x, 1.0)), x.sum()


def _kl_to_point(x, log_x, sum_x, point):
    """D_KL(x, y), y from ``point``, given ``_kl_terms(x)``.

    The lengths are compared, and without log coordinates y must be
    strictly positive; the log coordinates are finite, so a zero entry of x
    adds a zero term. The solver's energy calls this with the terms of a
    fixed x computed once. A stack y of shape (R, n) gives the R divergences
    as an array, each bitwise its row's (the sums reduce along the last axis).
    """
    y, log_y = point.coords, point.log_coords
    if x.shape != y.shape[-1:] or y.ndim > 2:
        raise ShapeError(f"y must be a vector of the length of x or a stack "
                         f"of them, got shapes {x.shape} and {y.shape}")
    if log_y is None:
        if (y <= 0).any():
            raise DomainError("y has nonpositive entries and no log coordinates")
        log_y = np.log(y)
    return (x * (log_x - log_y)).sum(axis=-1) - sum_x + y.sum(axis=-1)


def euclidean_divergence(x, y):
    """||x - y||^2 / 2, the Bregman divergence of the energy ||x||^2 / 2.

    Only the shapes are checked: the energy has no domain to leave.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"x and y must be vectors of one length, "
                         f"got shapes {x.shape} and {y.shape}")
    d = x - y
    return 0.5 * float(d @ d)


def three_point_identity_check(x, y, z):
    """Residual of the KL three-point identity, zero in exact arithmetic.

    Returns |D(x,z) - D(x,y) - D(y,z) - <log y - log z, x - y>|, the mirror
    map of the Shannon entropy being log up to a constant.
    """
    x = as_vector(x, name="x")
    y = as_vector(y, x.shape[0], "y")
    z = as_vector(z, x.shape[0], "z")
    lhs = kl_divergence(x, z)
    rhs = (kl_divergence(x, y) + kl_divergence(y, z)
           + float((np.log(y) - np.log(z)) @ (x - y)))
    return abs(lhs - rhs)


def kl_prox_simplex(x, v, lam):
    """Multiplicative (entropic) prox step on the probability simplex.

    Minimizes ``<v, u> + D_KL(u, x) / lam`` over the simplex. The minimizer
    is ``x_i exp(-lam v_i)`` renormalized; it is computed entirely in the
    log domain,

        log x' = (log x - lam v) - logsumexp(log x - lam v),

    with the log-sum-exp shifted by its largest term, so the output stays
    strictly interior for arbitrarily large drifts. The output's coordinates
    are exactly ``np.exp`` of its log coordinates, so a step can be rebuilt
    from its log coordinates alone.

    The step path calls this on every iteration, so ``v`` is not checked:
    it must be a finite vector of the dimension of ``x``. A stack of points
    (coordinates of shape (R, n)) takes a stack of drifts and steps each row
    on its own: the max and the log-sum-exp reduce along the last axis,
    which gives each row bitwise the result of its vector. A non-finite
    drift leaves non-finite or ``-inf`` log coordinates, which ``run``
    reports.

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
    if not lam > 0:  # not lam <= 0, which a NaN passes
        raise ValueError("step size must be positive")
    if x.log_coords is None:
        raise DomainError("kl_prox_simplex needs a point with log coordinates")
    z = x.log_coords - lam * np.asarray(v, dtype=np.float64)
    # a stack keeps the reduced axis to broadcast it; a vector's max and
    # log-sum-exp stay scalars, whose arithmetic costs less than that of
    # one-entry arrays; max and sum reduce through the ufuncs that ndarray.max
    # and .sum call, a method frame less per step
    keep = z.ndim > 1
    top = np.maximum.reduce(z, axis=-1, keepdims=keep)
    z = z - (top + np.log(np.add.reduce(np.exp(z - top), axis=-1, keepdims=keep)))
    return BregmanPoint(np.exp(z), z)


def linf_ball_prox(mu, v, nu, beta):
    """Euclidean prox of the infinity-ball indicator: a clipped gradient step.

    Returns the componentwise clamp of ``mu - nu v`` to ``[-beta, beta]``,
    the exact minimizer of ``<v, u> + ||u - mu||^2 / (2 nu)`` over the ball.
    The step path calls this on every iteration, so ``mu`` and ``v`` are not
    checked: they must be finite vectors of one length.
    """
    if not nu > 0:  # not nu <= 0 and beta < 0, which a NaN passes
        raise ValueError("step size must be positive")
    if not beta >= 0:
        raise ValueError("ball radius must be nonnegative")
    return _clamp(mu - nu * np.asarray(v, dtype=np.float64), beta)


def _clamp(v, beta):
    # np.clip(v, -beta, beta) in place and bitwise: the bound goes first, as
    # np.maximum and np.minimum return their first argument on a tie (+0
    # against -0) and np.clip the bound
    np.maximum(-beta, v, out=v)
    np.minimum(beta, v, out=v)
    return v


def simplex_violation(x, name="x"):
    """Why ``x`` is off the probability simplex, or ``None`` when it is on it.

    On the simplex means every entry nonnegative (a NaN is not) and the sum
    within ``SIMPLEX_SUM_TOL`` of 1. A stack (R, n) is on it when every row
    is; the message then shows the sum of the first row that is not.
    """
    if not (x >= 0).all():
        return f"{name} has negative entries"
    total = np.atleast_1d(x.sum(axis=-1))
    off = ~(np.abs(total - 1.0) <= SIMPLEX_SUM_TOL)  # a NaN sum is off
    if off.any():
        return f"{name} does not sum to 1 (got {total[off.argmax()]!r})"
    return None


def pinsker_slack(x, y):
    """D_KL(x, y) - ||x - y||_1^2 / 2 for simplex vectors; nonnegative.

    ``y`` must be strictly positive; ``x`` may touch the boundary.
    """
    x = as_vector(x, name="x")
    y = as_vector(y, x.shape[0], "y")
    for v, name in ((x, "x"), (y, "y")):
        violation = simplex_violation(v, name)
        if violation is not None:
            raise DomainError(violation)
    if np.any(y <= 0):
        raise DomainError("y must be strictly positive")
    l1 = float(np.abs(x - y).sum())
    return kl_divergence(x, y) - 0.5 * l1 * l1
