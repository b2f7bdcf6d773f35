"""The stochastic Bregman primal-dual iteration and its certificates.

One step alternates a Bregman prox step on the primal variable against the
current dual point with an extrapolated primal point fed back into a dual
prox step. Constant step sizes derived from the smoothness constants and the
coupling norm make the per-iteration energy inequality hold, and that
inequality is evaluated here verbatim as a runtime certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import BregmanPoint, DomainError, Entropy, bregman_divergence
from .linalg import LinearMap

__all__ = [
    "SaddleProblem",
    "StepSchedule",
    "SolverState",
    "default_step_sizes",
    "initial_state",
    "sbpd_step",
    "run",
    "ergodic_rate_constant",
    "estimate_inequality_terms",
    "symmetrized_energy_slack",
    "lagrangian_gap",
    "asymptotic_residual",
]


@dataclass
class SaddleProblem:
    """A convex-concave saddle problem in split form.

    The Lagrangian is f(x) + g(x) + <Tx, mu> - h*(mu) - l*(mu), with g and
    l* entering only through their D-prox handles (they typically contain
    the constraint indicators). ``lagrangian_eval`` evaluates the smooth and
    coupling parts at feasible points, where the indicators vanish.

    ``f_partial_grad(batch, x)`` returns the sum of the per-summand
    gradients over ``batch`` when f has finite-sum structure (otherwise
    leave it ``None`` and use exact oracles only).
    """

    f_grad: Callable[[np.ndarray], np.ndarray]
    h_star_grad: Callable[[np.ndarray], np.ndarray]
    g_prox: Callable[[BregmanPoint, np.ndarray, float], BregmanPoint]
    l_star_prox: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    coupling: LinearMap
    L_p: float
    L_d: float
    phi_p: Entropy
    phi_d: Entropy
    lagrangian_eval: Callable[[np.ndarray, np.ndarray], float]
    primal_feasible: Callable[[np.ndarray], bool]
    dual_feasible: Callable[[np.ndarray], bool]
    f_partial_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.L_p < 0 or self.L_d < 0:
            raise ValueError("smoothness constants must be nonnegative")


@dataclass(frozen=True)
class StepSchedule:
    """Constant primal and dual step sizes ``lam`` and ``nu``."""

    lam: float
    nu: float

    def __post_init__(self):
        if not (self.lam > 0 and self.nu > 0):
            raise ValueError("step sizes must be positive")


def default_step_sizes(L_p, L_d, opnorm, safety=1.0):
    """Symmetric step sizes 1/(L_p + ||T||) and 1/(L_d + ||T||).

    ``safety`` in (0, 1] shrinks both; at 1 the bounds are met with
    equality, which is what the reference experiments use.
    """
    if opnorm <= 0:
        raise ValueError("opnorm must be positive")
    if L_p < 0 or L_d < 0:
        raise ValueError("smoothness constants must be nonnegative")
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    return float(safety / (L_p + opnorm)), float(safety / (L_d + opnorm))


@dataclass(frozen=True)
class SolverState:
    """Iterate pair plus running ergodic means after ``k`` steps.

    Reproducibility needs no generator state here: batches are pure
    functions of the oracle seed and the iteration counter.
    """

    k: int
    x: BregmanPoint
    mu: np.ndarray
    x_prev: BregmanPoint
    x_bar: np.ndarray
    mu_bar: np.ndarray


def initial_state(x0, mu0):
    """State at k = 0; ergodic means start at the (excluded) initial point."""
    mu0 = np.asarray(mu0, dtype=np.float64)
    return SolverState(0, x0, mu0, x0, x0.coords.copy(), mu0.copy())


def sbpd_step(problem, schedule, state, oracle=None):
    """One primal-dual step; returns the state at k + 1.

    The primal update moves against the gradient estimate plus the coupling
    pullback of the current dual point; the dual update sees the
    extrapolated point 2 x_{k+1} - x_k. Ergodic means are updated
    incrementally and exclude the initial point.
    """
    k = state.k
    if oracle is None or oracle.is_exact:
        grad_p = problem.f_grad(state.x.coords)
    else:
        grad_p = oracle.estimate(
            problem.f_grad, problem.f_partial_grad, state.x.coords, k)
    drift_p = grad_p + problem.coupling.adjoint_apply(state.mu)
    x_next = problem.g_prox(state.x, drift_p, schedule.lam)

    x_tilde = 2.0 * x_next.coords - state.x.coords
    drift_d = problem.h_star_grad(state.mu) - problem.coupling.apply(x_tilde)
    mu_next = problem.l_star_prox(state.mu, drift_d, schedule.nu)

    k1 = k + 1
    x_bar = state.x_bar + (x_next.coords - state.x_bar) / k1
    mu_bar = state.mu_bar + (mu_next - state.mu_bar) / k1
    return SolverState(k1, x_next, mu_next, state.x, x_bar, mu_bar)


def run(problem, schedule, state, iterations, oracle=None, callback=None):
    """Iterate ``sbpd_step`` a fixed number of times.

    ``callback(prev_state, new_state)`` fires after every step; its return
    value, when truthy, stops the run early.
    """
    for _ in range(iterations):
        new = sbpd_step(problem, schedule, state, oracle)
        if callback is not None and callback(state, new):
            return new
        state = new
    return state


def _as_point(x):
    return x if isinstance(x, BregmanPoint) else BregmanPoint.from_coords(x)


def _check_feasible(problem, x_coords, mu, label):
    if not problem.primal_feasible(x_coords):
        raise DomainError(f"primal part of {label} violates its constraints")
    if not problem.dual_feasible(mu):
        raise DomainError(f"dual part of {label} violates its constraints")


def lagrangian_gap(problem, w, w_ref):
    """L(x, mu_ref) - L(x_ref, mu); nonnegative at an exact saddle reference.

    All four points must be feasible; indicator violations raise rather
    than propagating infinities.
    """
    x, mu = w
    x_ref, mu_ref = w_ref
    x = _as_point(x).coords
    x_ref = _as_point(x_ref).coords
    mu = np.asarray(mu, dtype=np.float64)
    mu_ref = np.asarray(mu_ref, dtype=np.float64)
    _check_feasible(problem, x, mu, "w")
    _check_feasible(problem, x_ref, mu_ref, "w_ref")
    return problem.lagrangian_eval(x, mu_ref) - problem.lagrangian_eval(x_ref, mu)


def _energy(problem, schedule, x_ref, mu_ref, point, mu):
    # E(w_ref) = D_p(x_ref, x)/lam + D_d(mu_ref, mu)/nu - <T(x_ref - x), mu_ref - mu>
    dp = bregman_divergence(problem.phi_p, x_ref, point)
    dd = bregman_divergence(problem.phi_d, mu_ref, _as_point(mu))
    cross = float(problem.coupling.apply(x_ref - point.coords) @ (mu_ref - mu))
    return dp / schedule.lam + dd / schedule.nu - cross


def ergodic_rate_constant(problem, schedule, w_ref, w0):
    """The constant C0 of the ergodic rate bound C0 / k.

    C0 = D_p(x_ref, x0)/lam + D_d(mu_ref, mu0)/nu - <T(x_ref - x0),
    mu_ref - mu0>.
    """
    x_ref, mu_ref = w_ref
    x0, mu0 = w0
    return float(_energy(problem, schedule, _as_point(x_ref).coords,
                         np.asarray(mu_ref, dtype=np.float64), _as_point(x0),
                         np.asarray(mu0, dtype=np.float64)))


def estimate_inequality_terms(problem, schedule, w_k, w_next, w_ref,
                              k=0, primal_delta=None, dual_delta=None):
    """Slack and magnitude scale of the per-iteration energy inequality.

    The inequality bounds the one-step Lagrangian gap plus the next
    weighted-divergence energy by the current energy (plus the noise
    pairing when gradient estimates were inexact):

        gap(w_{k+1}) + E_{k+1}(w_ref) <= E_k(w_ref) + <delta, w_ref - w_{k+1}>

    where E_j(w) = D_p(x, x_j)/lam + D_d(mu, mu_j)/nu - <T(x - x_j),
    mu - mu_j>. Returns ``(slack, scale)`` with slack = RHS - LHS and scale
    = 1 + the largest term magnitude; nonnegative slack up to roundoff is
    the certified behavior. ``k`` is the index of ``w_k``; with constant
    steps the inequality does not depend on it.
    """
    x_k, mu_k = w_k
    x_n, mu_n = w_next
    x_ref, mu_ref = w_ref
    x_k = _as_point(x_k)
    x_n = _as_point(x_n)
    x_ref = _as_point(x_ref).coords
    mu_k = np.asarray(mu_k, dtype=np.float64)
    mu_n = np.asarray(mu_n, dtype=np.float64)
    mu_ref = np.asarray(mu_ref, dtype=np.float64)
    _check_feasible(problem, x_ref, mu_ref, "w_ref")
    e_k = _energy(problem, schedule, x_ref, mu_ref, x_k, mu_k)
    e_next = _energy(problem, schedule, x_ref, mu_ref, x_n, mu_n)
    gap = (problem.lagrangian_eval(x_n.coords, mu_ref)
           - problem.lagrangian_eval(x_ref, mu_n))
    noise = 0.0
    if primal_delta is not None:
        noise += float(np.asarray(primal_delta) @ (x_ref - x_n.coords))
    if dual_delta is not None:
        noise += float(np.asarray(dual_delta) @ (mu_ref - mu_n))
    slack = e_k + noise - gap - e_next
    scale = 1.0 + max(abs(e_k), abs(e_next), abs(gap), abs(noise))
    return float(slack), float(scale)


def symmetrized_energy_slack(problem, schedule, w1, w2):
    """Slack of the cross-term domination inequality, nonnegative in theory.

    Returns (1/Lambda)(D(w1, w2) + D(w2, w1)) - 2 M(w1, w2). Valid step
    sizes make this nonnegative for every pair of admissible points, which
    is what lets the noise pairing of inexact updates be controlled.
    """
    x1, mu1 = w1
    x2, mu2 = w2
    p1, p2 = _as_point(x1), _as_point(x2)
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu2 = np.asarray(mu2, dtype=np.float64)
    dp = (bregman_divergence(problem.phi_p, p1.coords, p2)
          + bregman_divergence(problem.phi_p, p2.coords, p1))
    dd = (bregman_divergence(problem.phi_d, mu1, _as_point(mu2))
          + bregman_divergence(problem.phi_d, mu2, _as_point(mu1)))
    cross = float(problem.coupling.apply(p1.coords - p2.coords) @ (mu1 - mu2))
    return float(dp / schedule.lam + dd / schedule.nu - 2.0 * cross)


def asymptotic_residual(state_k, state_next):
    """||x_{k+1} - x_k||_1 + ||mu_{k+1} - mu_k||_2 between consecutive states."""
    dx = float(np.abs(state_next.x.coords - state_k.x.coords).sum())
    dmu = float(np.linalg.norm(state_next.mu - state_k.mu))
    return dx + dmu
