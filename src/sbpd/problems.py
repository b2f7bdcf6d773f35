"""Problem builders: the simplex inverse problem and the transport inverse problem.

The first family minimizes a Kullback-Leibler fidelity D_K(Ax, b) plus a
total-variation penalty over the probability simplex. The second recovers a
measure from a blurred, noise-corrupted observation through an entropically
regularized transport cost, dualized down to one potential so the smooth
dual term is a weighted log-sum-exp.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bregman import (
    BregmanPoint,
    DomainError,
    EuclideanEnergy,
    ShannonBoltzmann,
    kl_prox_simplex,
    linf_ball_prox,
)
from .linalg import (
    ConvolutionMap,
    DenseMatrixMap,
    ForwardDifferenceMap,
    VerticalStackMap,
    as_vector,
    operator_norm,
)
from .solver import (
    SaddleProblem,
    StepSchedule,
    asymptotic_residual,
    default_step_sizes,
    initial_state,
    run,
)

__all__ = [
    "kl_fidelity_value",
    "kl_fidelity_grad",
    "kl_rel_smooth_constant",
    "ot_semidual_value_grad",
    "SimplexTVProblem",
    "OTInverseProblem",
    "ReferenceSolution",
    "build_simplex_tv",
    "simplex_tv_from_arrays",
    "build_ot_inverse",
    "compute_reference",
]


# ------------------------------------------------------------------ fidelity

def kl_fidelity_value(A, b, x):
    """D_K(Ax, b) = sum_i (Ax)_i log((Ax)_i / b_i) - (Ax)_i + b_i."""
    u = A @ x
    if np.any(u <= 0):
        raise DomainError("Ax has nonpositive entries")
    return float(np.sum(u * np.log(u / b) - u + b))


def kl_fidelity_grad(A, b, x):
    """Gradient A^T log(Ax / b) of the fidelity above."""
    u = A @ x
    if np.any(u <= 0):
        raise DomainError("Ax has nonpositive entries")
    return A.T @ np.log(u / b)


def kl_rel_smooth_constant(A):
    """Smoothness constant of the fidelity relative to the simplex entropy.

    Equals the largest column sum of A (summing over output rows for each
    input coordinate). Requires nonnegative entries and no all-zero row,
    since a zero row makes the fidelity undefined.
    """
    A = np.asarray(A, dtype=np.float64)
    if np.any(A < 0):
        raise ValueError("A must be entrywise nonnegative")
    row_mass = A.sum(axis=1)
    if np.any(row_mass == 0):
        raise ValueError(f"A has an all-zero row (first at {int(np.argmin(row_mass != 0))})")
    return float(A.sum(axis=0).max())


# ----------------------------------------------------------------- semidual

def ot_semidual_value_grad(tau, theta, C, gamma):
    """Value and gradient of the smooth transport semidual term.

    h*(tau) = sum_j theta_j * lse_gamma(tau - C[:, j]), with the tempered
    log-sum-exp lse_gamma(t) = gamma * log sum_i exp(t_i / gamma); the
    gradient is the matching convex combination of tempered softmaxes, hence
    a simplex vector for every tau.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    tau = as_vector(tau, name="tau")
    theta = as_vector(theta, name="theta")
    C = np.asarray(C, dtype=np.float64)
    if C.shape != (tau.shape[0], theta.shape[0]):
        raise ValueError(f"cost matrix shape {C.shape} does not match "
                         f"({tau.shape[0]}, {theta.shape[0]})")
    if np.any(theta < 0) or abs(theta.sum() - 1.0) > 1e-9:
        raise DomainError("theta must lie on the simplex")
    Z = (tau[:, None] - C) / gamma
    # shift each column by its max so exp never overflows
    top = Z.max(axis=0)
    E = np.exp(Z - top)
    s = E.sum(axis=0)
    value = float(gamma * (theta @ (top + np.log(s))))
    grad = E @ (theta / s)
    return value, grad


# ------------------------------------------------------------------ problems

def _simplex_feasible(x, tol=1e-9):
    return bool(np.all(x >= 0) and abs(x.sum() - 1.0) <= tol)


@dataclass(frozen=True)
class SimplexTVProblem:
    """min over the simplex of D_K(Ax, b) + beta * ||Bx||_1."""

    A: DenseMatrixMap
    b: np.ndarray
    beta: float
    B: ForwardDifferenceMap
    L_p: float

    @property
    def n(self):
        return self.A.input_dim

    @property
    def m(self):
        return self.A.output_dim

    @cached_property
    def coupling_norm(self):
        return operator_norm(self.B)

    def f_value(self, x):
        return kl_fidelity_value(self.A.matrix, self.b, x)

    def f_grad(self, x):
        return kl_fidelity_grad(self.A.matrix, self.b, x)

    def f_partial_grad(self, batch, x):
        sub = self.A.matrix[batch]
        return sub.T @ np.log(sub @ x / self.b[batch])

    def lagrangian(self, x, mu):
        return self.f_value(x) + float(self.B.apply(x) @ mu)

    def saddle_problem(self):
        beta = self.beta
        return SaddleProblem(
            f_grad=self.f_grad,
            h_star_grad=lambda mu: np.zeros(self.n - 1),
            g_prox=kl_prox_simplex,
            l_star_prox=lambda mu, v, nu: linf_ball_prox(mu, v, nu, beta),
            coupling=self.B,
            L_p=self.L_p,
            L_d=0.0,
            phi_p=ShannonBoltzmann(self.n),
            phi_d=EuclideanEnergy(self.n - 1),
            lagrangian_eval=self.lagrangian,
            primal_feasible=_simplex_feasible,
            dual_feasible=lambda mu: bool(np.abs(mu).max() <= beta + 1e-12),
            f_partial_grad=self.f_partial_grad,
        )

    def initial_point(self):
        x0 = BregmanPoint.from_positive_coords(np.full(self.n, 1.0 / self.n))
        return x0, np.zeros(self.n - 1)

    def default_schedule(self):
        return StepSchedule(*default_step_sizes(self.L_p, 0.0, self.coupling_norm))

    def descriptor(self):
        return {
            "kind": "simplex-tv",
            "n": self.n,
            "m": self.m,
            "beta": self.beta,
            "data": hashlib.sha256(
                self.A.matrix.tobytes() + self.b.tobytes()).hexdigest(),
        }


def simplex_tv_from_arrays(A, b, beta):
    """Problem from explicit data; entries of A and b must be positive."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = as_vector(b, name="b")
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError(f"A of shape {A.shape} does not match b of length {b.shape[0]}")
    if np.any(A <= 0):
        raise ValueError("A must have strictly positive entries")
    if np.any(b <= 0):
        raise ValueError("b must be strictly positive")
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return SimplexTVProblem(
        A=DenseMatrixMap(A),
        b=b,
        beta=float(beta),
        B=ForwardDifferenceMap(A.shape[1]),
        L_p=kl_rel_smooth_constant(A),
    )


def build_simplex_tv(n, m, seed, beta=1.0):
    """Random instance: A uniform in [0.01, 1.01], b uniform in (0, 1]."""
    if n < 2 or m < 2:
        raise ValueError("need n, m >= 2")
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.01, 1.01, (m, n))
    b = 1.0 - rng.uniform(0.0, 1.0, m)
    return simplex_tv_from_arrays(A, b, beta)


def bump_kernel(radius):
    """Compactly supported bump exp(-1/(1 - t^2)) sampled inside (-1, 1)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    t = np.arange(-radius, radius + 1) / (radius + 1.0)
    return np.exp(-1.0 / (1.0 - t * t))


@dataclass(frozen=True)
class OTInverseProblem:
    """Measure recovery through an entropic transport fidelity.

    Primal variable: a simplex vector rho. Dual variable: the transport
    potential tau stacked over the total-variation dual zeta, coupled
    through (F rho, B rho). Only the zeta block is ball-constrained.
    """

    C: np.ndarray
    F: ConvolutionMap
    B: ForwardDifferenceMap
    theta: np.ndarray
    gamma: float
    beta: float
    L_d: float
    rho_truth: np.ndarray

    @property
    def n(self):
        return self.F.input_dim

    @cached_property
    def coupling(self):
        return VerticalStackMap([self.F, self.B])

    @cached_property
    def coupling_norm(self):
        return operator_norm(self.coupling)

    def split_dual(self, mu):
        return mu[:self.n], mu[self.n:]

    def h_star_value(self, mu):
        value, _ = ot_semidual_value_grad(self.split_dual(mu)[0], self.theta,
                                          self.C, self.gamma)
        return value

    def h_star_grad(self, mu):
        _, grad = ot_semidual_value_grad(self.split_dual(mu)[0], self.theta,
                                         self.C, self.gamma)
        return np.concatenate([grad, np.zeros(self.n - 1)])

    def lagrangian(self, rho, mu):
        return float(self.coupling.apply(rho) @ mu) - self.h_star_value(mu)

    def dual_prox(self, mu, v, nu):
        # plain gradient step on tau, clipped step on the ball-constrained zeta
        out = mu - nu * v
        out[self.n:] = np.clip(out[self.n:], -self.beta, self.beta)
        return out

    def saddle_problem(self):
        n = self.n
        return SaddleProblem(
            f_grad=lambda x: np.zeros(n),
            h_star_grad=self.h_star_grad,
            g_prox=kl_prox_simplex,
            l_star_prox=self.dual_prox,
            coupling=self.coupling,
            L_p=0.0,
            L_d=self.L_d,
            phi_p=ShannonBoltzmann(n),
            phi_d=EuclideanEnergy(2 * n - 1),
            lagrangian_eval=self.lagrangian,
            primal_feasible=_simplex_feasible,
            dual_feasible=lambda mu: bool(
                mu.shape[0] == 2 * n - 1
                and np.abs(mu[n:]).max() <= self.beta + 1e-12),
        )

    def initial_point(self):
        x0 = BregmanPoint.from_positive_coords(np.full(self.n, 1.0 / self.n))
        return x0, np.zeros(2 * self.n - 1)

    def default_schedule(self):
        return StepSchedule(*default_step_sizes(0.0, self.L_d, self.coupling_norm))

    def descriptor(self):
        return {
            "kind": "ot-inverse",
            "n": self.n,
            "gamma": self.gamma,
            "beta": self.beta,
            "data": hashlib.sha256(
                self.theta.tobytes() + self.F.matrix.tobytes()
                + self.C.tobytes()).hexdigest(),
        }


def build_ot_inverse(n, seed, gamma=1.0, beta=1.0, noise_level=0.1,
                     kernel_radius=10):
    """Transport inverse instance on a regular 1-d grid of n points.

    Ground cost |i - j|^2 / 2 on grid indices; forward operator F is the
    column-normalized bump-kernel convolution; the observation is F applied
    to a two-box ground truth, mixed with a Dirichlet draw at the given
    noise level and renormalized.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must lie in [0, 1]")
    idx = np.arange(n, dtype=np.float64)
    C = 0.5 * (idx[:, None] - idx[None, :]) ** 2
    F = ConvolutionMap(n, bump_kernel(kernel_radius))

    rho = np.zeros(n)
    w1, w2 = max(1, n // 10), max(1, n // 6)
    s1, s2 = int(0.15 * n), int(0.6 * n)
    rho[s1:s1 + w1] = 1.0
    rho[s2:s2 + w2] = 1.0
    rho /= rho.sum()

    rng = np.random.default_rng(seed)
    clean = F.apply(rho)
    theta = (1.0 - noise_level) * clean + noise_level * rng.dirichlet(np.ones(n))
    theta = theta / theta.sum()
    return OTInverseProblem(C=C, F=F, B=ForwardDifferenceMap(n), theta=theta,
                            gamma=float(gamma), beta=float(beta),
                            L_d=1.0 / gamma, rho_truth=rho)


# ----------------------------------------------------------------- reference

@dataclass(frozen=True)
class ReferenceSolution:
    """Approximate saddle point from a long deterministic run."""

    x_star: np.ndarray
    mu_star: np.ndarray
    ref_tol: float
    config_hash: str
    iterations: int

    @property
    def w_star(self):
        return self.x_star, self.mu_star


def reference_config_hash(problem, budget, seed):
    doc = dict(problem.descriptor(), budget=int(budget), seed=int(seed),
               coupling_norm=problem.coupling_norm)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _reference_path(cache_dir, config_hash):
    return os.path.join(cache_dir, f"reference_{config_hash[:16]}.json")


def load_reference(path):
    with open(path) as fh:
        doc = json.load(fh)
    return ReferenceSolution(
        x_star=np.array(doc["x_star"], dtype=np.float64),
        mu_star=np.array(doc["mu_star"], dtype=np.float64),
        ref_tol=float(doc["ref_tol"]),
        config_hash=doc["config_hash"],
        iterations=int(doc["iterations"]),
    )


def save_reference(ref, path):
    doc = {
        "config_hash": ref.config_hash,
        "iterations": ref.iterations,
        "ref_tol": ref.ref_tol,
        "x_star": ref.x_star.tolist(),
        "mu_star": ref.mu_star.tolist(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def compute_reference(problem, budget, seed, cache_dir=None):
    """Long deterministic run producing (x*, mu*) and its tolerance.

    ``ref_tol`` scales the final consecutive-iterate residual by
    ``1/lam + 1/nu + ||T||``, a heuristic certificate for how far gap
    evaluations against this reference can dip below zero. With a cache
    directory the result is persisted under its config hash and reloaded
    on identical requests; a file that does not parse or fails the hash,
    budget, shape, finiteness or feasibility checks is recomputed.

    ``seed`` only feeds that hash, and so the cache file name: the run is
    deterministic and draws no random numbers, and the instance data are
    hashed through ``problem.descriptor()`` already.
    """
    if budget < 1000:
        raise ValueError("reference budget must be at least 1000 iterations")
    config_hash = reference_config_hash(problem, budget, seed)
    saddle = problem.saddle_problem()
    x0, mu0 = problem.initial_point()
    if cache_dir is not None:
        try:
            ref = load_reference(_reference_path(cache_dir, config_hash))
        except (OSError, ValueError, KeyError, TypeError):
            ref = None
        if (ref is not None and ref.config_hash == config_hash
                and ref.iterations == budget
                and ref.x_star.shape == x0.coords.shape
                and ref.mu_star.shape == mu0.shape
                and np.all(np.isfinite(ref.mu_star))
                and 0.0 <= ref.ref_tol < np.inf
                and saddle.primal_feasible(ref.x_star)
                and saddle.dual_feasible(ref.mu_star)):
            return ref

    schedule = problem.default_schedule()
    state = initial_state(x0, mu0)
    last = {"residual": np.inf}

    def track(prev, new):
        last["residual"] = asymptotic_residual(prev, new)
        return False

    state = run(saddle, schedule, state, budget, callback=track)
    scale = 1.0 / schedule.lam + 1.0 / schedule.nu + problem.coupling_norm
    ref = ReferenceSolution(
        x_star=state.x.coords.copy(),
        mu_star=state.mu.copy(),
        ref_tol=float(last["residual"] * scale),
        config_hash=config_hash,
        iterations=int(budget),
    )
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_reference(ref, _reference_path(cache_dir, config_hash))
    return ref
