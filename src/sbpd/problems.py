"""Problem builders: the simplex inverse problem and the transport inverse problem.

The first family minimizes a Kullback-Leibler fidelity D_K(Ax, b) plus a
total-variation penalty over the probability simplex. The second recovers a
measure from a blurred, noise-corrupted observation through an entropically
regularized transport cost, dualized down to one potential so the smooth
dual term is a weighted log-sum-exp.

That term, the semidual h*(tau) = sum_j theta_j gamma log sum_i
exp((tau_i - C_ij) / gamma), is evaluated in Gibbs-kernel form: with c the
column minima of C, K = exp(-(C - c) / gamma) is built once per problem
(every column has largest entry 1, so K is finite for every finite C), and
with top = max tau and u = exp((tau - top) / gamma) each evaluation takes
n exponentials and two matrix-vector products: s = u K, value
theta . (top - c + gamma log s), gradient u * (K (theta / s)). When the
spread (max tau - min tau) / gamma exceeds 300, the column sums could
underflow, and the max-shifted log-domain form over the whole matrix
(tau - C) / gamma takes over.

K keeps no entry below 2 tiny e^300 (about 8.6e-178, tiny the least normal
float64): smaller ones are set to 0 when it is built. Many x86 cores
multiply a subnormal operand on a slow path; at n = 108, gamma = 1 the
exact kernel holds 140 subnormal entries, and u K took 13.9 us instead of
2.6 us on an Intel Xeon. The flush is safe on the kernel path, where
u >= e^-300: no product u_i K_ij is then subnormal, every column keeps its
entry 1, and a dropped term u_i K_ij is more than 30 orders of magnitude
below the rounding of the column sum s_j >= e^-300 it would enter (and, in
the gradient, K_ij theta_j / s_j <= 2e-47 per term). The log-domain form
does not use K.
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
    _clamp,
    kl_prox_simplex,
    linf_ball_prox,
    simplex_violation,
)
from .linalg import (
    LinearMap,
    ShapeError,
    as_vector,
    convolution_matrix,
    forward_difference_matrix,
    matvec,
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
    "semidual_kernel",
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
    """D_K(Ax, b) = sum_i (Ax)_i log((Ax)_i / b_i) - (Ax)_i + b_i.

    A stack ``x`` of shape (R, n) gives the R values as an array, each
    bitwise its vector's (``linalg.matvec``, sums along the last axis).
    """
    u = A @ x if x.ndim == 1 else matvec(A, x)
    if (u <= 0).any():
        raise DomainError("Ax has nonpositive entries")
    value = (u * np.log(u / b) - u + b).sum(axis=-1)
    return float(value) if x.ndim == 1 else value


def kl_fidelity_grad(A, b, x):
    """Gradient A^T log(Ax / b) of the fidelity above.

    A stack ``x`` of shape (R, n) gives the R gradients, each row bitwise
    its vector's (``linalg.matvec``).
    """
    u = matvec(A, x)
    if (u <= 0).any():
        raise DomainError("Ax has nonpositive entries")
    return matvec(A.T, np.log(u / b))


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

# Largest spread (max tau - min tau) / gamma that the kernel form takes;
# above it the log-domain form does.
_KERNEL_SPREAD = 300.0
# Kernel entries below this are 0: with u >= exp(-_KERNEL_SPREAD), every
# product u_i K_ij that remains is normal (the 2 covers the rounding of u)
_KERNEL_FLOOR = 2.0 * np.finfo(np.float64).tiny * np.exp(_KERNEL_SPREAD)


def _check_gamma(gamma):
    if not (np.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")


def semidual_kernel(C, gamma):
    """Column-shifted Gibbs kernel ``(K, c)`` of the cost C at temperature gamma.

    ``c`` holds the column minima of C and K = exp(-(C - c) / gamma), so
    every column of K has largest entry 1 and K is finite for every finite C.
    Entries below 2 tiny e^300 (about 8.6e-178) are set to 0, so K holds no
    subnormal number; the module docstring says why the semidual does not
    move.
    """
    _check_gamma(gamma)
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2:
        raise ValueError(f"cost matrix must be 2-d, got shape {C.shape}")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix contains non-finite entries")
    c = C.min(axis=0)
    K = np.exp(-(C - c) / gamma)
    K[K < _KERNEL_FLOOR] = 0.0
    return K, c


def _check_theta(theta, C, tau_dim):
    # theta as a checked simplex vector, C of shape (tau_dim, len(theta))
    theta = as_vector(theta, name="theta")
    if np.shape(C) != (tau_dim, theta.shape[0]):
        raise ShapeError(f"cost matrix shape {np.shape(C)} does not match "
                         f"({tau_dim}, {theta.shape[0]})")
    if simplex_violation(theta) is not None:
        raise DomainError("theta must lie on the simplex")
    return theta


def _semidual(tau, theta, C, gamma, kernel, value=True, grad=True):
    # (value or None, gradient or None) of h* at tau, through the kernel
    # (K, c) = semidual_kernel(C, gamma) while the spread of tau over gamma
    # stays within _KERNEL_SPREAD, in the log domain beyond it; the inputs
    # are checked by the caller (ot_semidual_value_grad, or OTInverseProblem
    # at construction)
    K, c = kernel
    top = tau.max()
    if (top - tau.min()) / gamma <= _KERNEL_SPREAD:
        # u >= exp(-_KERNEL_SPREAD) and K is 1 at each column's cheapest row,
        # so every column sum s is at least exp(-_KERNEL_SPREAD)
        u = np.exp((tau - top) / gamma)
        s = u @ K
        return (float(theta @ (top - c + gamma * np.log(s))) if value else None,
                u * (K @ (theta / s)) if grad else None)
    # shift each column of Z = (tau - C) / gamma by its max so exp never
    # overflows
    Z = (tau[:, None] - C) / gamma
    top = Z.max(axis=0)
    E = np.exp(Z - top)
    s = E.sum(axis=0)
    return (float(gamma * (theta @ (top + np.log(s)))) if value else None,
            E @ (theta / s) if grad else None)


def ot_semidual_value_grad(tau, theta, C, gamma):
    """Value and gradient of the smooth transport semidual term.

    h*(tau) = sum_j theta_j * lse_gamma(tau - C[:, j]), with the tempered
    log-sum-exp lse_gamma(t) = gamma * log sum_i exp(t_i / gamma); the
    gradient is the matching convex combination of tempered softmaxes, hence
    a simplex vector for every tau. Builds the kernel of ``semidual_kernel``
    on each call; gamma and C must be finite.
    """
    kernel = semidual_kernel(C, gamma)
    tau = as_vector(tau, name="tau")
    return _semidual(tau, _check_theta(theta, C, tau.shape[0]), C, gamma, kernel)


# ------------------------------------------------------------------ problems

def _simplex_feasible(x):
    return simplex_violation(x) is None


@dataclass(frozen=True)
class SimplexTVProblem:
    """min over the simplex of D_K(Ax, b) + beta * ||Bx||_1."""

    A: np.ndarray
    b: np.ndarray
    beta: float
    B: LinearMap
    L_p: float

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def m(self):
        return self.A.shape[0]

    @cached_property
    def coupling_norm(self):
        return operator_norm(self.B)

    def f_value(self, x):
        return kl_fidelity_value(self.A, self.b, x)

    def f_grad(self, x):
        return kl_fidelity_grad(self.A, self.b, x)

    def f_partial_grad(self, batch, x):
        # a stack of R batches (R, q) and of R points (R, n) gathers the rows
        # of A as (R, q, n) and takes each point's products through matvec
        sub = self.A[batch]
        return matvec(sub.swapaxes(-1, -2), np.log(matvec(sub, x) / self.b[batch]))

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
            f_value=self.f_value,
            h_star_value=None,
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
                self.A.tobytes() + self.b.tobytes()).hexdigest(),
        }


def simplex_tv_from_arrays(A, b, beta):
    """Problem from explicit data; entries of A and b must be positive."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    b = as_vector(b, name="b")
    if A.ndim != 2 or A.shape[0] != b.shape[0]:
        raise ValueError(f"A of shape {A.shape} does not match b of length {b.shape[0]}")
    if not np.all(np.isfinite(A)):
        raise ValueError("A contains non-finite entries")
    if np.any(A <= 0):
        raise ValueError("A must have strictly positive entries")
    if np.any(b <= 0):
        raise ValueError("b must be strictly positive")
    if not beta >= 0:  # not beta < 0, which a NaN passes
        raise ValueError("beta must be nonnegative")
    return SimplexTVProblem(
        A=A,
        b=b,
        beta=float(beta),
        B=LinearMap(forward_difference_matrix(A.shape[1])),
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
    through (F rho, D rho), with D the forward difference. Only the zeta
    block is ball-constrained.
    """

    C: np.ndarray
    F: np.ndarray
    theta: np.ndarray
    gamma: float
    beta: float
    L_d: float
    rho_truth: np.ndarray

    def __post_init__(self):
        # checked once: h_star_value and h_star_grad run on plain arrays
        if np.ndim(self.F) != 2 or self.F.shape[0] != self.F.shape[1]:
            raise ShapeError(f"F must be a square matrix, got shape {np.shape(self.F)}")
        _check_theta(self.theta, self.C, self.n)

    @property
    def n(self):
        return self.F.shape[1]

    @cached_property
    def coupling(self):
        return LinearMap(np.vstack([self.F, forward_difference_matrix(self.n)]))

    @cached_property
    def coupling_norm(self):
        return operator_norm(self.coupling)

    @cached_property
    def kernel(self):
        return semidual_kernel(self.C, self.gamma)

    @staticmethod
    def _one_vector(mu):
        # the semidual takes one potential, so ot-inverse can neither step
        # nor evaluate a stack of dual vectors
        if mu.ndim != 1:
            raise ShapeError(f"ot-inverse takes one dual vector, not a stack "
                             f"of shape {mu.shape}")
        return mu

    def h_star_value(self, mu):
        return _semidual(self._one_vector(mu)[:self.n], self.theta, self.C,
                         self.gamma, self.kernel, grad=False)[0]

    def h_star_grad(self, mu):
        grad = _semidual(self._one_vector(mu)[:self.n], self.theta, self.C,
                         self.gamma, self.kernel, value=False)[1]
        return np.concatenate([grad, np.zeros(self.n - 1)])

    def dual_feasible(self, mu):
        mu = self._one_vector(mu)
        return bool(mu.shape[0] == 2 * self.n - 1
                    and np.abs(mu[self.n:]).max() <= self.beta + 1e-12)

    def dual_prox(self, mu, v, nu):
        # plain gradient step on tau, clamped step on the ball-constrained zeta
        out = mu - nu * v
        _clamp(out[self.n:], self.beta)
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
            f_value=None,
            h_star_value=self.h_star_value,
            primal_feasible=_simplex_feasible,
            dual_feasible=self.dual_feasible,
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
            # the kernel form moves iterates by roundoff against the
            # log-domain form, so references of the two must not mix
            "semidual": "shifted-kernel",
            "data": hashlib.sha256(
                self.theta.tobytes() + self.F.tobytes()
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
    _check_gamma(gamma)
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must lie in [0, 1]")
    idx = np.arange(n, dtype=np.float64)
    C = 0.5 * (idx[:, None] - idx[None, :]) ** 2
    F = convolution_matrix(n, bump_kernel(kernel_radius))

    rho = np.zeros(n)
    w1, w2 = max(1, n // 10), max(1, n // 6)
    s1, s2 = int(0.15 * n), int(0.6 * n)
    rho[s1:s1 + w1] = 1.0
    rho[s2:s2 + w2] = 1.0
    rho /= rho.sum()

    rng = np.random.default_rng(seed)
    clean = F @ rho
    theta = (1.0 - noise_level) * clean + noise_level * rng.dirichlet(np.ones(n))
    theta = theta / theta.sum()
    return OTInverseProblem(C=C, F=F, theta=theta, gamma=float(gamma),
                            beta=float(beta), L_d=1.0 / gamma, rho_truth=rho)


# ----------------------------------------------------------------- reference

@dataclass(frozen=True)
class ReferenceSolution:
    """Approximate saddle point from a long deterministic run.

    ``from_cache`` tells whether it was read from a reference file rather
    than computed; it is not written to the file.
    """

    x_star: np.ndarray
    mu_star: np.ndarray
    ref_tol: float
    config_hash: str
    iterations: int
    from_cache: bool = False

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
        from_cache=True,
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
    budget, shape, finiteness or feasibility checks is recomputed. The
    result's ``from_cache`` is true exactly when a checked file was returned.

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
    last = []

    def track(prev, new):
        last[:] = prev, new
        return False

    state = run(saddle, schedule, state, budget, callback=track)
    scale = 1.0 / schedule.lam + 1.0 / schedule.nu + problem.coupling_norm
    ref = ReferenceSolution(
        x_star=state.x.coords.copy(),
        mu_star=state.mu.copy(),
        ref_tol=float(asymptotic_residual(*last) * scale),
        config_hash=config_hash,
        iterations=int(budget),
    )
    if cache_dir is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_reference(ref, _reference_path(cache_dir, config_hash))
    return ref
