"""The stochastic Bregman primal-dual iteration and its certificates.

One step alternates a Bregman prox step on the primal variable against the
current dual point with an extrapolated primal point fed back into a dual
prox step. Constant step sizes derived from the smoothness constants and the
coupling norm make the per-iteration energy inequality hold, and that
inequality is evaluated here verbatim as a runtime certificate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bregman import BregmanPoint, DomainError, _kl_terms, _kl_to_point
from .linalg import LinearMap, ShapeError, as_vector

__all__ = [
    "SaddleProblem",
    "LagrangianParts",
    "ReferenceEvaluator",
    "StepSchedule",
    "SolverState",
    "default_step_sizes",
    "initial_state",
    "sbpd_step",
    "run",
    "ergodic_rate_constant",
    "estimate_inequality_terms",
    "certificate_holds",
    "symmetrized_energy_slack",
    "lagrangian_gap",
    "asymptotic_residual",
]


# the relative roundoff a certified step's slack may show (certificate_holds)
CERT_TOL = 1e-8


class LagrangianParts(NamedTuple):
    """f(x), Tx and h*(mu) of one point (x, mu), plus its mu.

    ``None`` marks a part that is identically zero for the problem.
    """

    f: Optional[float]
    Tx: np.ndarray
    h: Optional[float]
    mu: np.ndarray


def _lagrangian(primal, dual):
    """L(x, mu) = f(x) + <Tx, mu> - h*(mu), x from ``primal``, mu from ``dual``.

    Parts that are identically zero are left out of the sum, so each problem
    family keeps its own float expression (signed zeros included). Parts of
    a stacked point give one value per row.
    """
    value = np.vecdot(primal.Tx, dual.mu)
    if primal.f is not None:
        value = primal.f + value
    if dual.h is not None:
        value = value - dual.h
    return value


def _parts(f_value, coupling, h_star_value, x, mu):
    return LagrangianParts(None if f_value is None else f_value(x),
                           coupling.apply(x),
                           None if h_star_value is None else h_star_value(mu),
                           mu)


def _lagrangian_at(f_value, coupling, h_star_value, x, mu):
    parts = _parts(f_value, coupling, h_star_value, x, mu)
    return _lagrangian(parts, parts)


@dataclass
class SaddleProblem:
    """A convex-concave saddle problem in split form.

    The Lagrangian is f(x) + g(x) + <Tx, mu> - h*(mu) - l*(mu), with g and
    l* entering only through their D-prox handles (they typically contain
    the constraint indicators). ``f_value`` and ``h_star_value`` are the
    smooth values, ``None`` when that term is identically zero;
    ``lagrangian_eval`` evaluates the smooth and coupling parts at feasible
    points, where the indicators vanish, and defaults to the composition of
    ``parts``. Certificates measure the primal in the KL divergence and the
    dual in half the squared Euclidean distance, the pair that g_prox on
    the simplex and a Euclidean l*_prox are built on.

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
    f_value: Optional[Callable[[np.ndarray], float]]
    h_star_value: Optional[Callable[[np.ndarray], float]]
    primal_feasible: Callable[[np.ndarray], bool]
    dual_feasible: Callable[[np.ndarray], bool]
    f_partial_grad: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    lagrangian_eval: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def __post_init__(self):
        if self.L_p < 0 or self.L_d < 0:
            raise ValueError("smoothness constants must be nonnegative")
        if self.lagrangian_eval is None:
            # not a bound method: a reference cycle through self would keep
            # each problem and its data alive until a full garbage collection
            self.lagrangian_eval = functools.partial(
                _lagrangian_at, self.f_value, self.coupling, self.h_star_value)

    def parts(self, x, mu):
        """The parts f(x), Tx and h*(mu) of the Lagrangian at (x, mu)."""
        return _parts(self.f_value, self.coupling, self.h_star_value, x, mu)


@dataclass(frozen=True)
class StepSchedule:
    """Constant primal and dual step sizes ``lam`` and ``nu``."""

    lam: float
    nu: float

    def __post_init__(self):
        if not (self.lam > 0 and self.nu > 0):
            raise ValueError("step sizes must be positive")


def default_step_sizes(L_p, L_d, opnorm):
    """Symmetric step sizes 1/(L_p + ||T||) and 1/(L_d + ||T||).

    With ``opnorm`` a rho >= ||T||_{1->2} (``coupling_norm`` of a simplex
    problem), both meet the step-size bound behind the ergodic rate.
    """
    if opnorm <= 0:
        raise ValueError("opnorm must be positive")
    if L_p < 0 or L_d < 0:
        raise ValueError("smoothness constants must be nonnegative")
    return float(1.0 / (L_p + opnorm)), float(1.0 / (L_d + opnorm))


@dataclass(slots=True)
class SolverState:
    """Iterate pair plus running ergodic means after ``k`` steps.

    Slotted, not frozen (each frozen field costs an ``object.__setattr__``);
    treated as a value: ``dataclasses.replace`` makes a changed copy. A
    state may carry no means (``x_bar`` and ``mu_bar`` both ``None``); its
    steps then form none. Reproducibility needs no generator state here:
    batches are pure functions of the oracle seed and the iteration
    counter. A stacked state holds R runs as the rows of its arrays (x and
    log x of shape (R, n), the rest alike); the step's products and
    reductions act row by row, so row r is bitwise the state of the 1-d run
    it started as.
    """

    k: int
    x: BregmanPoint
    mu: np.ndarray
    x_bar: Optional[np.ndarray]
    mu_bar: Optional[np.ndarray]


def initial_state(x0, mu0, rows=None):
    """State at k = 0; ergodic means start at the (excluded) initial point.

    ``x0`` is a checked ``BregmanPoint`` and ``mu0`` must be a finite
    vector: the step path does not check its inputs again. With ``rows`` = R
    the state stacks R copies of the point, for ``run`` to step R runs
    (with a ``GradientOracle`` of R seeds) as one.
    """
    state = _bare_state(x0, mu0, rows)
    return SolverState(0, state.x, state.mu, state.x.coords.copy(), state.mu.copy())


def _bare_state(x0, mu0, rows=None):
    """``initial_state`` without ergodic means, whose steps form none."""
    mu0 = as_vector(mu0, name="mu0")
    if rows is not None:
        x0 = BregmanPoint(*(None if a is None else np.tile(a, (rows, 1))
                            for a in (x0.coords, x0.log_coords)))
        mu0 = np.tile(mu0, (rows, 1))
    return SolverState(0, x0, mu0, None, None)


def sbpd_step(problem, schedule, state, oracle=None):
    """One primal-dual step; returns the state at k + 1.

    The primal update moves against the gradient estimate plus the coupling
    pullback of the current dual point; the dual update sees the
    extrapolated point 2 x_{k+1} - x_k. Ergodic means, if the state has
    them, are updated incrementally and exclude the initial point. A
    stacked state steps every row at once, each bitwise as its own 1-d step.
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

    if state.x_bar is None:
        return SolverState(k + 1, x_next, mu_next, None, None)
    return _advance(state, x_next, mu_next)


def _advance(state, x_next, mu_next):
    """The state after a means-keeping ``state`` at (x_next, mu_next): k + 1,
    and its means moved by the one new term (the initial point is excluded)."""
    k1 = state.k + 1
    return SolverState(k1, x_next, mu_next, _moved_means(state.x_bar, k1, x_next.coords),
                       _moved_means(state.mu_bar, k1, mu_next))


def _moved_means(bar, k, new, out=None):
    """The ergodic mean after step ``k`` to ``new``: bitwise ``bar + (new -
    bar) / k`` (k < 2**53 is a float exactly), in ``out`` if given (not bar)."""
    out = np.subtract(new, bar, out)
    np.divide(out, float(k), out)
    return np.add(bar, out, out)


def run(problem, schedule, state, iterations, oracle=None, callback=None):
    """Iterate ``sbpd_step`` a fixed number of times: the one iteration loop.

    ``callback(prev_state, new_state)`` fires after every step and is where
    callers observe the run (residuals, trace rows, certificates); its
    return value, when truthy, stops the run early.

    The steps do not check their vectors. A NaN or infinity that enters one
    stays in the iterates or their ergodic means, so the returned state is
    checked once: a non-finite entry raises :class:`DomainError`.
    """
    for _ in range(iterations):
        new = sbpd_step(problem, schedule, state, oracle)
        stop = callback is not None and callback(state, new)
        state = new
        if stop:
            break
    _check_finite(state)
    return state


def _check_finite(state):
    arrays = (("x", state.x.coords), ("log x", state.x.log_coords),
              ("mu", state.mu), ("x_bar", state.x_bar), ("mu_bar", state.mu_bar))
    for name, values in arrays:
        if values is not None and not np.isfinite(values).all():
            raise DomainError(f"{name} has non-finite entries at k = {state.k}")


def _point_and_mu(w):
    # (x as a BregmanPoint, mu as float64) of w = (x, mu): two vectors, or two
    # stacks (R, .) of one row count, which must not broadcast. A BregmanPoint
    # was checked when it was built; stacked coordinates are checked through
    # their flat view, so their errors are a vector's.
    x, mu = w
    if not isinstance(x, BregmanPoint):
        x = np.asarray(x, dtype=np.float64)
        as_vector(x.reshape(-1) if x.ndim == 2 else x, name="coords")
        x = BregmanPoint(x)
    mu = np.asarray(mu, dtype=np.float64)
    if mu.shape[:-1] != x.coords.shape[:-1]:
        raise ShapeError(f"x and mu must be two vectors or two stacks of one "
                         f"row count, got shapes {x.coords.shape} and {mu.shape}")
    return x, mu


def _state_key(x, mu):
    log_x = None
    if isinstance(x, BregmanPoint):
        x, log_x = x.coords, x.log_coords
    key = []
    for a in (x, log_x, mu):
        a = None if a is None else np.asarray(a, np.float64)
        key.append(None if a is None else (a.shape, a.tobytes()))
    return tuple(key)


def _check_feasible(problem, x_coords, mu, label):
    if not problem.primal_feasible(x_coords):
        raise DomainError(f"primal part of {label} violates its constraints")
    if not problem.dual_feasible(mu):
        raise DomainError(f"dual part of {label} violates its constraints")


class ReferenceEvaluator:
    """Lagrangian gaps and energy-inequality certificates against one reference.

    Built once per reference ``w_ref``, from private copies: it checks that
    ``w_ref`` is feasible and evaluates the reference's parts f(x_ref),
    T x_ref and h*(mu_ref) and, for a nonnegative x_ref, the reference side
    of the energy (log x_ref and sum x_ref) once. It holds no other state:
    each result depends only on its arguments. ``gap`` evaluates a point's
    parts once and returns them with the gap, so the point's own Lagrangian
    and the certificate's gap term and cross term reuse them. ``schedule``
    is needed only by ``energy`` and ``certificate``.

    A stacked w (x, log x and mu of shape (R, .)) is evaluated in one pass:
    ``gap``, ``lagrangian``, ``energy`` and ``certificate`` then return one
    value per row as arrays, each bitwise the value of its row's vectors,
    and every check applies to every row.
    """

    def __init__(self, problem, schedule, w_ref):
        x_ref, mu_ref = w_ref
        self.problem = problem
        self.schedule = schedule
        if not isinstance(x_ref, BregmanPoint):
            x_ref = BregmanPoint.from_coords(x_ref)
        self.x_ref = np.array(x_ref.coords)
        self.mu_ref = np.array(mu_ref, dtype=np.float64)
        _check_feasible(problem, self.x_ref, self.mu_ref, "w_ref")
        self.ref = problem.parts(self.x_ref, self.mu_ref)
        # None for a reference with a negative entry (a Euclidean primal),
        # whose gaps evaluate but whose energy raises as _kl_terms does
        self._kl_ref = _kl_terms(self.x_ref) if (self.x_ref >= 0).all() else None

    def check(self, w):
        """``w`` as ``(BregmanPoint, mu)``, checked as ``gap`` checks it.

        Coordinates that are no ``BregmanPoint`` must be finite; then the
        primal part and the dual part must keep their constraints.
        """
        point, mu = _point_and_mu(w)
        _check_feasible(self.problem, point.coords, mu, "w")
        return point, mu

    def gap(self, w, check=True):
        """``(L(x, mu_ref) - L(x_ref, mu), parts of w)``.

        The gap is nonnegative at an exact saddle reference. ``w`` must be
        feasible; with ``check`` an indicator violation raises rather than
        propagating infinities.
        """
        point, mu = self.check(w) if check else _point_and_mu(w)
        parts = self.problem.parts(point.coords, mu)
        ref = self.ref
        return _lagrangian(parts, ref) - _lagrangian(ref, parts), parts

    @staticmethod
    def lagrangian(parts):
        """L(x, mu) at the point whose parts ``gap`` returned."""
        return _lagrangian(parts, parts)

    def energy(self, w, Tx=None):
        """E(w_ref) against w = (x, mu), with ``Tx`` as T x when given:

            KL(x_ref, x)/lam + |mu_ref - mu|^2/(2 nu) - <T x_ref - T x, mu_ref - mu>.

        The KL term is ``bregman.kl_divergence(x_ref, x)``: the log
        coordinates of x, when present, stand in for log x; otherwise x must
        be strictly positive.
        """
        point, mu = _point_and_mu(w)
        if mu.shape[-1:] != self.mu_ref.shape:
            raise ShapeError(f"mu must have the length of mu_ref, got shapes "
                             f"{self.mu_ref.shape} and {mu.shape}")
        Tx = self.problem.coupling.apply(point.coords) if Tx is None else Tx
        dp = _kl_to_point(self.x_ref, *(self._kl_ref or _kl_terms(self.x_ref)), point)
        d = self.mu_ref - mu
        return (dp / self.schedule.lam + 0.5 * np.vecdot(d, d) / self.schedule.nu
                - np.vecdot(self.ref.Tx - Tx, d))

    def certificate(self, w_k, w_next, gap, primal_delta=None, parts=None):
        """``(slack, scale)`` of the step from ``w_k`` to ``w_next``.

        ``gap`` is the gap of ``w_next`` and ``parts`` its parts, as ``gap``
        returns them; without ``parts``, T x_next is applied here.
        """
        e_k = self.energy(w_k)
        e_next = self.energy(w_next, None if parts is None else parts.Tx)
        return self.slack(e_k, e_next, w_next, gap, primal_delta)

    def slack(self, e_k, e_next, w_next, gap, primal_delta):
        """``(slack, scale)`` of the step to ``w_next``, given its E_k, E_{k+1}
        and gap (``energy``, ``gap``); ``w_next`` is not checked here."""
        noise = 0.0
        if primal_delta is not None:
            x_n = w_next[0]
            if isinstance(x_n, BregmanPoint):
                x_n = x_n.coords
            noise += np.vecdot(np.asarray(primal_delta), self.x_ref - x_n)
        slack = e_k + noise - gap - e_next
        terms = (abs(e_k), abs(e_next), abs(gap), abs(noise))
        if slack.ndim == 0:
            return slack, 1.0 + max(terms)
        # max's rule on each row: a later term wins only where it is greater,
        # so a NaN term wins only in first place
        top = functools.reduce(lambda top, t: np.where(t > top, t, top), terms)
        return slack, 1.0 + top


def lagrangian_gap(problem, w, w_ref):
    """L(x, mu_ref) - L(x_ref, mu); nonnegative at an exact saddle reference.

    All four points must be feasible; indicator violations raise rather
    than propagating infinities.
    """
    return ReferenceEvaluator(problem, None, w_ref).gap(w)[0]


def ergodic_rate_constant(problem, schedule, w_ref, w0):
    """The constant C0 of the ergodic rate bound C0 / k.

    C0 = D_p(x_ref, x0)/lam + D_d(mu_ref, mu0)/nu - <T(x_ref - x0),
    mu_ref - mu0>, the energy E_0(w_ref). ``w_ref`` must be feasible.
    """
    return float(ReferenceEvaluator(problem, schedule, w_ref).energy(w0))


# (problem, schedule, reference key, evaluator, key of the last w_next, its
# energy) of the last estimate_inequality_terms call, replaced as one tuple so
# that each call reads a consistent entry; at module level, because an
# evaluator kept on the problem would form a reference cycle through it
_memo = (None,) * 6


def estimate_inequality_terms(problem, schedule, w_k, w_next, w_ref,
                              k=0, primal_delta=None):
    """Slack and magnitude scale of the per-iteration energy inequality.

    The inequality bounds the one-step Lagrangian gap plus the next
    weighted-divergence energy by the current energy (plus the noise
    pairing when the primal gradient estimate was inexact):

        gap(w_{k+1}) + E_{k+1}(w_ref) <= E_k(w_ref) + <delta, x_ref - x_{k+1}>

    where E_j(w) = D_p(x, x_j)/lam + D_d(mu, mu_j)/nu - <T(x - x_j),
    mu - mu_j>. Returns ``(slack, scale)`` with slack = RHS - LHS and scale
    = 1 + the largest term magnitude; nonnegative slack up to roundoff is
    the certified behavior. ``k`` is the index of ``w_k``; with constant
    steps the inequality does not depend on it. Only ``w_ref`` is checked
    for feasibility.

    Callers certify many steps against one reference, so the last call's
    ``ReferenceEvaluator`` and E_{k+1} are kept in a one-entry memo. The
    evaluator is keyed by the problem's identity, the schedule's value and
    the shapes and float64 bytes of ``w_ref``; a miss builds it, with every
    check, from private copies of the reference, so a reference changed in
    place misses and is checked again. E_{k+1} is keyed by the shapes and
    float64 bytes of x, of log x (``None`` without) and of mu of ``w_next``,
    and stands in for E_k of the next call only when its evaluator hits and
    its ``w_k`` has that key, so no result depends on the call order.
    Threads may share the memo: each call reads and replaces the whole
    entry, so threads on different references or states only lose the reuse.
    """
    global _memo
    ref_key = _state_key(*w_ref)
    last_problem, last_schedule, last_ref, evaluator, last_key, e_k = _memo
    hit = last_problem is problem and last_schedule == schedule and last_ref == ref_key
    if not hit:
        evaluator = ReferenceEvaluator(problem, schedule, w_ref)
    gap, parts = evaluator.gap(w_next, check=False)
    if not hit or _state_key(*w_k) != last_key:
        e_k = evaluator.energy(w_k)
    e_next = evaluator.energy(w_next, parts.Tx)
    _memo = (problem, schedule, ref_key, evaluator, _state_key(*w_next), e_next)
    return evaluator.slack(e_k, e_next, w_next, gap, primal_delta)


def certificate_holds(slack, scale):
    """Whether a certified step holds: ``slack >= -1e-8 * scale``.

    ``(slack, scale)`` as ``estimate_inequality_terms`` and
    ``ReferenceEvaluator.certificate`` return them; a NaN slack does not hold.
    """
    return slack >= -CERT_TOL * scale


def symmetrized_energy_slack(problem, schedule, w1, w2):
    """Slack of the cross-term domination inequality, nonnegative in theory.

    Returns (1/Lambda)(D(w1, w2) + D(w2, w1)) - 2 M(w1, w2), which is the
    energy of w2 against w1 plus that of w1 against w2, since the cross term
    is symmetric. Valid step sizes make this nonnegative for every pair of
    admissible points, which is what lets the noise pairing of inexact
    updates be controlled. Both points must be feasible.
    """
    return float(ReferenceEvaluator(problem, schedule, w1).energy(w2)
                 + ReferenceEvaluator(problem, schedule, w2).energy(w1))


def asymptotic_residual(state_k, state_next):
    """||x_{k+1} - x_k||_1 + ||mu_{k+1} - mu_k||_2 between consecutive states.

    Stacked states give one residual per row, each bitwise its 1-d run's.
    """
    dx = np.abs(state_next.x.coords - state_k.x.coords).sum(axis=-1)
    d = state_next.mu - state_k.mu
    # sqrt of the dot is bitwise np.linalg.norm(d), which takes this form
    return dx + np.sqrt(np.vecdot(d, d))
