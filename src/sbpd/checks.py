"""Numerical self-checks runnable from the command line.

Every suite draws fresh randomized instances (seeded, so reruns agree) and
counts violations of a contract the library is supposed to satisfy: adjoint
pairings, divergence inequalities, prox optimality, oracle statistics, and
the per-iteration energy certificate. ``fast`` trims the sample counts to
keep the whole battery under half a minute; ``full`` runs the real volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import (
    BregmanPoint,
    EuclideanEnergy,
    ShannonBoltzmann,
    bregman_divergence,
    kl_prox_simplex,
    linf_ball_prox,
    pinsker_slack,
    three_point_identity_check,
)
from .linalg import (
    ConvolutionMap,
    DenseMatrixMap,
    ForwardDifferenceMap,
    VerticalStackMap,
    operator_norm,
)
from .oracle import GradientOracle
from .problems import (
    build_ot_inverse,
    build_simplex_tv,
    bump_kernel,
    ot_semidual_value_grad,
)
from .solver import (
    estimate_inequality_terms,
    initial_state,
    sbpd_step,
    symmetrized_energy_slack,
)

__all__ = [
    "CheckResult",
    "CheckReport",
    "adjoint_consistency_failures",
    "run_check_suite",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    samples: int
    failures: int
    detail: str = ""

    @property
    def passed(self):
        return self.failures == 0

    def line(self):
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{status}  {self.name}: {self.failures}/{self.samples} violations{extra}"


@dataclass(frozen=True)
class CheckReport:
    level: str
    results: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def lines(self):
        out = [r.line() for r in self.results]
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        out.append(f"{verdict} ({self.level} level, {len(self.results)} suites)")
        return out


def _pick(level, fast, full):
    return fast if level == "fast" else full


def _operator_zoo(rng):
    return [
        ("forward-difference", ForwardDifferenceMap(40)),
        ("dense", DenseMatrixMap(rng.standard_normal((12, 7)))),
        ("convolution", ConvolutionMap(30, bump_kernel(4))),
        ("identity", DenseMatrixMap(np.eye(9))),
        ("zero", DenseMatrixMap(np.zeros((4, 6)))),
        ("stack", VerticalStackMap([ForwardDifferenceMap(10),
                                    DenseMatrixMap(rng.standard_normal((5, 10)))])),
    ]


def adjoint_consistency_failures(op, pairs, seed=0, tol=1e-10):
    """Count pairs where <op x, y> and <x, op* y> disagree beyond roundoff."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(pairs):
        x = rng.standard_normal(op.input_dim)
        y = rng.standard_normal(op.output_dim)
        lhs = float(op.apply(x) @ y)
        rhs = float(x @ op.adjoint_apply(y))
        if abs(lhs - rhs) > tol * (1.0 + abs(lhs)):
            failures += 1
    return failures


def _check_adjoints(level):
    pairs = _pick(level, 25, 100)
    rng = np.random.default_rng(101)
    failures = 0
    total = 0
    for _, op in _operator_zoo(rng):
        failures += adjoint_consistency_failures(op, pairs, seed=7)
        total += pairs
    return CheckResult("adjoint-consistency", total, failures)


def _check_linearity(level):
    triples = _pick(level, 10, 40)
    rng = np.random.default_rng(102)
    failures = 0
    total = 0
    for _, op in _operator_zoo(rng):
        for _ in range(triples):
            x = rng.standard_normal(op.input_dim)
            y = rng.standard_normal(op.input_dim)
            a, b = rng.standard_normal(2)
            lhs = op.apply(a * x + b * y)
            rhs = a * op.apply(x) + b * op.apply(y)
            if np.abs(lhs - rhs).max() > 1e-11 * (1.0 + np.abs(rhs).max()):
                failures += 1
            total += 1
    return CheckResult("operator-linearity", total, failures)


def _check_operator_norms(level):
    rng = np.random.default_rng(103)
    facts = []
    facts.append(abs(operator_norm(DenseMatrixMap(np.eye(7))) - 1.0) <= 1e-9)
    facts.append(abs(operator_norm(DenseMatrixMap(np.diag([3.0, -4.0]))) - 4.0) <= 1e-8)
    fd_norm = operator_norm(ForwardDifferenceMap(250))
    facts.append(1.99 < fd_norm < 2.0)
    blocks = [ForwardDifferenceMap(20), DenseMatrixMap(rng.standard_normal((8, 20)))]
    stack_norm = operator_norm(VerticalStackMap(blocks))
    lo = max(operator_norm(b) for b in blocks)
    hi = float(np.sqrt(sum(operator_norm(b) ** 2 for b in blocks))) + 1e-9
    facts.append(lo - 1e-9 <= stack_norm <= hi)
    facts.append(operator_norm(DenseMatrixMap(np.zeros((3, 5)))) == 0.0)
    failures = sum(1 for ok in facts if not ok)
    return CheckResult("operator-norm-bounds", len(facts), failures)


def _check_divergence_nonnegativity(level):
    n = _pick(level, 200, 1000)
    rng = np.random.default_rng(104)
    failures = 0
    shannon = ShannonBoltzmann(6)
    euclid = EuclideanEnergy(6)
    for _ in range(n):
        x = rng.dirichlet(np.ones(6))
        y = rng.dirichlet(np.ones(6)) + 1e-12
        y = y / y.sum()
        if bregman_divergence(shannon, x, y) < -1e-12:
            failures += 1
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        if bregman_divergence(euclid, u, v) < -1e-12:
            failures += 1
    return CheckResult("divergence-nonnegativity", 2 * n, failures)


def _check_entropy_gradients(level):
    n = _pick(level, 20, 100)
    rng = np.random.default_rng(105)
    failures = 0
    h = 1e-6
    shannon = ShannonBoltzmann(5)
    euclid = EuclideanEnergy(5)
    for _ in range(n):
        for phi, point in ((shannon, rng.dirichlet(np.full(5, 5.0)) + 0.01),
                           (euclid, rng.standard_normal(5))):
            point = point / point.sum() if phi is shannon else point
            grad = phi.gradient(point)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (phi.value(point + e) - phi.value(point - e)) / (2 * h)
                if abs(fd - grad[i]) > 1e-5 * (1.0 + abs(grad[i])):
                    failures += 1
    return CheckResult("entropy-gradient", 10 * n, failures)


def _grid_simplex(step):
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    mask = a + b <= 1.0 + 1e-12
    a, b = a[mask], b[mask]
    return np.stack([a, b, 1.0 - a - b], axis=1)


def _check_prox_optimality(level):
    instances = _pick(level, 2, 5)
    rng = np.random.default_rng(106)
    grid = np.clip(_grid_simplex(2e-3), 1e-300, None)
    failures = 0
    total = 0
    for _ in range(instances):
        x = BregmanPoint.from_positive_coords(rng.dirichlet(np.full(3, 4.0)) + 1e-3)
        x = BregmanPoint.from_positive_coords(x.coords / x.coords.sum())
        v = rng.standard_normal(3) * 2.0
        lam = float(rng.uniform(0.1, 1.5))
        out = kl_prox_simplex(x, v, lam)
        objective = (grid @ v
                     + (np.sum(np.where(grid > 0, grid * (np.log(grid) - x.log_coords), 0.0), axis=1)
                        + 1.0 - grid.sum(axis=1)) / lam)
        own = float(out.coords @ v) + bregman_divergence(
            ShannonBoltzmann(3), out.coords, x.coords) / lam
        if own > objective.min() + 1e-8:
            failures += 1
        total += 1
    coords = _pick(level, 10, 50)
    ticks = np.linspace(-1.0, 1.0, 4001)
    for _ in range(coords):
        mu = rng.uniform(-1.0, 1.0, 1)
        v = rng.standard_normal(1)
        nu = float(rng.uniform(0.1, 2.0))
        beta = 1.0
        out = linf_ball_prox(mu, v, nu, beta)
        objective = ticks * v[0] + (ticks - mu[0]) ** 2 / (2 * nu)
        own = out[0] * v[0] + (out[0] - mu[0]) ** 2 / (2 * nu)
        if own > objective.min() + 1e-7:
            failures += 1
        total += 1
    return CheckResult("prox-grid-optimality", total, failures)


def _check_pinsker(level):
    n = _pick(level, 1000, 10_000)
    rng = np.random.default_rng(107)
    failures = 0
    for _ in range(n):
        dim = int(rng.integers(2, 9))
        x = rng.dirichlet(np.full(dim, rng.uniform(0.2, 3.0)))
        y = rng.dirichlet(np.full(dim, rng.uniform(0.2, 3.0))) + 1e-13
        y = y / y.sum()
        if pinsker_slack(x, y) < -1e-12:
            failures += 1
    return CheckResult("pinsker-inequality", n, failures)


def _check_three_point(level):
    n = _pick(level, 200, 1000)
    rng = np.random.default_rng(108)
    failures = 0
    shannon = ShannonBoltzmann(5)
    euclid = EuclideanEnergy(5)
    for _ in range(n):
        for phi in (shannon, euclid):
            if phi is shannon:
                pts = [rng.dirichlet(np.full(5, 2.0)) + 1e-9 for _ in range(3)]
                pts = [p / p.sum() for p in pts]
            else:
                pts = [rng.standard_normal(5) for _ in range(3)]
            if three_point_identity_check(phi, *pts) > 1e-8:
                failures += 1
    return CheckResult("three-point-identity", 2 * n, failures)


def _check_primal_descent(level):
    n = _pick(level, 200, 1000)
    problem = build_simplex_tv(30, 40, seed=3)
    rng = np.random.default_rng(109)
    shannon = ShannonBoltzmann(30)
    failures = 0
    for _ in range(n):
        x = rng.dirichlet(np.ones(30))
        y = rng.dirichlet(np.ones(30)) + 1e-12
        y = y / y.sum()
        x = x + 1e-12
        x = x / x.sum()
        lhs = problem.f_value(y)
        rhs = (problem.f_value(x) + problem.f_grad(x) @ (y - x)
               + problem.L_p * bregman_divergence(shannon, y, x))
        if lhs > rhs + 1e-9 * (1.0 + abs(rhs)):
            failures += 1
    return CheckResult("primal-descent-lemma", n, failures)


def _check_dual_descent(level):
    n = _pick(level, 100, 500)
    problem = build_ot_inverse(25, seed=5, gamma=1.0)
    rng = np.random.default_rng(110)
    failures = 0
    for _ in range(n):
        t1 = rng.standard_normal(25) * 3.0
        t2 = t1 + rng.standard_normal(25) * rng.uniform(0.01, 2.0)
        v1, g1 = ot_semidual_value_grad(t1, problem.theta, problem.C, problem.gamma)
        v2, _ = ot_semidual_value_grad(t2, problem.theta, problem.C, problem.gamma)
        d = t2 - t1
        rhs = v1 + g1 @ d + 0.5 * problem.L_d * float(d @ d)
        if v2 > rhs + 1e-9 * (1.0 + abs(rhs)):
            failures += 1
    return CheckResult("dual-descent-lemma", n, failures)


def _check_lipschitz_ratio(level):
    pairs = _pick(level, 100, 1000)
    failures = 0
    total = 0
    for gamma in (0.5, 1.0, 2.0):
        problem = build_ot_inverse(20, seed=6, gamma=gamma)
        rng = np.random.default_rng(111)
        for _ in range(pairs):
            t1 = rng.standard_normal(20) * 2.0
            t2 = rng.standard_normal(20) * 2.0
            _, g1 = ot_semidual_value_grad(t1, problem.theta, problem.C, gamma)
            _, g2 = ot_semidual_value_grad(t2, problem.theta, problem.C, gamma)
            num = float(np.linalg.norm(g1 - g2))
            den = float(np.linalg.norm(t1 - t2))
            if den > 0 and num / den > 1.0 / gamma + 1e-9:
                failures += 1
            total += 1
    return CheckResult("semidual-lipschitz-ratio", total, failures)


def _check_estimate_inequality(level):
    iters = _pick(level, 10, 40)
    problem = build_simplex_tv(8, 10, seed=21)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    rng = np.random.default_rng(112)
    refs = []
    for _ in range(3):
        x_ref = rng.dirichlet(np.ones(8))
        mu_ref = rng.uniform(-1.0, 1.0, 7) * problem.beta
        refs.append((x_ref, mu_ref))
    x0, mu0 = problem.initial_point()
    state = initial_state(x0, mu0)
    failures = 0
    total = 0
    for _ in range(iters):
        new = sbpd_step(saddle, schedule, state)
        for ref in refs:
            slack, scale = estimate_inequality_terms(
                saddle, schedule, (state.x, state.mu), (new.x, new.mu),
                ref, k=state.k)
            if slack < -1e-8 * scale:
                failures += 1
            total += 1
        state = new
    return CheckResult("estimate-inequality", total, failures)


def _check_cross_term(level):
    n = _pick(level, 100, 500)
    problem = build_simplex_tv(12, 15, seed=22)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    rng = np.random.default_rng(113)
    failures = 0
    for _ in range(n):
        x1 = rng.dirichlet(np.ones(12)) + 1e-12
        x2 = rng.dirichlet(np.ones(12)) + 1e-12
        w1 = (x1 / x1.sum(), rng.uniform(-1, 1, 11) * problem.beta)
        w2 = (x2 / x2.sum(), rng.uniform(-1, 1, 11) * problem.beta)
        if symmetrized_energy_slack(saddle, schedule, w1, w2) < -1e-10:
            failures += 1
    return CheckResult("cross-term-positivity", n, failures)


def _check_oracle_unbiasedness(level, mode="scaled-unbiased"):
    draws = _pick(level, 500, 5000)
    problem = build_simplex_tv(9, 30, seed=23)
    x = np.full(9, 1.0 / 9)
    full = problem.f_grad(x)
    oracle = GradientOracle(mode, 7, seed=900, m=30)
    deltas = np.empty((draws, 9))
    for k in range(draws):
        est = oracle.estimate(problem.f_grad, problem.f_partial_grad, x, k)
        deltas[k] = est - full
    mean = deltas.mean(axis=0)
    centered = deltas - mean
    sigma = float(np.sqrt((centered ** 2).sum() / (draws - 1)))
    bound = 4.0 * sigma / np.sqrt(draws)
    ok = float(np.linalg.norm(mean)) <= bound
    return ok, float(np.linalg.norm(mean)), bound


def _check_unbiasedness(level):
    ok, norm, bound = _check_oracle_unbiasedness(level, "scaled-unbiased")
    return CheckResult("oracle-unbiasedness", 1, 0 if ok else 1,
                       detail=f"|mean|={norm:.3e} bound={bound:.3e}")


def _check_bias_control(level):
    # the partial-sum oracle is biased; the same test must reject it
    ok, norm, bound = _check_oracle_unbiasedness(level, "paper-partial")
    return CheckResult("oracle-bias-control", 1, 1 if ok else 0,
                       detail=f"|mean|={norm:.3e} bound={bound:.3e}")


def _check_oracle_boundedness(level):
    draws = _pick(level, 200, 1000)
    problem = build_simplex_tv(9, 30, seed=24)
    A = problem.A.matrix
    rng = np.random.default_rng(114)
    oracle = GradientOracle("paper-partial", 7, seed=901, m=30)
    failures = 0
    for k in range(draws):
        x = rng.dirichlet(np.ones(9)) + 1e-9
        x = x / x.sum()
        est, delta = oracle.grad_estimate(
            problem.f_grad, problem.f_partial_grad, x, k)
        batch = oracle.sample_batch(k)
        comp = np.setdiff1d(np.arange(30), batch)
        sub = A[comp]
        bound = (np.linalg.norm(sub, 2)
                 * (np.linalg.norm(np.log(sub @ x))
                    + np.linalg.norm(np.log(problem.b[comp]))))
        if np.linalg.norm(delta) > bound + 1e-9:
            failures += 1
    return CheckResult("oracle-boundedness", draws, failures)


def _check_batch_frequency(level):
    draws = _pick(level, 5000, 50_000)
    tol = _pick(level, 0.02, 0.01)
    oracle = GradientOracle("paper-partial", 3, seed=902, m=10)
    counts = np.zeros(10)
    for k in range(draws):
        counts[oracle.sample_batch(k)] += 1
    freq = counts / draws
    failures = int(np.sum(np.abs(freq - 0.3) > tol))
    return CheckResult("batch-frequency", 10, failures,
                       detail=f"max dev {np.abs(freq - 0.3).max():.4f}")


def _check_ergodic_consistency(level):
    iters = _pick(level, 300, 2000)
    problem = build_simplex_tv(6, 8, seed=25)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    x0, mu0 = problem.initial_point()
    state = initial_state(x0, mu0)
    xs, mus = [], []
    failures = 0
    for _ in range(iters):
        state = sbpd_step(saddle, schedule, state)
        xs.append(state.x.coords)
        mus.append(state.mu)
        if (np.abs(state.x_bar - np.mean(xs, axis=0)).max() > 1e-10
                or np.abs(state.mu_bar - np.mean(mus, axis=0)).max() > 1e-10):
            failures += 1
    return CheckResult("ergodic-consistency", iters, failures)


def _check_simplex_preservation(level):
    n = _pick(level, 50, 200)
    rng = np.random.default_rng(115)
    conv = ConvolutionMap(40, bump_kernel(6))
    problem = build_simplex_tv(10, 12, seed=26)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    x0, mu0 = problem.initial_point()
    state = initial_state(x0, mu0)
    failures = 0
    total = 0
    for _ in range(n):
        x = rng.dirichlet(np.ones(40))
        y = conv.apply(x)
        if np.any(y < -1e-15) or abs(y.sum() - 1.0) > 1e-9:
            failures += 1
        total += 1
    for _ in range(min(n, 100)):
        state = sbpd_step(saddle, schedule, state)
        if (abs(state.x.coords.sum() - 1.0) > 1e-9
                or np.any(state.x.coords < 0)
                or np.abs(state.mu).max() > problem.beta + 1e-12):
            failures += 1
        total += 1
    return CheckResult("simplex-preservation", total, failures)


_SUITES = (
    _check_adjoints,
    _check_linearity,
    _check_operator_norms,
    _check_divergence_nonnegativity,
    _check_entropy_gradients,
    _check_prox_optimality,
    _check_pinsker,
    _check_three_point,
    _check_primal_descent,
    _check_dual_descent,
    _check_lipschitz_ratio,
    _check_estimate_inequality,
    _check_cross_term,
    _check_unbiasedness,
    _check_bias_control,
    _check_oracle_boundedness,
    _check_batch_frequency,
    _check_ergodic_consistency,
    _check_simplex_preservation,
)


def run_check_suite(level="fast"):
    """Run every suite at the given level and collect a report."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    return CheckReport(level=level, results=tuple(fn(level) for fn in _SUITES))
