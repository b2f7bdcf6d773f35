"""Numerical self-checks runnable from the command line.

Every suite draws fresh randomized instances (seeded, so reruns agree) and
samples a contract the library is supposed to satisfy: adjoint pairings,
divergence inequalities, prox optimality, oracle statistics, and the
per-iteration energy certificate. The suites are the one home of each
sampled contract: the test suite runs every entry of ``SUITES`` at ``full``
level, and no unit test re-samples a contract that a suite covers. ``fast``
trims the sample counts to keep the whole battery under five seconds;
``full`` runs the real volumes.

A suite is a generator that yields one verdict per sample, ``True`` for a
violation. A suite with more to report than its counts returns that detail,
a string, as the generator's return value. One tally counts the verdicts:
``SUITES[name](level)`` returns ``(samples, failures)``, plus the detail
when the suite returns one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bregman import (
    BregmanPoint,
    euclidean_divergence,
    kl_divergence,
    kl_prox_simplex,
    linf_ball_prox,
    pinsker_slack,
    three_point_identity_check,
)
from .linalg import (
    LinearMap,
    convolution_matrix,
    forward_difference_matrix,
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
    ReferenceEvaluator,
    certificate_holds,
    initial_state,
    run,
    symmetrized_energy_slack,
)

__all__ = [
    "CheckResult",
    "CheckReport",
    "SUITES",
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
        ("forward-difference", LinearMap(forward_difference_matrix(40))),
        ("dense", LinearMap(rng.standard_normal((12, 7)))),
        ("convolution", LinearMap(convolution_matrix(30, bump_kernel(4)))),
        ("identity", LinearMap(np.eye(9))),
        ("zero", LinearMap(np.zeros((4, 6)))),
        ("stack", LinearMap(np.vstack([forward_difference_matrix(10),
                                       rng.standard_normal((5, 10))]))),
    ]


def _adjoint_verdicts(op, pairs, seed, tol):
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(op.input_dim), rng.standard_normal(op.output_dim))
             for _ in range(pairs)]
    xs = np.array([x for x, _ in draws])
    ys = np.array([y for _, y in draws])
    for x, y, tx, ty in zip(xs, ys, op.apply(xs), op.adjoint_apply(ys)):
        lhs = float(tx @ y)
        rhs = float(x @ ty)
        yield (abs(lhs - rhs) > tol * (1.0 + abs(lhs))
               or tx.tobytes() != op.apply(x).tobytes()
               or ty.tobytes() != op.adjoint_apply(y).tobytes())


def adjoint_consistency_failures(op, pairs, seed=0, tol=1e-10):
    """Count pairs where <op x, y> and <x, op* y> disagree beyond roundoff.

    The pairs go through ``apply`` and ``adjoint_apply`` as one stack of x's
    and one of y's; a pair also fails when its rows of the stacked products
    are not bitwise the 1-d products of its x and y.
    """
    return sum(_adjoint_verdicts(op, pairs, seed, tol))


def _check_adjoints(level):
    pairs = _pick(level, 25, 100)
    for _, op in _operator_zoo(np.random.default_rng(101)):
        yield from _adjoint_verdicts(op, pairs, seed=7, tol=1e-10)


def _check_linearity(level):
    triples = _pick(level, 10, 40)
    rng = np.random.default_rng(102)
    for _, op in _operator_zoo(rng):
        for _ in range(triples):
            x = rng.standard_normal(op.input_dim)
            y = rng.standard_normal(op.input_dim)
            a, b = rng.standard_normal(2)
            # one stacked apply, each row bitwise its vector's own apply
            points = np.array([a * x + b * y, x, y])
            images = op.apply(points)
            lhs, tx, ty = images
            rhs = a * tx + b * ty
            yield (np.abs(lhs - rhs).max() > 1e-12 * (1.0 + np.abs(rhs).max())
                   or any(image.tobytes() != op.apply(point).tobytes()
                          for point, image in zip(points, images)))


def _check_operator_norms(level):
    rng = np.random.default_rng(103)
    yield not abs(operator_norm(LinearMap(np.eye(7))) - 1.0) <= 1e-9
    yield not abs(operator_norm(LinearMap(np.diag([3.0, -4.0]))) - 4.0) <= 1e-8
    fd_norm = operator_norm(LinearMap(forward_difference_matrix(250)))
    fd_exact = 2.0 * np.cos(np.pi / 500)  # closed form 2 cos(pi / 2n) at n = 250
    yield not abs(fd_norm - fd_exact) <= 1e-12 * fd_exact
    blocks = [LinearMap(forward_difference_matrix(20)),
              LinearMap(rng.standard_normal((8, 20)))]
    stack_norm = operator_norm(LinearMap(np.vstack([b.matrix for b in blocks])))
    lo = max(operator_norm(b) for b in blocks)
    hi = float(np.sqrt(sum(operator_norm(b) ** 2 for b in blocks))) + 1e-9
    yield not lo - 1e-9 <= stack_norm <= hi
    yield operator_norm(LinearMap(np.zeros((3, 5)))) != 0.0


def _check_divergence_nonnegativity(level):
    n = _pick(level, 200, 1000)
    rng = np.random.default_rng(104)
    for dim in (6, 8):
        for _ in range(n):
            x = rng.dirichlet(np.ones(dim))
            y = rng.dirichlet(np.ones(dim)) + 1e-12
            y = y / y.sum()
            yield kl_divergence(x, y) < -1e-13
            u = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            yield euclidean_divergence(u, v) < 0.0


def _check_entropy_gradients(level):
    # grad_x D(x, y) = grad phi(x) - grad phi(y): log x - log y for KL,
    # x - y for the Euclidean divergence, against central differences
    n = _pick(level, 20, 100)
    rng = np.random.default_rng(105)
    h = 1e-6
    for _ in range(n):
        on_simplex = rng.dirichlet(np.full(5, 5.0)) + 0.01
        on_simplex /= on_simplex.sum()
        # the entropy lives on the whole orthant, not only on the simplex
        off_simplex = rng.dirichlet(np.ones(5)) + 0.05
        ref = rng.dirichlet(np.ones(5)) + 0.05
        u, v = rng.standard_normal((2, 5))
        for div, x, y, grad in (
                (kl_divergence, on_simplex, ref, np.log(on_simplex) - np.log(ref)),
                (kl_divergence, off_simplex, ref, np.log(off_simplex) - np.log(ref)),
                (euclidean_divergence, u, v, u - v)):
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (div(x + e, y) - div(x - e, y)) / (2 * h)
                yield abs(fd - grad[i]) > max(1e-5 * abs(grad[i]), 1e-7)


def _grid_simplex(step):
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    mask = a + b <= 1.0 + 1e-12
    a, b = a[mask], b[mask]
    return np.stack([a, b, 1.0 - a - b], axis=1)


def _check_prox_optimality(level):
    rng = np.random.default_rng(106)
    grid = np.clip(_grid_simplex(2e-3), 1e-300, None)
    for _ in range(_pick(level, 2, 5)):
        x = BregmanPoint.from_positive_coords(rng.dirichlet(np.full(3, 4.0)) + 1e-3)
        x = BregmanPoint.from_positive_coords(x.coords / x.coords.sum())
        v = rng.standard_normal(3) * 2.0
        lam = float(rng.uniform(0.1, 1.5))
        out = kl_prox_simplex(x, v, lam)
        objective = (grid @ v
                     + (np.sum(np.where(grid > 0, grid * (np.log(grid) - x.log_coords), 0.0), axis=1)
                        + 1.0 - grid.sum(axis=1)) / lam)
        own = float(out.coords @ v) + kl_divergence(out.coords, x.coords) / lam
        yield own > objective.min() + 1e-8
    ticks = np.linspace(-1.0, 1.0, 4001)
    for _ in range(_pick(level, 10, 50)):
        mu = rng.uniform(-1.0, 1.0, 1)
        v = rng.standard_normal(1)
        nu = float(rng.uniform(0.1, 2.0))
        beta = 1.0
        out = linf_ball_prox(mu, v, nu, beta)
        objective = ticks * v[0] + (ticks - mu[0]) ** 2 / (2 * nu)
        own = out[0] * v[0] + (out[0] - mu[0]) ** 2 / (2 * nu)
        yield own > objective.min() + 1e-7


def _check_pinsker(level):
    rng = np.random.default_rng(107)
    for _ in range(_pick(level, 1000, 10_000)):
        dim = int(rng.integers(2, 12))
        x = rng.dirichlet(np.full(dim, rng.uniform(0.2, 3.0)))
        y = rng.dirichlet(np.full(dim, rng.uniform(0.2, 3.0))) + 1e-13
        y = y / y.sum()
        yield pinsker_slack(x, y) < -1e-12


def _check_three_point(level):
    rng = np.random.default_rng(108)
    for _ in range(_pick(level, 200, 1000)):
        pts = [rng.dirichlet(np.full(5, 2.0)) + 1e-9 for _ in range(3)]
        x, y, z = [p / p.sum() for p in pts]
        yield three_point_identity_check(x, y, z) > 1e-10 * (1.0 + kl_divergence(x, z))
        # Euclidean: the mirror-map difference is y - z
        x, y, z = [rng.standard_normal(5) for _ in range(3)]
        resid = (euclidean_divergence(x, z) - euclidean_divergence(x, y)
                 - euclidean_divergence(y, z) - float((y - z) @ (x - y)))
        yield abs(resid) > 1e-12


def _check_primal_descent(level):
    n = _pick(level, 200, 1000)
    rng = np.random.default_rng(109)
    # A with more rows than columns, then with more columns than rows
    for dim, m in ((30, 40), (12, 10)):
        problem = build_simplex_tv(dim, m, seed=3)
        for _ in range(n):
            x = rng.dirichlet(np.ones(dim))
            y = rng.dirichlet(np.ones(dim)) + 1e-12
            y = y / y.sum()
            x = x + 1e-12
            x = x / x.sum()
            lhs = problem.f_value(y)
            rhs = (problem.f_value(x) + problem.f_grad(x) @ (y - x)
                   + problem.L_p * kl_divergence(y, x))
            yield lhs > rhs + 1e-9 * (1.0 + abs(rhs))


def _check_dual_descent(level):
    problem = build_ot_inverse(25, seed=5, gamma=1.0)
    rng = np.random.default_rng(110)
    for _ in range(_pick(level, 100, 500)):
        t1 = rng.standard_normal(25) * 3.0
        t2 = t1 + rng.standard_normal(25) * rng.uniform(0.01, 2.0)
        v1, g1 = ot_semidual_value_grad(t1, problem.theta, problem.C, problem.gamma)
        v2, _ = ot_semidual_value_grad(t2, problem.theta, problem.C, problem.gamma)
        d = t2 - t1
        rhs = v1 + g1 @ d + 0.5 * problem.L_d * float(d @ d)
        yield v2 > rhs + 1e-9 * (1.0 + abs(rhs))


def _check_lipschitz_ratio(level):
    pairs = _pick(level, 100, 1000)
    for gamma in (0.5, 1.0, 2.0):
        problem = build_ot_inverse(20, seed=6, gamma=gamma)
        rng = np.random.default_rng(111)
        for _ in range(pairs):
            far = rng.standard_normal(20) * 2.0, rng.standard_normal(20) * 2.0
            # near pair: offsets at every scale from 1e-6 to 5
            t = rng.standard_normal(20) * rng.uniform(0.1, 10.0)
            eps = 10.0 ** rng.uniform(-6.0, np.log10(5.0))
            near = t, t + rng.standard_normal(20) * eps
            for t1, t2 in (far, near):
                _, g1 = ot_semidual_value_grad(t1, problem.theta, problem.C, gamma)
                _, g2 = ot_semidual_value_grad(t2, problem.theta, problem.C, gamma)
                num = float(np.linalg.norm(g1 - g2))
                den = float(np.linalg.norm(t1 - t2))
                yield den > 0 and num / den > 1.0 / gamma + 1e-9


def _check_estimate_inequality(level):
    iters = _pick(level, 10, 100)
    problem = build_simplex_tv(8, 10, seed=21)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    rng = np.random.default_rng(112)
    refs = []
    for _ in range(_pick(level, 3, 5)):
        x_ref = rng.dirichlet(np.ones(8))
        mu_ref = rng.uniform(-1.0, 1.0, 7) * problem.beta
        refs.append((x_ref, mu_ref))
    pairs = []
    run(saddle, schedule, initial_state(*problem.initial_point()), iters,
        callback=lambda prev, new: pairs.append(
            ((prev.x, prev.mu), (new.x, new.mu))))
    # one evaluator per reference, which evaluates both energies of each step
    for ref in refs:
        evaluator = ReferenceEvaluator(saddle, schedule, ref)
        for w_k, w_next in pairs:
            gap, parts = evaluator.gap(w_next, check=False)
            yield not certificate_holds(
                *evaluator.certificate(w_k, w_next, gap, parts=parts))


def _check_cross_term(level):
    problem = build_simplex_tv(12, 15, seed=22)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    rng = np.random.default_rng(113)
    for _ in range(_pick(level, 100, 500)):
        x1 = rng.dirichlet(np.ones(12)) + 1e-12
        x2 = rng.dirichlet(np.ones(12)) + 1e-12
        w1 = (x1 / x1.sum(), rng.uniform(-1, 1, 11) * problem.beta)
        w2 = (x2 / x2.sum(), rng.uniform(-1, 1, 11) * problem.beta)
        yield symmetrized_energy_slack(saddle, schedule, w1, w2) < -1e-10


def _oracle_mean_error(level, mode):
    # |mean error| of the oracle's estimates at one point, and the 4-sigma
    # bound it stays under when the oracle is unbiased
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
    return float(np.linalg.norm(mean)), 4.0 * sigma / np.sqrt(draws)


def _check_unbiasedness(level):
    norm, bound = _oracle_mean_error(level, "scaled-unbiased")
    yield not norm <= bound
    return f"|mean|={norm:.3e} bound={bound:.3e}"


def _check_bias_control(level):
    # the partial-sum oracle is biased; the same test must reject it
    norm, bound = _oracle_mean_error(level, "paper-partial")
    yield norm <= bound
    return f"|mean|={norm:.3e} bound={bound:.3e}"


def _check_oracle_boundedness(level):
    problem = build_simplex_tv(9, 30, seed=24)
    A = problem.A
    rng = np.random.default_rng(114)
    oracle = GradientOracle("paper-partial", 7, seed=901, m=30)
    for k in range(_pick(level, 200, 1000)):
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
        yield np.linalg.norm(delta) > bound + 1e-12


def _check_batch_frequency(level):
    # one verdict per index: is its share of the draws within tol of q/m?
    draws = _pick(level, 5000, 100_000)
    oracle = GradientOracle("paper-partial", 3, seed=902, m=10)
    counts = np.zeros(10)
    for k in range(draws):
        counts[oracle.sample_batch(k)] += 1
    deviation = np.abs(counts / draws - 0.3)
    yield from deviation > _pick(level, 0.02, 0.01)
    return f"max dev {deviation.max():.4f}"


def _check_ergodic_consistency(level):
    problem = build_simplex_tv(6, 8, seed=25)
    saddle = problem.saddle_problem()
    schedule = problem.default_schedule()
    xs, mus, drifted = [], [], []

    def compare(prev, state):
        xs.append(state.x.coords)
        mus.append(state.mu)
        drifted.append(np.abs(state.x_bar - np.mean(xs, axis=0)).max() > 1e-10
                       or np.abs(state.mu_bar - np.mean(mus, axis=0)).max() > 1e-10)

    run(saddle, schedule, initial_state(*problem.initial_point()),
        _pick(level, 300, 2000), callback=compare)
    yield from drifted


def _check_simplex_preservation(level):
    n = _pick(level, 50, 200)
    rng = np.random.default_rng(115)
    conv = LinearMap(convolution_matrix(40, bump_kernel(6)))
    for _ in range(n):
        y = conv.apply(rng.dirichlet(np.ones(40)))
        yield np.any(y < 0) or abs(y.sum() - 1.0) > 1e-12
    problem = build_simplex_tv(10, 12, seed=26)
    failed = []

    def check_iterate(prev, state):
        failed.append(abs(state.x.coords.sum() - 1.0) > 1e-12
                      or np.any(state.x.coords < 0)
                      or np.abs(state.mu).max() > problem.beta + 1e-12)

    run(problem.saddle_problem(), problem.default_schedule(),
        initial_state(*problem.initial_point()), min(n, 100),
        callback=check_iterate)
    yield from failed


def _tally(suite, level):
    """``(samples, failures)`` of one run of ``suite``, plus its detail if any."""
    verdicts = suite(level)
    samples = failures = 0
    while True:
        try:
            failures += bool(next(verdicts))
        except StopIteration as end:
            detail = () if end.value is None else (end.value,)
            return (samples, failures) + detail
        samples += 1


# suite name -> the tally of its suite: level -> (samples, failures[, detail])
SUITES = {name: functools.partial(_tally, suite) for name, suite in {
    "adjoint-consistency": _check_adjoints,
    "operator-linearity": _check_linearity,
    "operator-norm-bounds": _check_operator_norms,
    "divergence-nonnegativity": _check_divergence_nonnegativity,
    "entropy-gradient": _check_entropy_gradients,
    "prox-grid-optimality": _check_prox_optimality,
    "pinsker-inequality": _check_pinsker,
    "three-point-identity": _check_three_point,
    "primal-descent-lemma": _check_primal_descent,
    "dual-descent-lemma": _check_dual_descent,
    "semidual-lipschitz-ratio": _check_lipschitz_ratio,
    "estimate-inequality": _check_estimate_inequality,
    "cross-term-positivity": _check_cross_term,
    "oracle-unbiasedness": _check_unbiasedness,
    "oracle-bias-control": _check_bias_control,
    "oracle-boundedness": _check_oracle_boundedness,
    "batch-frequency": _check_batch_frequency,
    "ergodic-consistency": _check_ergodic_consistency,
    "simplex-preservation": _check_simplex_preservation,
}.items()}


def run_check_suite(level="fast"):
    """Run every suite at the given level and collect a report."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    return CheckReport(level=level, results=tuple(
        CheckResult(name, *suite(level)) for name, suite in SUITES.items()))
