"""End-to-end acceptance battery.

Eleven checks, each printing one pass/fail line with its headline numbers.
The first few share a desk-scale instance (n = m = 50, seed 7) whose long
deterministic run and cached references are computed once per module.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from sbpd.bregman import (
    BregmanPoint,
    EuclideanEnergy,
    ShannonBoltzmann,
    bregman_divergence,
    linf_ball_prox,
    pinsker_slack,
)
from sbpd.experiment import ExperimentConfig, run_experiment, should_log
from sbpd.linalg import DenseMatrixMap
from sbpd.oracle import GradientOracle
from sbpd.problems import (
    build_simplex_tv,
    compute_reference,
    ot_semidual_value_grad,
    simplex_tv_from_arrays,
)
from sbpd.solver import (
    SaddleProblem,
    StepSchedule,
    asymptotic_residual,
    ergodic_rate_constant,
    estimate_inequality_terms,
    initial_state,
    lagrangian_gap,
    run,
    sbpd_step,
)


def _report(capsys, line):
    with capsys.disabled():
        print(line)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def desk_problem():
    return build_simplex_tv(50, 50, 7)


@pytest.fixture(scope="module")
def desk_reference(desk_problem, cache_dir):
    t0 = time.perf_counter()
    ref = compute_reference(desk_problem, 25_000, 7, cache_dir=cache_dir)
    return SimpleNamespace(ref=ref, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def long_run(desk_problem, desk_reference):
    """20000 measured iterations with a certificate at every single step."""
    saddle = desk_problem.saddle_problem()
    schedule = desk_problem.default_schedule()
    w_star = desk_reference.ref.w_star
    x0, mu0 = desk_problem.initial_point()
    state = initial_state(x0, mu0)
    iterations = 20_000

    cert_total = 0
    cert_held = 0
    worst_scaled_slack = np.inf
    logged_gaps = []
    t0 = time.perf_counter()
    for _ in range(iterations):
        prev = state
        state = sbpd_step(saddle, schedule, prev)
        slack, scale = estimate_inequality_terms(
            saddle, schedule, (prev.x, prev.mu), (state.x, state.mu),
            w_star, k=prev.k)
        cert_total += 1
        if slack >= -1e-8 * scale:
            cert_held += 1
        worst_scaled_slack = min(worst_scaled_slack, slack / scale)
        if state.k >= 10 and should_log(state.k, final=iterations):
            logged_gaps.append(
                (state.k, lagrangian_gap(saddle, (state.x_bar, state.mu_bar),
                                         w_star)))
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        saddle=saddle,
        schedule=schedule,
        rate_constant=ergodic_rate_constant(saddle, schedule, w_star, (x0, mu0)),
        ref_tol=desk_reference.ref.ref_tol,
        logged_gaps=logged_gaps,
        cert_total=cert_total,
        cert_held=cert_held,
        worst_scaled_slack=worst_scaled_slack,
        final_residual=asymptotic_residual(prev, state),
        elapsed=elapsed,
    )


def test_01_ergodic_rate_bound(long_run, desk_reference, capsys):
    # mean-iterate gap under C0/k + ref_tol at every logged k >= 10
    c0, tol = long_run.rate_constant, long_run.ref_tol
    margins = [c0 / k + tol - gap for k, gap in long_run.logged_gaps]
    worst = min(margins)
    total_time = long_run.elapsed + desk_reference.elapsed
    ok = worst > 0 and total_time < 60.0
    _report(capsys, f"acceptance 01 ergodic-rate-bound: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(C0={c0:.4f}, min margin {worst:.3e} over "
                    f"{len(margins)} logged points, {total_time:.1f}s)")
    assert worst > 0, f"rate bound violated, worst margin {worst:.3e}"
    assert total_time < 60.0, f"run took {total_time:.1f}s"


def test_02_energy_certificate_every_iteration(long_run, capsys):
    held, total = long_run.cert_held, long_run.cert_total
    ok = held == total == 20_000
    _report(capsys, f"acceptance 02 energy-certificate: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"({held}/{total} iterations, worst scaled slack "
                    f"{long_run.worst_scaled_slack:.2e})")
    assert total == 20_000
    assert held == total, f"certificate failed at {total - held} iterations"


def test_03_batch_size_monotonicity(desk_problem, cache_dir, capsys):
    saddle = desk_problem.saddle_problem()
    schedule = desk_problem.default_schedule()
    reference = compute_reference(desk_problem, 12_500, 7, cache_dir=cache_dir)
    w_star = reference.w_star
    iterations = 10_000

    def final_ergodic_gap(oracle):
        state = run(saddle, schedule,
                    initial_state(*desk_problem.initial_point()),
                    iterations, oracle)
        return lagrangian_gap(saddle, (state.x_bar, state.mu_bar), w_star)

    t0 = time.perf_counter()
    deterministic = final_ergodic_gap(None)
    means = {}
    for q in (5, 25, 45):
        finals = [final_ergodic_gap(GradientOracle("paper-partial", q, 7 + rep, 50))
                  for rep in range(20)]
        means[q] = float(np.mean(finals))
    elapsed = time.perf_counter() - t0

    decreasing = means[5] > means[25] > means[45]
    above = all(means[q] > deterministic for q in (5, 25, 45))
    ok = decreasing and above and elapsed < 600.0
    _report(capsys, f"acceptance 03 batch-monotonicity: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(means q5={means[5]:.3e} q25={means[25]:.3e} "
                    f"q45={means[45]:.3e}, deterministic {deterministic:.3e}, "
                    f"{elapsed:.0f}s)")
    assert decreasing, f"means not strictly decreasing in q: {means}"
    assert above, f"some plateau at or below deterministic {deterministic:.3e}: {means}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"


def test_04_unbiasedness_scale(desk_problem, capsys):
    x0, _ = desk_problem.initial_point()
    saddle = desk_problem.saddle_problem()
    draws = 10_000

    def delta_stats(mode):
        oracle = GradientOracle(mode, 5, 42, 50)
        full = saddle.f_grad(x0.coords)
        deltas = np.empty((draws, 50))
        for k in range(draws):
            est = oracle.estimate(saddle.f_grad, saddle.f_partial_grad,
                                  x0.coords, k)
            deltas[k] = est - full
        mean = deltas.mean(axis=0)
        sigma = float(np.sqrt(np.sum((deltas - mean) ** 2) / (draws - 1)))
        return float(np.linalg.norm(mean)), 4.0 * sigma / 100.0

    norm_u, bound_u = delta_stats("scaled-unbiased")
    norm_b, bound_b = delta_stats("paper-partial")
    ok = norm_u <= bound_u and norm_b > bound_b
    _report(capsys, f"acceptance 04 oracle-unbiasedness: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(unbiased {norm_u:.3e} <= {bound_u:.3e}; "
                    f"control {norm_b:.3e} > {bound_b:.3e})")
    assert norm_u <= bound_u, f"unbiased mode: |mean|={norm_u:.3e} > {bound_u:.3e}"
    assert norm_b > bound_b, "biased control unexpectedly passed the bound"


def test_05_pinsker_sweep(capsys):
    rng = np.random.default_rng(55)
    failures = 0
    worst = np.inf
    for _ in range(10_000):
        dim = int(rng.integers(2, 51))
        alpha = float(rng.uniform(0.05, 3.0))
        x = rng.dirichlet(np.full(dim, alpha))
        y = rng.dirichlet(np.full(dim, alpha)) + 1e-13
        y = y / y.sum()
        slack = pinsker_slack(x, y)
        worst = min(worst, slack)
        if slack < -1e-12:
            failures += 1
    ok = failures == 0
    _report(capsys, f"acceptance 05 pinsker-sweep: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(0 required, {failures} failures, min slack {worst:.2e})")
    assert failures == 0


def _descent_violations(instance_seed, n_pairs):
    """Violation counts at the full and halved smoothness constant.

    Pairs are drawn from the positive orthant, not just the simplex: half
    bounded-mass Dirichlet rescales, half near-axis spikes, since the
    constant is tight along coordinate rays.
    """
    rng = np.random.default_rng(instance_seed)
    A = rng.uniform(0.01, 1.01, (50, 50))
    b = 1.0 - rng.uniform(0.0, 1.0, 50)
    problem = simplex_tv_from_arrays(A, b, 1.0)
    shannon = ShannonBoltzmann(50)
    half_pairs = n_pairs // 2
    Xg = rng.dirichlet(np.ones(50), size=half_pairs) * rng.uniform(0.2, 2.0, (half_pairs, 1))
    Yg = rng.dirichlet(np.ones(50), size=half_pairs) * rng.uniform(0.2, 2.0, (half_pairs, 1))
    spikes = n_pairs - half_pairs
    axes = rng.integers(0, 50, spikes)
    Xs = np.full((spikes, 50), 1e-9)
    Ys = np.full((spikes, 50), 1e-9)
    Xs[np.arange(spikes), axes] = rng.uniform(0.2, 2.0, spikes)
    Ys[np.arange(spikes), axes] = rng.uniform(0.2, 2.0, spikes)
    X = np.vstack([Xg, Xs])
    Y = np.vstack([Yg, Ys])

    at_full = 0
    at_half = 0
    for x, y in zip(X, Y):
        fx = problem.f_value(x)
        linear = problem.f_value(y) + float(problem.f_grad(y) @ (x - y))
        div = bregman_divergence(shannon, x, y)
        tol = 1e-9 * (1.0 + abs(fx) + abs(linear) + problem.L_p * div)
        if fx > linear + problem.L_p * div + tol:
            at_full += 1
        if fx > linear + 0.5 * problem.L_p * div + tol:
            at_half += 1
    return at_full, at_half


def test_06_relative_smoothness_sharpness(capsys):
    full_counts = []
    half_counts = []
    for seed in range(5):
        at_full, at_half = _descent_violations(seed, 1000)
        full_counts.append(at_full)
        half_counts.append(at_half)
    holds = sum(full_counts) == 0
    sharp = any(c > 0 for c in half_counts)
    status = "PASS" if holds and sharp else (
        "INCONCLUSIVE" if holds else "FAIL")
    _report(capsys, f"acceptance 06 relative-smoothness: {status} "
                    f"(full-constant violations {full_counts}, "
                    f"half-constant violations {half_counts})")
    assert holds, f"descent lemma violated at the full constant: {full_counts}"
    # a missing violation at the halved constant is reported, not failed


def test_07_semidual_lipschitz_bound(capsys):
    idx = np.arange(40, dtype=np.float64)
    C = 0.5 * (idx[:, None] - idx[None, :]) ** 2
    rng = np.random.default_rng(3)
    theta = rng.dirichlet(np.ones(40))
    worst = {}
    for gamma in (0.5, 1.0, 2.0):
        ratio = 0.0
        for _ in range(1000):
            t1 = rng.standard_normal(40) * rng.uniform(0.1, 10.0)
            t2 = t1 + rng.standard_normal(40) * rng.uniform(1e-6, 5.0)
            _, g1 = ot_semidual_value_grad(t1, theta, C, gamma)
            _, g2 = ot_semidual_value_grad(t2, theta, C, gamma)
            ratio = max(ratio, float(np.linalg.norm(g1 - g2)
                                     / np.linalg.norm(t1 - t2)))
        worst[gamma] = ratio
    ok = all(worst[g] <= 1.0 / g + 1e-9 for g in worst)
    _report(capsys, f"acceptance 07 semidual-lipschitz: "
                    f"{'PASS' if ok else 'FAIL'} "
                    + "(" + ", ".join(f"gamma={g}: {worst[g]:.4f} vs {1/g:.2f}"
                                      for g in worst) + ")")
    for g, ratio in worst.items():
        assert ratio <= 1.0 / g + 1e-9, f"gamma={g}: ratio {ratio:.6f}"


def test_08_final_residual(long_run, capsys):
    residual = long_run.final_residual
    ok = residual < 1e-7
    _report(capsys, f"acceptance 08 asymptotic-residual: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(final residual {residual:.2e} < 1e-7)")
    assert residual < 1e-7


def test_09_grid_search_agreement(cache_dir, capsys):
    t0 = time.perf_counter()
    problem = build_simplex_tv(3, 5, 11, beta=0.02)
    reference = compute_reference(problem, 30_000, 11, cache_dir=cache_dir)
    x_star = reference.x_star

    # every simplex point with coordinates on the 1e-3 lattice
    blocks = []
    for i in range(1001):
        j = np.arange(0, 1001 - i)
        blocks.append(np.stack([np.full_like(j, i), j, 1000 - i - j], axis=1))
    grid = np.vstack(blocks).astype(np.float64) * 1e-3
    grid_pos = np.maximum(grid, 1e-300)
    U = grid_pos @ problem.A.matrix.T
    fidelity = np.sum(U * np.log(U / problem.b) - U + problem.b, axis=1)
    penalty = problem.beta * np.abs(np.diff(grid, axis=1)).sum(axis=1)
    best = grid[np.argmin(fidelity + penalty)]

    distance = float(np.abs(best - x_star).sum())
    elapsed = time.perf_counter() - t0
    ok = distance <= 5e-3 and elapsed < 30.0
    _report(capsys, f"acceptance 09 grid-agreement: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(L1 distance {distance:.2e} over {grid.shape[0]} grid "
                    f"points, {elapsed:.1f}s)")
    assert distance <= 5e-3, f"grid argmin differs by {distance:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_10_euclidean_degeneration(capsys):
    T = DenseMatrixMap(np.array([[1.0, -2.0], [3.0, 4.0]]) / 3.0)
    lam, nu, beta = 0.3, 0.25, 0.7
    problem = SaddleProblem(
        f_grad=lambda x: np.zeros(2),
        h_star_grad=lambda mu: np.zeros(2),
        g_prox=lambda p, v, l: BregmanPoint.from_coords(
            np.clip(p.coords - l * v, -1.0, 1.0)),
        l_star_prox=lambda mu, v, n_: linf_ball_prox(mu, v, n_, beta),
        coupling=T,
        L_p=0.0,
        L_d=0.0,
        phi_p=EuclideanEnergy(2),
        phi_d=EuclideanEnergy(2),
        lagrangian_eval=lambda x, mu: float(T.apply(x) @ mu),
        primal_feasible=lambda x: bool(np.abs(x).max() <= 1.0 + 1e-12),
        dual_feasible=lambda mu: bool(np.abs(mu).max() <= beta + 1e-12),
    )
    schedule = StepSchedule(lam, nu)
    state = initial_state(BregmanPoint.from_coords([0.9, -0.4]),
                          np.array([0.1, 0.2]))
    x_hand = np.array([0.9, -0.4])
    mu_hand = np.array([0.1, 0.2])
    M = T.matrix
    worst = 0.0
    for _ in range(5):
        state = sbpd_step(problem, schedule, state)
        x_new = np.clip(x_hand - lam * (M.T @ mu_hand), -1.0, 1.0)
        mu_hand = np.clip(mu_hand + nu * (M @ (2 * x_new - x_hand)), -beta, beta)
        x_hand = x_new
        worst = max(worst,
                    float(np.abs(state.x.coords - x_hand).max()),
                    float(np.abs(state.mu - mu_hand).max()))
    ok = worst <= 1e-12
    _report(capsys, f"acceptance 10 euclidean-degeneration: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"(max deviation {worst:.2e} over 5 iterations)")
    assert worst <= 1e-12


def test_11_byte_identical_traces(tmp_path, capsys):
    out = tmp_path / "runs"
    config = ExperimentConfig(experiment="simplex-tv", n=12, m=14, seed=9,
                              iterations=1200, oracle_mode="paper-partial",
                              batch_size=4, repeats=2, output_dir=str(out))
    names = ("run_000.csv", "run_001.csv", "mean_trace.csv")
    assert run_experiment(config, log=lambda s: None) == 0
    first = {name: (out / name).read_bytes() for name in names}
    assert run_experiment(config, log=lambda s: None) == 0
    second = {name: (out / name).read_bytes() for name in names}
    identical = [name for name in names if first[name] == second[name]]
    ok = len(identical) == len(names)
    _report(capsys, f"acceptance 11 byte-determinism: "
                    f"{'PASS' if ok else 'FAIL'} "
                    f"({len(identical)}/{len(names)} traces byte-identical)")
    assert ok, f"traces differ: {sorted(set(names) - set(identical))}"
