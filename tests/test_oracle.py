from itertools import combinations

import numpy as np
import pytest

from sbpd.oracle import GradientOracle, OracleError


def toy_instance(seed=7, n=6, m=8):
    rng = np.random.default_rng(seed)
    A = rng.uniform(0.01, 1.01, (m, n))
    b = 1.0 - rng.uniform(0.0, 1.0, m)
    full = lambda x: A.T @ np.log(A @ x / b)
    partial = lambda idx, x: A[idx].T @ np.log(A[idx] @ x / b[idx])
    return A, b, full, partial


def test_full_batch_is_whole_index_set():
    oracle = GradientOracle("paper-partial", 8, 0, 8)
    assert np.array_equal(oracle.sample_batch(3), np.arange(8))


def test_batch_deterministic_in_seed_and_k():
    a = GradientOracle("paper-partial", 3, 42, 10)
    b = GradientOracle("paper-partial", 3, 42, 10)
    for k in (0, 1, 17, 12345):
        assert np.array_equal(a.sample_batch(k), b.sample_batch(k))
    assert not np.array_equal(a.sample_batch(0), a.sample_batch(1))


def _fresh_generator_batch(seed, m, q, k):
    # one new Philox and Generator per draw, keyed by (seed, k)
    bits = np.random.Philox(key=seed, counter=k << 64)
    return np.sort(np.random.Generator(bits).choice(m, q, replace=False))


def test_batches_equal_fresh_generator_draws():
    for seed in (0, 7, 26, 1234):
        for q in (1, 5, 25, 45, 50):
            oracle = GradientOracle("paper-partial", q, seed, 50)
            for k in [*range(200), 10**6, 2**40]:
                assert np.array_equal(oracle.sample_batch(k),
                                      _fresh_generator_batch(seed, 50, q, k)), \
                    (seed, q, k)


def test_reused_generator_carries_no_state_between_draws():
    oracle = GradientOracle("scaled-unbiased", 5, 26, 50)
    first, back, again = (oracle.sample_batch(k) for k in (5, 3, 5))
    assert np.array_equal(first, _fresh_generator_batch(26, 50, 5, 5))
    assert np.array_equal(back, _fresh_generator_batch(26, 50, 5, 3))
    assert np.array_equal(again, first)


def test_negative_iteration_index_is_rejected():
    with pytest.raises(ValueError):
        GradientOracle("paper-partial", 3, 0, 8).sample_batch(-1)


def test_batch_indices_distinct_and_in_range():
    oracle = GradientOracle("scaled-unbiased", 5, 9, 12)
    for k in range(200):
        batch = oracle.sample_batch(k)
        assert len(set(batch.tolist())) == 5
        assert batch.min() >= 0 and batch.max() < 12


def test_exact_mode_zero_delta():
    _, _, full, partial = toy_instance()
    x = np.full(6, 1.0 / 6.0)
    oracle = GradientOracle("exact", 8, 0, 8)
    est, delta = oracle.grad_estimate(full, partial, x, 0)
    assert np.array_equal(est, full(x))
    assert np.all(delta == 0.0)


def test_full_batch_collapses_every_mode():
    _, _, full, partial = toy_instance()
    x = np.full(6, 1.0 / 6.0)
    g = full(x)
    for mode in ("paper-partial", "scaled-unbiased"):
        oracle = GradientOracle(mode, 8, 5, 8)
        est, delta = oracle.grad_estimate(full, partial, x, 11)
        assert np.allclose(est, g, rtol=1e-12, atol=1e-14)
        assert np.abs(delta).max() <= 1e-12 * (1.0 + np.abs(g).max())


def test_scaled_unbiased_mean_over_all_batches():
    # enumerating all C(4,2) batches, the average rescaled estimate is the
    # exact gradient (algebraic identity, checked to near machine precision)
    rng = np.random.default_rng(1)
    A = rng.uniform(0.01, 1.01, (4, 3))
    b = 1.0 - rng.uniform(0.0, 1.0, 4)
    x = rng.dirichlet(np.ones(3))
    partial = lambda idx, x_: A[list(idx)].T @ np.log(A[list(idx)] @ x_ / b[list(idx)])
    full = A.T @ np.log(A @ x / b)
    batches = list(combinations(range(4), 2))
    mean = sum((4 / 2) * partial(bt, x) for bt in batches) / len(batches)
    assert np.allclose(mean, full, rtol=1e-12, atol=1e-14)


def test_paper_partial_delta_is_missing_rows():
    A, b, full, partial = toy_instance()
    x = np.full(6, 1.0 / 6.0)
    oracle = GradientOracle("paper-partial", 3, 5, 8)
    for k in range(20):
        batch = oracle.sample_batch(k)
        est, delta = oracle.grad_estimate(full, partial, x, k)
        comp = np.setdiff1d(np.arange(8), batch)
        expected = -(A[comp].T @ np.log(A[comp] @ x / b[comp]))
        assert np.allclose(delta, expected, rtol=1e-12, atol=1e-14)


def test_estimate_matches_grad_estimate():
    _, _, full, partial = toy_instance()
    x = np.full(6, 1.0 / 6.0)
    for mode in ("exact", "paper-partial", "scaled-unbiased"):
        oracle = GradientOracle(mode, 3, 4, 8)
        for k in (0, 5, 9):
            est1 = oracle.estimate(full, partial, x, k)
            est2, _ = oracle.grad_estimate(full, partial, x, k)
            assert np.array_equal(est1, est2)


def test_parameter_validation():
    with pytest.raises(ValueError):
        GradientOracle("bogus", 3, 0, 8)
    with pytest.raises(ValueError):
        GradientOracle("exact", 0, 0, 8)
    with pytest.raises(ValueError):
        GradientOracle("paper-partial", 9, 0, 8)


def test_nonfinite_gradient_raises_with_iteration():
    bad_full = lambda x: np.array([np.nan, 1.0])
    oracle = GradientOracle("exact", 2, 0, 2)
    with pytest.raises(OracleError, match="iteration 13"):
        oracle.estimate(bad_full, None, np.ones(2), 13)
