from itertools import combinations, product

import numpy as np
import pytest

from sbpd import oracle as oracle_module
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


# keys past one word and the largest key; iterations that set counter words
# 2 and 3 (k >= 2**64, k >= 2**128) up to the largest, 2**192 - 1
_WIDE_SEEDS = (3, 4243, 2**64 + 5, 2**100 + 77, 2**128 - 1)
_WIDE_KS = (0, 1, 199, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 3, 2**128 + 7,
            2**192 - 1)


@pytest.mark.parametrize("m, q", [
    (2, 1), (2, 2), (50, 1), (50, 5), (50, 49), (50, 50),
    (10000, 1), (10000, 128), (10000, 129), (10000, 9999), (10000, 10000),
    # choice's tail shuffle starts above q = 10001 // 50 = 200
    (10001, 200), (10001, 201),
])
def test_block_draws_equal_fresh_generator_draws(m, q):
    seeds = np.array(_WIDE_SEEDS, dtype=object)[:, None]
    batches = oracle_module._draw_batches(seeds, np.array(_WIDE_KS, dtype=object),
                                          m, q)
    assert batches.shape == (len(_WIDE_SEEDS) * len(_WIDE_KS), q)
    assert batches.dtype == np.int64
    for batch, (seed, k) in zip(batches, product(_WIDE_SEEDS, _WIDE_KS)):
        assert np.array_equal(batch, _fresh_generator_batch(seed, m, q, k)), \
            (seed, k)


def test_block_draws_in_several_passes_equal_one_pass(monkeypatch):
    # 45 lanes of q = 7 in passes of 4 lanes, the last one of 1
    seeds = np.array(_WIDE_SEEDS, dtype=object)[:, None]
    ks = np.array(_WIDE_KS, dtype=object)
    whole = oracle_module._draw_batches(seeds, ks, 50, 7)
    monkeypatch.setattr(oracle_module, "_PASS", 4 * 7 + 6)
    assert np.array_equal(oracle_module._draw_batches(seeds, ks, 50, 7), whole)
    for batch, (seed, k) in zip(whole, product(_WIDE_SEEDS, _WIDE_KS)):
        assert np.array_equal(batch, _fresh_generator_batch(seed, 50, 7, k))


def _count_fills(monkeypatch):
    # the lane count of every _draw_batches call
    lanes, draw = [], oracle_module._draw_batches

    def counted(seeds, ks, m, q):
        batches = draw(seeds, ks, m, q)
        lanes.append(batches.shape[0])
        return batches

    monkeypatch.setattr(oracle_module, "_draw_batches", counted)
    return lanes


def test_oracle_serves_a_block_and_refills_it_on_a_miss(monkeypatch):
    lanes = _count_fills(monkeypatch)
    block = oracle_module._BLOCK
    oracle = GradientOracle("paper-partial", 5, 2**64 + 5, 50)
    first = oracle.sample_batch(300)
    for k in (301, 300 + block - 1, 300):
        assert np.array_equal(oracle.sample_batch(k),
                              _fresh_generator_batch(2**64 + 5, 50, 5, k))
    assert oracle.sample_batch(300) is first
    assert lanes == [block]
    # a k past the block, then one before its start: a new block from 299
    for k in (300 + block, 299, 300):
        assert np.array_equal(oracle.sample_batch(k),
                              _fresh_generator_batch(2**64 + 5, 50, 5, k)), k
    assert oracle.sample_batch(300) is not first
    assert lanes == [block] * 3
    # a block that straddles counter words 1 and 2, and one cut short at the
    # last iteration index
    for k in (2**64 - 2, 2**64 + 1, 2**192 - 2, 2**192 - 1):
        assert np.array_equal(oracle.sample_batch(k),
                              _fresh_generator_batch(2**64 + 5, 50, 5, k)), k
    assert lanes == [block] * 4 + [2]


def test_oracle_stack_fills_rows_of_mixed_seeds_in_one_pass(monkeypatch):
    lanes = _count_fills(monkeypatch)
    block = oracle_module._BLOCK
    seeds = (2**128 - 1, 0, 2**64 + 5, 26)
    oracle = GradientOracle("scaled-unbiased", 7, seeds, 30)
    for k in (5, 6, 4 + block, 4, 2**64 + 1):
        for row, seed in zip(oracle.sample_batch(k), seeds):
            assert np.array_equal(row, _fresh_generator_batch(seed, 30, 7, k))
    assert lanes == [4 * block] * 3


def test_held_batches_survive_refills():
    # a refill draws a new block, so a batch taken from the old one keeps its
    # values and stays read-only
    flat = GradientOracle("paper-partial", 5, 26, 50)
    stacked = GradientOracle("paper-partial", 5, (26, 3, 2**64 + 5), 50)
    held = flat.sample_batch(0), stacked.sample_batch(0)
    for k in (300, 600):
        flat.sample_batch(k), stacked.sample_batch(k)
    assert flat.sample_batch(0) is not held[0]
    assert np.array_equal(held[0], _fresh_generator_batch(26, 50, 5, 0))
    for row, seed in zip(held[1], stacked.seed):
        assert np.array_equal(row, _fresh_generator_batch(seed, 50, 5, 0))
    for batch in held:
        assert not batch.flags.writeable
        with pytest.raises(ValueError):
            batch[0] = 0


@pytest.mark.parametrize("count", [1, 8, 9, 45])
def test_philox_words_equal_numpys_stream(count):
    # word for word numpy's Philox at key seed and counter k << 64: each
    # 64-bit output split into two 32-bit words, the low half first
    lanes = list(product(_WIDE_SEEDS, _WIDE_KS))
    seeds, ks = (np.array(column, dtype=object) for column in zip(*lanes))
    words = oracle_module._philox_uint32(oracle_module._words(seeds, 2),
                                         oracle_module._words(ks, 3), count)
    assert words.shape == (len(lanes), count)
    assert words.dtype == np.uint64
    for row, (seed, k) in zip(words, lanes):
        raw = np.random.Philox(key=seed, counter=k << 64).random_raw(-(-count // 2))
        expected = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).ravel()[:count]
        wrong = np.flatnonzero(row != expected)
        assert wrong.size == 0, (seed, k, "first wrong word", wrong[0])


def _spy_generator(monkeypatch):
    calls, fresh = [], oracle_module._generator_batch

    def spy(seed, k, m, q):
        calls.append((seed, k))
        return fresh(seed, k, m, q)

    monkeypatch.setattr(oracle_module, "_generator_batch", spy)
    return calls


def test_a_rejected_lemire_step_falls_back_to_the_generator(monkeypatch):
    # a zero word at step j = 47 of lane 4 gives the product 0, below
    # 2**32 mod 48 = 16, which numpy rejects; that lane is drawn again by the
    # generator, from the true words, and every other lane keeps its own
    calls = _spy_generator(monkeypatch)
    real = oracle_module._philox_uint32

    def words(keys, counters, count):
        out = real(keys, counters, count).copy()
        out[4, 2] = 0
        return out

    monkeypatch.setattr(oracle_module, "_philox_uint32", words)
    seeds = (3, 2**64 + 5)
    batches = oracle_module._draw_batches(np.array(seeds, dtype=object)[:, None],
                                          np.array([0, 1, 2], dtype=object), 50, 5)
    assert calls == [(2**64 + 5, 1)]
    for batch, (seed, k) in zip(batches, product(seeds, (0, 1, 2))):
        assert np.array_equal(batch, _fresh_generator_batch(seed, 50, 5, k))


def test_a_rejection_in_the_true_stream_falls_back_to_the_generator(monkeypatch):
    # seed 11 at k = 3791 draws a word that numpy rejects (m = 10000, q = 128)
    calls = _spy_generator(monkeypatch)
    batches = oracle_module._draw_batches(np.array([11], dtype=object),
                                          np.array([3790, 3791], dtype=object),
                                          10000, 128)
    assert calls == [(11, 3791)]
    for batch, k in zip(batches, (3790, 3791)):
        assert np.array_equal(batch, _fresh_generator_batch(11, 10000, 128, k))


def test_generator_blocks_hold_one_k(monkeypatch):
    # past _FLOYD_Q the generator draws every batch, so nothing is drawn ahead
    lanes, calls = _count_fills(monkeypatch), _spy_generator(monkeypatch)
    seeds = (2**128 - 1, 4243, 2**64 + 5)
    oracle = GradientOracle("paper-partial", 129, seeds, 300)
    for k in (7, 7, 8, 2**64 + 1, 3):
        for row, seed in zip(oracle.sample_batch(k), seeds):
            assert np.array_equal(row, _fresh_generator_batch(seed, 300, 129, k))
    assert oracle.sample_batch(3) is oracle.sample_batch(3)
    assert calls == [(seed, k) for k in (7, 8, 2**64 + 1, 3) for seed in seeds]
    assert lanes == [len(seeds)] * 4  # one block of one k per miss


def test_reused_generator_carries_no_state_between_draws():
    oracle = GradientOracle("scaled-unbiased", 5, 26, 50)
    first, back, again = (oracle.sample_batch(k) for k in (5, 3, 5))
    assert np.array_equal(first, _fresh_generator_batch(26, 50, 5, 5))
    assert np.array_equal(back, _fresh_generator_batch(26, 50, 5, 3))
    assert np.array_equal(again, first)


def test_batches_are_read_only():
    oracle = GradientOracle("paper-partial", 4, 3, 20)
    for k in (2, 2, 7):
        batch = oracle.sample_batch(k)
        with pytest.raises(ValueError):
            batch[0] = 0


@pytest.mark.parametrize("ks", [(5, 5), (5, 3, 5), (3, 5, 3)])
def test_repeated_draws_match_fresh_oracles(ks):
    oracle = GradientOracle("paper-partial", 5, 26, 50)
    for k in ks:
        fresh = GradientOracle("paper-partial", 5, 26, 50).sample_batch(k)
        assert np.array_equal(oracle.sample_batch(k), fresh)
        assert np.array_equal(oracle.sample_batch(k),
                              _fresh_generator_batch(26, 50, 5, k))


def test_out_of_range_index_is_rejected_after_a_repeated_draw():
    oracle = GradientOracle("paper-partial", 3, 0, 8)
    oracle.sample_batch(4)
    oracle.sample_batch(4)
    with pytest.raises(ValueError):
        oracle.sample_batch(-1)
    with pytest.raises(ValueError):
        oracle.sample_batch(1 << 192)
    assert np.array_equal(oracle.sample_batch(4), _fresh_generator_batch(0, 8, 3, 4))


@pytest.mark.parametrize("mode", ["paper-partial", "scaled-unbiased"])
def test_grad_estimate_after_estimate_reuses_the_draw(mode):
    _, _, full, partial = toy_instance()
    x = np.random.default_rng(4).dirichlet(np.ones(6))
    oracle = GradientOracle(mode, 3, 17, 8)
    for k in (0, 1, 1, 9):
        est = oracle.estimate(full, partial, x, k)
        again, delta = oracle.grad_estimate(full, partial, x, k)
        assert np.array_equal(est, again)
        assert np.array_equal(delta, est - full(x))
        fresh = GradientOracle(mode, 3, 17, 8).estimate(full, partial, x, k)
        assert np.array_equal(est, fresh)


def test_oracle_stack_draws_each_row_from_its_own_oracle():
    seeds = (26, 3, 26, 1234)
    stack = GradientOracle("paper-partial", 5, list(seeds), 50)
    oracles = [GradientOracle("paper-partial", 5, seed, 50) for seed in seeds]
    assert stack.seed == seeds and not stack.is_exact
    for k in (0, 7, 7, 3, 2**40):
        batches = stack.sample_batch(k)
        assert batches.shape == (4, 5)
        assert stack.sample_batch(k) is batches
        for row, seed, oracle in zip(batches, seeds, oracles):
            assert np.array_equal(row, _fresh_generator_batch(seed, 50, 5, k))
            assert np.array_equal(oracle.sample_batch(k), row)
    with pytest.raises(ValueError):
        stack.sample_batch(-1)
    assert GradientOracle("paper-partial", 9, (1, 2), 9).is_exact


@pytest.mark.parametrize("seeds, message", [
    ([], "at least one seed"),
    ([1, 2.0], "seed must be an integer"),
    ((1, True), "seed must be an integer"),
    ((1, 2**128), "key must be positive and less than 2"),
], ids=["empty", "float", "bool", "key-range"])
def test_stacked_oracle_needs_integer_seeds(seeds, message):
    with pytest.raises(ValueError, match=message):
        GradientOracle("paper-partial", 5, seeds, 50)


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


@pytest.mark.parametrize("field,value", [
    ("seed", 1.5), ("seed", True), ("seed", 3.0), ("seed", "3"),
    ("m", 10.0), ("m", True), ("batch_size", 3.0), ("batch_size", False),
])
def test_non_integral_parameters_rejected(field, value):
    # a seed of 1.5 or True once drew seed 1's batches; a float m or q
    # failed only at the first draw
    args = dict(mode="paper-partial", batch_size=3, seed=1, m=10)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        GradientOracle(**dict(args, **{field: value}))


def test_numpy_integer_parameters_accepted():
    oracle = GradientOracle("paper-partial", np.int64(3), np.uint64(1), np.int32(10))
    assert np.array_equal(oracle.sample_batch(4),
                          GradientOracle("paper-partial", 3, 1, 10).sample_batch(4))


@pytest.mark.parametrize("k", [3.9, 4.0, True, "4"])
@pytest.mark.parametrize("stacked", [False, True], ids=["oracle", "stack"])
def test_non_integral_iteration_rejected(stacked, k):
    # 3.9 once drew batch 3, True batch 1 and "4" batch 4
    sampler = GradientOracle("paper-partial", 3, (1, 2) if stacked else 1, 10)
    with pytest.raises(ValueError, match="iteration index must be an integer"):
        sampler.sample_batch(k)
    assert np.array_equal(sampler.sample_batch(np.int64(4)), sampler.sample_batch(4))


def test_nonfinite_gradient_raises_with_iteration():
    bad_full = lambda x: np.array([np.nan, 1.0])
    oracle = GradientOracle("exact", 2, 0, 2)
    with pytest.raises(OracleError, match="iteration 13"):
        oracle.estimate(bad_full, None, np.ones(2), 13)
