"""Gradient oracles: exact, partial-sum, and rescaled-unbiased batch modes.

The batch of iteration k is numpy's ``Generator.choice(m, q,
replace=False)``, sorted, on a fresh Philox4x64-10 with key ``seed`` and
counter ``k << 64`` (the counter-based design of Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11). It depends on nothing but
``(seed, k)``, so the batch of any iteration can be reproduced without
replaying the stream: runs are restartable and diagnostics can recompute
the noise term of any iteration after the fact.

Since a batch is a pure function of its key and counter, an oracle draws
the batches of ``_BLOCK`` consecutive iterations in one vectorized pass:
``_draw_batches`` runs Philox in uint64 numpy arithmetic, splits each
64-bit output into two 32-bit words as numpy does, and runs Floyd's
sampling with Lemire's bounded draw ("Fast random integer generation in an
interval", ACM TOMACS 2019) on all lanes at once, bitwise the generator;
the lanes it cannot reproduce, or would draw more slowly, go to the
generator itself, one per thread, re-keyed for each batch. Where the
generator draws every lane (q > _FLOYD_Q or m >= 2**32) a block holds one
k, so nothing is drawn ahead. A k outside the block refills it from k. A k
inside it returns the same read-only array to every caller, so a
certificate that asks for the noise of the step just taken reuses that
step's batch.

An oracle swaps its block in as one tuple, so an oracle shared across
threads still returns the right batch of every k; but such threads may
redraw each other's blocks, and a repeated k then need not return the same
array, so give each thread its own oracle.

An ``OracleStack`` of R oracles serves R runs stepped as one stacked state
(``solver.run`` on states of R rows): row r draws from oracle r, so each
row sees the batch stream of its own 1-d run. A miss fills the blocks of
all R oracles in one pass.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["OracleError", "GradientOracle", "OracleStack", "ORACLE_MODES"]

ORACLE_MODES = ("exact", "paper-partial", "scaled-unbiased")
_WORD = (1 << 64) - 1
_BLOCK = 256  # iterations drawn per miss
_K_END = 1 << 192  # k << 64 must fit Philox's 256-bit counter
_FLOYD_Q = 128  # largest batch drawn by _floyd
_PASS = 1 << 16  # words per _floyd pass (lanes * q), which bounds its memory
_LOW = np.uint64(0xFFFFFFFF)
_thread = threading.local()  # each thread's generator, see _generator_batch
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))


def _words(ints, count):
    # the `count` little-endian 64-bit words of each nonnegative int
    return [((ints >> 64 * i) & _WORD).astype(np.uint64) for i in range(count)]


def _mulhilo(a, b):
    # (high, low) words of the 128-bit products a * b, from 32-bit halves;
    # each partial sum stays below (2**32 - 1)**2 + 2**32 < 2**64
    a_lo, a_hi = a & _LOW, a >> 32
    b_lo, b_hi = b & _LOW, b >> 32
    mid = a_lo * b_hi + (a_lo * b_lo >> 32)
    mid2 = a_hi * b_lo + (mid & _LOW)
    return a_hi * b_hi + (mid >> 32) + (mid2 >> 32), a * b


def _philox_uint32(keys, counters, count):
    """The first ``count`` 32-bit outputs of a fresh numpy Philox, per lane.

    ``keys`` are the two key words and ``counters`` counter words 1-3, each
    an array over lanes; counter word 0 starts at 0, and numpy increments
    it before each block of four 64-bit outputs. Returns a (lanes, count)
    uint64 array of 32-bit words, in the order ``next_uint32`` gives them.
    """
    blocks = -(-count // 8)
    shape = (counters[0].shape[0], blocks)
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), shape)
    c1, c2, c3 = (np.broadcast_to(c[:, None], shape) for c in counters)
    k0, k1 = (k[:, None] for k in keys)
    for r in range(10):  # Philox4x64-10
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    out = np.stack([c0, c1, c2, c3], axis=-1).reshape(shape[0], -1)
    return np.stack([out & _LOW, out >> 32], axis=-1).reshape(shape[0], -1)[:, :count]


def _vectorized(m, q):
    # whether _floyd draws the batches of (m, q); the generator draws the rest
    return q <= _FLOYD_Q and m < 1 << 32


def _generator_batch(seed, k, m, q):
    # the batch on this thread's generator, its Philox set to the state that
    # a fresh one has at key seed and counter k << 64 (cheaper than a new one)
    if not hasattr(_thread, "rng"):
        bits = np.random.Philox(0)
        _thread.rng, _thread.state = np.random.Generator(bits), bits.state
    state = _thread.state
    state["state"]["counter"][:] = [(k << 64 >> s) & _WORD for s in (0, 64, 128, 192)]
    state["state"]["key"][:] = [seed & _WORD, seed >> 64]
    _thread.rng.bit_generator.state = state
    batch = np.sort(_thread.rng.choice(m, q, replace=False))
    batch.flags.writeable = False
    return batch


def _floyd(keys, counters, m, q):
    # (batches, rejected) of the lanes of these Philox key and counter words
    # (rejected: a Lemire step needed a second word, so its batch is void)
    j = np.arange(m - q, m)
    bound = j[j > 0].astype(np.uint64) + 1
    product = _philox_uint32(keys, counters, bound.shape[0]) * bound
    rejected = ((product & _LOW) < (1 << 32) % bound).any(axis=1)
    lanes = product.shape[0]
    t = np.zeros((lanes, q), np.int64)
    t[:, j > 0] = product >> 32
    # taken[:, i]: the t of step i was drawn before, so step i takes j[i].
    # First the t that equal an earlier t: sorting t * q + i keeps equal t
    # in step order (and m * q < 2**39 on this path)
    t_sorted, step = np.divmod(np.sort(t * q + np.arange(q), axis=1), q)
    rows = np.arange(lanes)
    taken = np.zeros((lanes, q + 1), bool)  # column q stays False
    taken[rows[:, None], step[:, 1:]] = t_sorted[:, 1:] == t_sorted[:, :-1]
    # then the t that equal the j of an earlier step that took its j
    back = t - (m - q)  # that step, or column q if there is none
    back[(back < 0) | (back >= np.arange(q))] = q
    for i in np.flatnonzero((back < q).any(axis=0)):
        taken[:, i] |= taken[rows, back[:, i]]
    return np.sort(np.where(taken[:, :q], j, t), axis=1), rejected


def _draw_batches(seeds, ks, m, q):
    """Sorted batches of Philox keys ``seeds`` at iterations ``ks``.

    ``seeds`` and ``ks`` are arrays of nonnegative ints (below 2**128 and
    2**192), broadcast against each other; each element of the broadcast is
    a lane. Returns the (lanes, q) int64 batches, lane by lane bitwise
    ``np.sort(Generator(Philox(key=seed, counter=k << 64)).choice(m, q,
    replace=False))``.

    For ``j`` in m-q, ..., m-1, Floyd's sampling draws t in [0, j] and takes
    j instead when t was drawn before. numpy draws t as ``(w * (j+1)) >>
    32`` from one 32-bit word w, unless the low half of that product falls
    below 2**32 mod (j+1) (a rejection, after which it draws again), and
    j = 0 takes no word. Since the words do not depend on what was drawn,
    every t is formed at once, and t was drawn before iff it equals an
    earlier t or the j of an earlier step that took its j.

    The generator itself draws a lane that rejects, and every lane when
    q > _FLOYD_Q (where its per-lane cost is the lower one; this includes
    ``choice``'s tail shuffle, m > 10000 and q > m // 50) or m >= 2**32
    (a 64-bit bound). Lanes go through in passes of at most _PASS words.
    """
    seeds, ks = np.asarray(seeds, dtype=object), np.asarray(ks, dtype=object)
    shape = np.broadcast_shapes(seeds.shape, ks.shape)
    lane_seeds, lane_ks = (np.broadcast_to(a, shape).ravel() for a in (seeds, ks))
    lanes = lane_seeds.shape[0]
    out = np.empty((lanes, q), np.int64)
    by_generator = np.ones(lanes, bool)
    if _vectorized(m, q):
        keys = [np.broadcast_to(w, shape).ravel() for w in _words(seeds, 2)]
        counters = [np.broadcast_to(w, shape).ravel() for w in _words(ks, 3)]
        size = _PASS // q
        for lo in range(0, lanes, size):
            part = slice(lo, lo + size)
            out[part], by_generator[part] = _floyd(
                [w[part] for w in keys], [w[part] for w in counters], m, q)
    for i in np.flatnonzero(by_generator):
        out[i] = _generator_batch(int(lane_seeds[i]), int(lane_ks[i]), m, q)
    return out


def _fill_blocks(oracles, k):
    """Draw the blocks of ``oracles`` (of one batch size and m) from ``k``.

    Returns each oracle's new block, ``(k, batches)``, after storing it.
    """
    if not 0 <= k < _K_END:
        raise ValueError(f"iteration index {k} out of range")
    m, q = oracles[0].m, oracles[0].batch_size
    if _vectorized(m, q):
        ks = np.array(range(k, min(k + _BLOCK, _K_END)), dtype=object)
        seeds = np.array([[int(o.seed)] for o in oracles], dtype=object)
        batches = _draw_batches(seeds, ks, m, q).reshape(len(oracles), -1, q)
        batches.flags.writeable = False
    else:  # the generator draws one batch at a time, so a block holds k alone
        batches = [[_generator_batch(int(o.seed), k, m, q)] for o in oracles]
    blocks = [(k, tuple(rows)) for rows in batches]
    for oracle, block in zip(oracles, blocks):
        object.__setattr__(oracle, "_block", block)
    return blocks


def _integer(value, name):
    # an int or numpy integer: a float, bool or string would pick other batches
    if value.__class__ is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


class OracleError(RuntimeError):
    """Non-finite gradient data; carries the iteration index when known."""


@dataclass(frozen=True)
class GradientOracle:
    """Stochastic estimate of a finite-sum gradient.

    Parameters
    ----------
    mode : str
        One of ``exact``, ``paper-partial``, ``scaled-unbiased``.
        ``paper-partial`` returns the bare partial sum over the batch (a
        biased estimate whose error stays bounded); ``scaled-unbiased``
        multiplies it by m/q so the noise has zero mean.
    batch_size : int
        Number q of summands per draw, 1 <= q <= m. With q = m every mode
        collapses to the exact gradient.
    seed : int
        Base seed; together with the iteration index it determines the batch.
    m : int
        Total number of summands.
    """

    mode: str
    batch_size: int
    seed: int
    m: int

    def __post_init__(self):
        if self.mode not in ORACLE_MODES:
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        for name in ("batch_size", "seed", "m"):
            _integer(getattr(self, name), name)
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 1 <= self.batch_size <= self.m:
            raise ValueError(
                f"batch_size must lie in [1, {self.m}], got {self.batch_size}")
        np.random.Philox(key=self.seed)  # rejects a key outside [0, 2**128)
        # (first k, the batches of _BLOCK iterations from it), swapped as one
        object.__setattr__(self, "_block", (0, ()))

    @property
    def is_exact(self):
        return self.mode == "exact" or self.batch_size == self.m

    def sample_batch(self, k):
        """The q distinct uniform indices of iteration ``k`` (sorted, read-only).

        Bitwise the draw of a fresh generator on Philox with key ``seed``
        and counter ``k << 64``. A k outside the block refills the block
        from k; a k inside it returns the block's array again.
        """
        k = _integer(k, "iteration index")
        start, batches = self._block
        if not 0 <= k - start < len(batches):
            [(start, batches)] = _fill_blocks((self,), k)
        return batches[k - start]

    def estimate(self, full_grad_fn, partial_grad_fn, x, k):
        """Gradient estimate at ``x`` for iteration ``k`` (no noise report)."""
        if self.is_exact:
            g = full_grad_fn(x)
        else:
            batch = self.sample_batch(k)
            g = partial_grad_fn(batch, x)
            if self.mode == "scaled-unbiased":
                g = (self.m / self.batch_size) * g
        if not np.isfinite(g).all():
            raise OracleError(f"non-finite gradient estimate at iteration {k}")
        return g

    def grad_estimate(self, full_grad_fn, partial_grad_fn, x, k):
        """Estimate together with its error against the full gradient.

        Returns ``(estimate, delta)`` where ``delta = estimate - grad``.
        In exact mode delta is identically zero. This path evaluates the
        full gradient and is meant for diagnostics and certificates; the
        hot loop uses :meth:`estimate`.
        """
        est = self.estimate(full_grad_fn, partial_grad_fn, x, k)
        if self.is_exact:
            return est, np.zeros_like(est)
        full = full_grad_fn(x)
        if not np.isfinite(full).all():
            raise OracleError(f"non-finite full gradient at iteration {k}")
        return est, est - full


class OracleStack:
    """R oracles of one mode, batch size and m, for a stacked state of R rows.

    ``sample_batch(k)`` stacks the R oracles' own batches of iteration k
    into an (R, q) array, so row r keeps the batch stream and the block of
    oracle r. A k outside the blocks the stack last filled fills all R in
    one pass. The estimate is that of ``GradientOracle``, taken on that
    array and on an (R, n) stack of points, whose partial gradient gives
    each row the gradient of its own batch.
    """

    def __init__(self, oracles):
        self.oracles = tuple(oracles)
        kinds = {(o.mode, o.batch_size, o.m) for o in self.oracles}
        if len(kinds) != 1:
            raise ValueError("an oracle stack needs oracles of one mode, "
                             "batch size and m")
        [(self.mode, self.batch_size, self.m)] = kinds
        self._filled = range(0)  # the k of the last fill

    is_exact = GradientOracle.is_exact

    def sample_batch(self, k):
        k = _integer(k, "iteration index")
        if k not in self._filled:
            start, batches = _fill_blocks(self.oracles, k)[0]
            self._filled = range(start, start + len(batches))
        # each row through GradientOracle.sample_batch, so a wrapper patched
        # onto that class (benchmarks/tracing.py) counts every row's draw;
        # a row whose block has moved since refills it alone
        return np.array([oracle.sample_batch(k) for oracle in self.oracles])

    # GradientOracle's estimate, looked up on every call, so a wrapper
    # patched onto that class (benchmarks/tracing.py) sees these calls too
    def estimate(self, full_grad_fn, partial_grad_fn, x, k):
        return GradientOracle.estimate(self, full_grad_fn, partial_grad_fn, x, k)
