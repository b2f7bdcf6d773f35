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
``_draw_batches`` runs Philox in uint64 numpy arithmetic (both 64x64-bit
products of a round in one ``_mulhilo``), splits each 64-bit output into
two 32-bit words as numpy does, and runs Floyd's sampling with Lemire's
bounded draw ("Fast random integer generation in an interval", ACM TOMACS
2019) on all lanes at once, bitwise the generator; the lanes it cannot
reproduce, or would draw more slowly, go to the generator itself, one per
thread, re-keyed for each batch. Where the generator draws every lane
(q > _FLOYD_Q or m >= 2**32) a block holds one k, so nothing is drawn
ahead. A k outside the block refills it from k, into a new array, so a
batch that a caller holds stays valid. A k inside it returns the same
read-only array to every caller, so a certificate that asks for the noise
of the step just taken reuses that step's batch.

An oracle of R seeds serves R runs stepped as one stacked state
(``solver.run`` on states of R rows): its batch of iteration k is an
(R, q) array whose row r is the batch of the 1-d oracle of seed r, so each
row sees the batch stream of its own 1-d run. Its block is one
(len, R, q) array, filled in one pass over all R lanes of each k.

An oracle swaps its block in as one tuple, so an oracle shared across
threads still returns the right batch of every k; but such threads may
redraw each other's blocks, and a repeated k then need not return the same
array, so give each thread its own oracle.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["OracleError", "GradientOracle", "ORACLE_MODES"]

ORACLE_MODES = ("exact", "paper-partial", "scaled-unbiased")
_WORD = (1 << 64) - 1
_BLOCK = 256  # iterations drawn per miss
_K_END = 1 << 192  # k << 64 must fit Philox's 256-bit counter
_FLOYD_Q = 128  # largest batch drawn by _floyd
_PASS = 1 << 16  # words per _floyd pass (lanes * q), which bounds its memory
_LOW = np.uint64(0xFFFFFFFF)
_thread = threading.local()  # each thread's generator, see _generator_batch
# Philox4x64's two multipliers and two key bumps, shaped (2, 1, 1) to meet the
# (2, blocks, lanes) counter-word pairs of _philox_uint32
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], np.uint64)[:, None, None]


def _words(ints, count):
    # the `count` little-endian 64-bit words of each nonnegative int
    return [np.asarray((ints >> 64 * i) & _WORD, np.uint64) for i in range(count)]


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
    A round multiplies counter words 0 and 2 by the two multipliers, so
    ``even`` holds those words and ``odd`` words 1 and 3, each as a
    (2, blocks, lanes) array, and one ``_mulhilo`` forms both products.
    """
    lanes, blocks = counters[0].shape[0], -(-count // 8)
    even, odd = np.empty((2, 2, blocks, lanes), np.uint64)
    even[0], even[1] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None], counters[1]
    odd[0], odd[1] = counters[0], counters[2]
    key = np.stack(keys)[:, None]
    for r in range(10):  # Philox4x64-10
        if r:
            key = key + _PHILOX_W
        hi, lo = _mulhilo(_PHILOX_M, even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    # words 0-3 of a block are even[0], odd[0], even[1], odd[1]
    out = np.stack([even, odd], axis=-1).transpose(2, 1, 0, 3).reshape(lanes, -1)
    return np.stack([out & _LOW, out >> 32], axis=-1).reshape(lanes, -1)[:, :count]


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
    seed : int or sequence of int
        Base seed; together with the iteration index it determines the batch.
        A sequence of R seeds (kept as a tuple) makes an oracle for R runs
        stepped as one stacked state: its batches are (R, q) arrays whose
        row r is the batch of seed r.
    m : int
        Total number of summands.
    """

    mode: str
    batch_size: int
    seed: int | tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.mode not in ORACLE_MODES:
            raise ValueError(f"unknown oracle mode {self.mode!r}")
        for name in ("batch_size", "m"):
            _integer(getattr(self, name), name)
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 1 <= self.batch_size <= self.m:
            raise ValueError(
                f"batch_size must lie in [1, {self.m}], got {self.batch_size}")
        if isinstance(self.seed, str) or not np.iterable(self.seed):
            seeds = _integer(self.seed, "seed")
        else:
            seeds = tuple(_integer(s, "seed") for s in self.seed)
            if not seeds:
                raise ValueError("seed must hold at least one seed")
            object.__setattr__(self, "seed", seeds)
        # the seed of each lane of a k, as Python ints, of shape () or (R,)
        lanes = np.array(seeds, dtype=object)
        for s in lanes.flat:
            np.random.Philox(key=s)  # rejects a key outside [0, 2**128)
        object.__setattr__(self, "_seeds", lanes)
        # (first k, the batches of _BLOCK iterations from it), swapped as one
        object.__setattr__(self, "_block", (0, ()))

    @property
    def is_exact(self):
        return self.mode == "exact" or self.batch_size == self.m

    def sample_batch(self, k):
        """The q distinct uniform indices of iteration ``k`` (sorted, read-only).

        Bitwise the draw of a fresh generator on Philox with key ``seed``
        and counter ``k << 64``; with R seeds, the (R, q) array of their
        draws. A k outside the block draws a new block from k; a k inside
        it returns the block's view of k again.
        """
        k = _integer(k, "iteration index")
        start, batches = self._block
        if not 0 <= k - start < len(batches):
            if not 0 <= k < _K_END:
                raise ValueError(f"iteration index {k} out of range")
            m, q, seeds = self.m, self.batch_size, self._seeds
            end = min(k + _BLOCK, _K_END) if _vectorized(m, q) else k + 1
            ks = np.array(range(k, end), dtype=object).reshape(-1, *(1,) * seeds.ndim)
            block = _draw_batches(seeds, ks, m, q).reshape(end - k, *seeds.shape, q)
            block.flags.writeable = False
            start, batches = k, tuple(block)
            object.__setattr__(self, "_block", (start, batches))
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
