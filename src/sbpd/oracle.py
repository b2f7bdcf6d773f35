"""Gradient oracles: exact, partial-sum, and rescaled-unbiased batch modes.

Batches are drawn from a counter-based generator keyed by ``(seed, k)``, so
the batch of iteration k can be reproduced without replaying the stream.
That makes runs restartable and lets diagnostics recompute the noise term of
any iteration after the fact. Since a batch depends on nothing but its key
and counter, each oracle keeps one Philox generator and re-keys it per draw
(the counter-based design of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11). Each oracle also remembers its latest draw,
``(k, batch)``, so a certificate that asks for the noise of the step just
taken reuses that step's batch instead of drawing it again; batches are
returned read-only, since the same array goes to every caller of its k.
The generator and the memo make an oracle unsafe to share across threads:
give each thread its own.

An ``OracleStack`` of R oracles serves R runs stepped as one stacked state
(``solver.run`` on states of R rows): row r draws from oracle r, with its
own generator and memo, so each row sees the batch stream of its own 1-d
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["OracleError", "GradientOracle", "OracleStack", "ORACLE_MODES"]

ORACLE_MODES = ("exact", "paper-partial", "scaled-unbiased")
_WORD = (1 << 64) - 1


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
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 1 <= self.batch_size <= self.m:
            raise ValueError(
                f"batch_size must lie in [1, {self.m}], got {self.batch_size}")
        # one generator per oracle, re-keyed by sample_batch on every draw,
        # and the latest (k, batch); not safe to share across threads, so
        # give each thread its own oracle
        bits = np.random.Philox(key=self.seed)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_rng", np.random.Generator(bits))
        object.__setattr__(self, "_fresh_state", bits.state)
        object.__setattr__(self, "_latest", (None, None))

    @property
    def is_exact(self):
        return self.mode == "exact" or self.batch_size == self.m

    def sample_batch(self, k):
        """The q distinct uniform indices of iteration ``k`` (sorted, read-only).

        Draws from Philox with key ``seed`` and counter ``k << 64``, with an
        empty output buffer, exactly as a freshly built generator would. A
        repeated ``k`` returns the latest draw again.
        """
        k = int(k)
        latest_k, batch = self._latest
        if k == latest_k:
            return batch
        counter = k << 64
        if not 0 <= counter < 1 << 256:
            raise ValueError(f"iteration index {k} out of range")
        state = self._fresh_state
        state["state"]["counter"][:] = [(counter >> s) & _WORD
                                        for s in (0, 64, 128, 192)]
        self._bits.state = state
        batch = np.sort(self._rng.choice(self.m, size=self.batch_size, replace=False))
        batch.flags.writeable = False
        object.__setattr__(self, "_latest", (k, batch))
        return batch

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
    into an (R, q) array, so row r keeps the batch stream and the memo of
    oracle r. The estimates are those of ``GradientOracle``, taken on that
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

    is_exact = GradientOracle.is_exact

    def sample_batch(self, k):
        return np.stack([oracle.sample_batch(k) for oracle in self.oracles])

    # GradientOracle's estimates, looked up on every call, so a wrapper
    # patched onto that class (benchmarks/tracing.py) sees these calls too
    def estimate(self, full_grad_fn, partial_grad_fn, x, k):
        return GradientOracle.estimate(self, full_grad_fn, partial_grad_fn, x, k)

    def grad_estimate(self, full_grad_fn, partial_grad_fn, x, k):
        return GradientOracle.grad_estimate(self, full_grad_fn, partial_grad_fn,
                                            x, k)
