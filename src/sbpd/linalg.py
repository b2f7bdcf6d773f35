"""Linear operators used by the solver and the problem builders.

Everything is dense and real. Operators expose ``apply`` / ``adjoint_apply``
plus their shape, and ``operator_norm`` estimates the spectral norm by power
iteration so that step sizes can be derived uniformly for every operator kind.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "ShapeError",
    "LinearMap",
    "DenseMatrixMap",
    "ForwardDifferenceMap",
    "ConvolutionMap",
    "VerticalStackMap",
    "as_vector",
    "operator_norm",
]


class ShapeError(ValueError):
    """Raised when a vector does not match an operator's expected dimension."""


def as_vector(x, dim=None, name="x"):
    """Coerce ``x`` to a 1-d float64 array and validate it.

    Parameters
    ----------
    x : array_like
        Input data.
    dim : int, optional
        Required length. ``None`` skips the length check.
    name : str
        Label used in error messages.

    Returns
    -------
    numpy.ndarray
        The validated vector (a copy only when conversion requires one).
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


class LinearMap:
    """Base class for dense linear operators.

    Subclasses set ``input_dim``, ``output_dim`` and ``kind`` and implement
    ``_apply`` / ``_adjoint``. The public entry points validate shapes and
    finiteness so the solver can assume clean data.
    """

    kind = "abstract"

    def __init__(self, input_dim, output_dim):
        if input_dim < 1 or output_dim < 1:
            raise ValueError("operator dimensions must be positive")
        self.input_dim = int(input_dim)
        self.output_dim = int(output_dim)

    def apply(self, x):
        x = as_vector(x, self.input_dim, "x")
        return self._apply(x)

    def adjoint_apply(self, y):
        y = as_vector(y, self.output_dim, "y")
        return self._adjoint(y)

    def _apply(self, x):
        raise NotImplementedError

    def _adjoint(self, y):
        raise NotImplementedError

    def __repr__(self):
        return (f"{type(self).__name__}({self.input_dim} -> "
                f"{self.output_dim}, kind={self.kind!r})")


class DenseMatrixMap(LinearMap):
    """Operator backed by a dense row-major matrix (rows are outputs)."""

    kind = "dense-matrix"

    def __init__(self, matrix):
        mat = np.ascontiguousarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ShapeError(f"matrix must be 2-dimensional, got {mat.shape}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite entries")
        super().__init__(mat.shape[1], mat.shape[0])
        self.matrix = mat

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


class ForwardDifferenceMap(LinearMap):
    """Discrete forward difference, (Bx)_i = x_{i+1} - x_i, mapping n to n-1."""

    kind = "forward-difference"

    def __init__(self, n):
        if n < 2:
            raise ValueError("forward difference needs n >= 2")
        super().__init__(n, n - 1)

    def _apply(self, x):
        return np.diff(x)

    def _adjoint(self, y):
        out = np.empty(self.input_dim)
        out[0] = -y[0]
        out[1:-1] = y[:-1] - y[1:]
        out[-1] = y[-1]
        return out


class ConvolutionMap(LinearMap):
    """Column-stochastic convolution built from a symmetric kernel.

    The kernel of length ``2r + 1`` is placed on each column, truncated at
    the boundaries (zero padding), and every column is renormalized to sum
    to one, so the operator maps the simplex into the simplex.
    """

    kind = "convolution"

    def __init__(self, n, kernel):
        kernel = as_vector(kernel, name="kernel")
        if kernel.size % 2 != 1:
            raise ValueError("kernel length must be odd (2r + 1 taps)")
        if np.any(kernel < 0) or kernel.sum() <= 0:
            raise ValueError("kernel must be nonnegative with positive mass")
        super().__init__(n, n)
        r = kernel.size // 2
        mat = np.zeros((n, n))
        for c in range(n):
            lo = max(0, c - r)
            hi = min(n, c + r + 1)
            mat[lo:hi, c] = kernel[lo - c + r:hi - c + r]
        mat /= mat.sum(axis=0, keepdims=True)
        self.kernel = kernel
        self.radius = r
        self.matrix = np.ascontiguousarray(mat)

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


class VerticalStackMap(LinearMap):
    """Stack of operators sharing one input: x maps to (A1 x, ..., Ak x)."""

    kind = "vertical-stack"

    def __init__(self, blocks):
        blocks = list(blocks)
        if not blocks:
            raise ValueError("need at least one block")
        dims = {blk.input_dim for blk in blocks}
        if len(dims) != 1:
            raise ShapeError(f"blocks disagree on input dimension: {sorted(dims)}")
        super().__init__(blocks[0].input_dim, sum(blk.output_dim for blk in blocks))
        self.blocks = blocks
        self._offsets = np.cumsum([0] + [blk.output_dim for blk in blocks])

    def _apply(self, x):
        return np.concatenate([blk._apply(x) for blk in self.blocks])

    def _adjoint(self, y):
        out = np.zeros(self.input_dim)
        for blk, lo, hi in zip(self.blocks, self._offsets[:-1], self._offsets[1:]):
            out += blk._adjoint(y[lo:hi])
        return out


_NORM_SEED = 0x5EED


def operator_norm(op, tol=1e-9, max_iter=10_000):
    """Estimate the spectral norm of ``op`` by power iteration on op*op.

    Starts from a fixed seeded vector so repeated calls are deterministic.
    The returned value is a Rayleigh-type estimate ``||op v|| / ||v||`` and
    therefore never exceeds the true norm.

    Parameters
    ----------
    op : LinearMap
    tol : float
        Relative change in the estimate at which iteration stops.
    max_iter : int
        Iteration cap; on hitting it a ``RuntimeWarning`` is issued and the
        best estimate so far is returned.

    Returns
    -------
    float
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(_NORM_SEED)
    v = rng.standard_normal(op.input_dim)
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        u = op._apply(v)
        s = np.linalg.norm(u)
        if s == 0.0:
            # v is orthogonal to the range; with a random start this means
            # the operator is (numerically) zero.
            return 0.0
        w = op._adjoint(u)
        if abs(s - sigma) <= tol * max(s, 1.0):
            return float(s)
        sigma = s
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return float(s)
        v = w / nw
    warnings.warn(
        f"operator_norm did not converge within {max_iter} iterations; "
        f"returning the current estimate {sigma:.6e}",
        RuntimeWarning,
    )
    return float(sigma)
