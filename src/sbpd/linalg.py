"""Linear operators used by the solver and the problem builders.

At the paper's sizes every coupling is a small dense matrix, so one class
holds it: ``LinearMap`` applies a matrix and its transpose, to a vector or
row by row to a stack of vectors (``matvec``). Vectors are
checked for shape and finiteness where they enter (``as_vector``), not on
every apply, so the solver's step runs on plain arrays. The
forward-difference and convolution builders return plain arrays.
``operator_norm`` is LAPACK's largest singular value, which rounding can
put below the true spectral norm; the problems' step sizes do not use it,
but a rigorous bound on the largest column norm (``coupling_norm`` in
``sbpd.problems``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ShapeError", "LinearMap", "as_vector", "convolution_matrix",
           "forward_difference_matrix", "matvec", "operator_norm"]


class ShapeError(ValueError):
    """Raised when a vector does not match an operator's expected dimension."""


def as_vector(x, dim=None, name="x"):
    """Coerce ``x`` to a finite 1-d float64 array of length ``dim``.

    ``dim=None`` skips the length check and ``name`` labels the error
    messages. A copy is made only when the conversion requires one.
    """
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ShapeError(f"{name} has length {v.shape[0]}, expected {dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    return v


def matvec(M, x):
    """``M @ x`` for a vector ``x``, and row by row for a stack ``x`` of them.

    A stack of shape (R, d) goes through one ``np.matmul`` of ``M`` against
    ``x[..., None]``, which runs the vector's gemv on every row, so row r is
    bitwise ``M @ x[r]``; ``M`` may be one matrix or a stack of R. (One gemm,
    ``x @ M.T``, rounds differently from the gemv.)
    """
    if x.ndim == 1:
        return M @ x
    return np.matmul(M, x[..., None])[..., 0]


class LinearMap:
    """Operator backed by a dense row-major matrix (rows are outputs).

    The matrix is checked once, at construction. ``apply`` and
    ``adjoint_apply`` compare only the vector's shape: they run on every
    step, and every vector they see is checked data or a step's output. They
    take a vector or a stack of R vectors (shape (R, d)), whose rows are
    bitwise the vectors' own products (``matvec``).
    """

    def __init__(self, matrix):
        mat = np.ascontiguousarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise ShapeError(f"matrix must be 2-dimensional, got {mat.shape}")
        if min(mat.shape) < 1:
            raise ValueError("operator dimensions must be positive")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix contains non-finite entries")
        self.matrix = mat
        self.output_dim, self.input_dim = mat.shape

    def apply(self, x):
        """``M @ x`` for ``x`` of shape ``(input_dim,)`` or ``(R, input_dim)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            return matvec(self.matrix, _stack_of(x, self.input_dim, "x"))
        return self.matrix @ x

    def adjoint_apply(self, y):
        """``M.T @ y`` for ``y`` of shape ``(output_dim,)`` or ``(R, output_dim)``."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.output_dim,):
            return matvec(self.matrix.T, _stack_of(y, self.output_dim, "y"))
        return self.matrix.T @ y


def _stack_of(x, dim, name):
    # x unless it is not a stack of vectors of length dim
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"{name} has shape {x.shape}, expected ({dim},) "
                         f"or (R, {dim})")
    return x


def forward_difference_matrix(n):
    """Matrix of the forward difference (Bx)_i = x_{i+1} - x_i, n to n-1."""
    if n < 2:
        raise ValueError("forward difference needs n >= 2")
    return np.diff(np.eye(n), axis=0)


def convolution_matrix(n, kernel):
    """Column-stochastic n-by-n convolution with a symmetric kernel.

    The kernel of length ``2r + 1`` is placed on each column, truncated at
    the boundaries (zero padding), and every column is renormalized to sum
    to one, so the matrix maps the simplex into the simplex.
    """
    kernel = as_vector(kernel, name="kernel")
    if kernel.size % 2 != 1:
        raise ValueError("kernel length must be odd (2r + 1 taps)")
    if np.any(kernel < 0) or kernel.sum() <= 0:
        raise ValueError("kernel must be nonnegative with positive mass")
    r = kernel.size // 2
    mat = np.zeros((n, n))
    for c in range(n):
        lo = max(0, c - r)
        hi = min(n, c + r + 1)
        mat[lo:hi, c] = kernel[lo - c + r:hi - c + r]
    mat /= mat.sum(axis=0, keepdims=True)
    return mat


def operator_norm(op):
    """Spectral norm of a ``LinearMap``: the largest singular value of its matrix."""
    return float(np.linalg.norm(op.matrix, 2))
