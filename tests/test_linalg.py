import warnings

import numpy as np
import pytest

from sbpd.linalg import (
    LinearMap,
    ShapeError,
    convolution_matrix,
    forward_difference_matrix,
    operator_norm,
)


def _difference(n):
    return LinearMap(forward_difference_matrix(n))


def test_forward_difference_apply():
    B = _difference(3)
    assert np.array_equal(B.apply([1.0, 2.0, 4.0]), [1.0, 2.0])


def test_forward_difference_adjoint():
    B = _difference(3)
    assert np.array_equal(B.adjoint_apply([1.0, 1.0]), [-1.0, 0.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 50, 108])
def test_forward_difference_matrix_is_bitwise_the_hand_written_pair(n):
    # the matrix products must equal np.diff and its hand-written adjoint
    # bit for bit, or the simplex-tv iterates and traces would move
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n - 1)
    B = _difference(n)
    assert B.apply(x).tobytes() == np.diff(x).tobytes()
    adjoint = np.array([-y[0], *(y[:-1] - y[1:]), y[-1]])
    assert B.adjoint_apply(y).tobytes() == adjoint.tobytes()


def test_dense_matvec():
    A = LinearMap([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(A.apply([1.0, 1.0]), [3.0, 7.0])


def test_zero_map():
    Z = LinearMap(np.zeros((5, 3)))
    assert np.array_equal(Z.apply([1.0, -2.0, 3.0]), np.zeros(5))
    assert np.array_equal(Z.adjoint_apply(np.ones(5)), np.zeros(3))


def test_identity_self_adjoint():
    I = LinearMap(np.eye(4))
    y = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(I.apply(y), y)
    assert np.array_equal(I.adjoint_apply(y), y)


def test_operator_norm_identity():
    assert operator_norm(LinearMap(np.eye(17))) == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_diagonal():
    A = LinearMap([[3.0, 0.0], [0.0, 4.0]])
    assert operator_norm(A) == pytest.approx(4.0, abs=1e-6)


def test_operator_norm_against_svd():
    # independent route: numpy SVD on the materialized matrix
    rng = np.random.default_rng(3)
    for _ in range(5):
        mat = rng.standard_normal((7, 5))
        est = operator_norm(LinearMap(mat))
        exact = np.linalg.norm(mat, 2)
        assert est <= exact * (1.0 + 1e-12)
        assert est == pytest.approx(exact, rel=1e-12)


def test_operator_norm_zero_map():
    assert operator_norm(LinearMap(np.zeros((4, 3)))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 50, 108, 250, 1000])
def test_operator_norm_forward_difference_closed_form(n):
    # singular values of the n -> n-1 difference are 2 cos(k pi / 2n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = operator_norm(_difference(n))
    assert val == pytest.approx(2.0 * np.cos(np.pi / (2 * n)), rel=1e-12)


def test_stack_norm_bounds():
    rng = np.random.default_rng(5)
    kernel = np.exp(-1.0 / (1.0 - (np.arange(-10, 11) / 11.0) ** 2))
    F = LinearMap(convolution_matrix(30, kernel))
    B = _difference(30)
    T = LinearMap(np.vstack([F.matrix, B.matrix]))
    nF = operator_norm(F)
    nB = operator_norm(B)
    nT = operator_norm(T)
    assert max(nF, nB) <= nT * (1.0 + 1e-9)
    assert nT <= np.sqrt(nF**2 + nB**2) * (1.0 + 1e-9)


def test_convolution_columns_stochastic():
    kernel = np.array([1.0, 2.0, 1.0])
    F = convolution_matrix(6, kernel)
    sums = F.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(F >= 0)


def test_shape_errors():
    B = _difference(4)
    with pytest.raises(ShapeError):
        B.apply([1.0, 2.0])
    with pytest.raises(ShapeError):
        B.adjoint_apply([1.0, 2.0, 3.0, 4.0])
    # a stack is (R, d): no other rank, and rows of the operator's length
    with pytest.raises(ShapeError):
        B.apply(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        B.apply(np.zeros((2, 2, 4)))
    with pytest.raises(ShapeError):
        B.adjoint_apply(1.0)
    assert B.apply(np.zeros((0, 4))).shape == (0, 3)
    # the step path does not scan for NaN: solver.run checks its final state
    assert np.isnan(B.apply([1.0, np.nan, 2.0, 3.0])).any()
    with pytest.raises(ShapeError):
        LinearMap(np.zeros(3))
    with pytest.raises(ValueError, match="positive"):
        LinearMap(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        LinearMap([[1.0, np.inf], [0.0, 1.0]])

