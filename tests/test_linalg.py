import warnings

import numpy as np
import pytest

from sbpd.linalg import (
    ConvolutionMap,
    DenseMatrixMap,
    ForwardDifferenceMap,
    ShapeError,
    VerticalStackMap,
    operator_norm,
)


def test_forward_difference_apply():
    B = ForwardDifferenceMap(3)
    assert np.array_equal(B.apply([1.0, 2.0, 4.0]), [1.0, 2.0])


def test_forward_difference_adjoint():
    B = ForwardDifferenceMap(3)
    assert np.array_equal(B.adjoint_apply([1.0, 1.0]), [-1.0, 0.0, 1.0])


def test_dense_matvec():
    A = DenseMatrixMap([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(A.apply([1.0, 1.0]), [3.0, 7.0])


def test_zero_map():
    Z = DenseMatrixMap(np.zeros((5, 3)))
    assert np.array_equal(Z.apply([1.0, -2.0, 3.0]), np.zeros(5))
    assert np.array_equal(Z.adjoint_apply(np.ones(5)), np.zeros(3))


def test_identity_self_adjoint():
    I = DenseMatrixMap(np.eye(4))
    y = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(I.apply(y), y)
    assert np.array_equal(I.adjoint_apply(y), y)


def test_stack_adjoint_matches_blockwise_sum():
    rng = np.random.default_rng(0)
    F = DenseMatrixMap(rng.standard_normal((5, 5)))
    B = ForwardDifferenceMap(5)
    T = VerticalStackMap([F, B])
    rho = rng.standard_normal(5)
    tau = rng.standard_normal(5)
    zeta = rng.standard_normal(4)
    y = np.concatenate([tau, zeta])
    expected = F.adjoint_apply(tau) + B.adjoint_apply(zeta)
    assert np.allclose(T.adjoint_apply(y), expected, atol=1e-14)
    lhs = T.apply(rho) @ y
    rhs = rho @ T.adjoint_apply(y)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_operator_norm_identity():
    assert operator_norm(DenseMatrixMap(np.eye(17))) == pytest.approx(1.0, abs=1e-8)


def test_operator_norm_diagonal():
    A = DenseMatrixMap([[3.0, 0.0], [0.0, 4.0]])
    assert operator_norm(A) == pytest.approx(4.0, abs=1e-6)


def test_operator_norm_against_svd():
    # independent route: numpy SVD on the materialized matrix
    rng = np.random.default_rng(3)
    for _ in range(5):
        mat = rng.standard_normal((7, 5))
        est = operator_norm(DenseMatrixMap(mat))
        exact = np.linalg.norm(mat, 2)
        assert est <= exact * (1.0 + 1e-12)
        assert est == pytest.approx(exact, rel=1e-12)


def test_operator_norm_zero_map():
    assert operator_norm(DenseMatrixMap(np.zeros((4, 3)))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 50, 108, 250, 1000])
def test_operator_norm_forward_difference_closed_form(n):
    # singular values of the n -> n-1 difference are 2 cos(k pi / 2n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = operator_norm(ForwardDifferenceMap(n))
    assert val == pytest.approx(2.0 * np.cos(np.pi / (2 * n)), rel=1e-12)


def test_stack_norm_bounds():
    rng = np.random.default_rng(5)
    kernel = np.exp(-1.0 / (1.0 - (np.arange(-10, 11) / 11.0) ** 2))
    F = ConvolutionMap(30, kernel)
    B = ForwardDifferenceMap(30)
    T = VerticalStackMap([F, B])
    nF = operator_norm(F)
    nB = operator_norm(B)
    nT = operator_norm(T)
    assert max(nF, nB) <= nT * (1.0 + 1e-9)
    assert nT <= np.sqrt(nF**2 + nB**2) * (1.0 + 1e-9)


def test_convolution_columns_stochastic():
    kernel = np.array([1.0, 2.0, 1.0])
    F = ConvolutionMap(6, kernel)
    sums = F.matrix.sum(axis=0)
    assert np.allclose(sums, 1.0, atol=1e-12)
    assert np.all(F.matrix >= 0)


def test_convolution_is_a_dense_matrix_map():
    kernel = np.array([1.0, 2.0, 1.0])
    F = ConvolutionMap(5, kernel)
    assert isinstance(F, DenseMatrixMap)
    assert (F.kind, F.radius) == ("convolution", 1)
    assert np.array_equal(F.kernel, kernel)
    x = np.arange(5.0)
    assert np.array_equal(F.apply(x), F.matrix @ x)
    assert np.array_equal(F.adjoint_apply(x), F.matrix.T @ x)


def test_shape_errors():
    B = ForwardDifferenceMap(4)
    with pytest.raises(ShapeError):
        B.apply([1.0, 2.0])
    with pytest.raises(ShapeError):
        B.adjoint_apply([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        B.apply([1.0, np.nan, 2.0, 3.0])
    with pytest.raises(ShapeError):
        DenseMatrixMap(np.zeros(3))


def test_stack_rejects_mixed_input_dims():
    with pytest.raises(ShapeError):
        VerticalStackMap([ForwardDifferenceMap(4), ForwardDifferenceMap(5)])
