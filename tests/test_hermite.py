import numpy as np
import pytest

from scalerep.errors import UsageError
from scalerep.hermite import (
    QuadratureSpec,
    derivative_matrix,
    evaluate_series,
    gauss_hermite,
    hermite_functions,
    position_matrix,
    project_function,
)


def test_basis_orthonormal_by_quadrature():
    xs, ws = gauss_hermite(160)
    H = hermite_functions(xs, 40)
    gram = (H * ws) @ H.T
    assert np.max(np.abs(gram - np.eye(40))) < 1e-12


def test_position_matrix_against_quadrature():
    xs, ws = gauss_hermite(160)
    H = hermite_functions(xs, 24)
    oracle = (H * ws * xs) @ H.T
    assert np.max(np.abs(position_matrix(24) - oracle)) < 1e-12
    # frozen entry <h1, x h0> = 1/sqrt(2)
    assert position_matrix(4)[1, 0] == pytest.approx(2 ** -0.5, abs=1e-15)


def test_derivative_matrix_against_finite_differences():
    # independent oracle: differentiate the evaluated series numerically
    xs = np.linspace(-4, 4, 31)
    step = 1e-5
    n = 12
    coeffs = np.zeros(n)
    coeffs[7] = 1.0
    fd = (evaluate_series(coeffs, xs + step) - evaluate_series(coeffs, xs - step)) / (2 * step)
    exact = evaluate_series(derivative_matrix(n + 1) @ np.append(coeffs, 0.0), xs)
    assert np.max(np.abs(fd - exact)) < 1e-9


def test_project_roundtrip():
    quad = QuadratureSpec(128)
    xs, _ = gauss_hermite(quad.node_count)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    values = evaluate_series(coeffs, xs)
    back = project_function(values, 32, quad)
    assert np.max(np.abs(back - coeffs)) < 1e-12


def test_quadrature_spec_validation():
    with pytest.raises(UsageError):
        QuadratureSpec(1)
    with pytest.raises(UsageError):
        QuadratureSpec(10_000)
    assert QuadratureSpec.for_dim(64).node_count == 128


def test_project_requires_node_values():
    with pytest.raises(UsageError):
        project_function(np.zeros(10), 4, QuadratureSpec(16))


def test_cached_rule_is_read_only():
    xs, ws = gauss_hermite(40)
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert gauss_hermite(40)[0] is xs
