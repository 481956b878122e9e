import numpy as np
import pytest

from scalerep import hermite
from scalerep.errors import UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.hermite import (
    MAX_NODES,
    derivative_matrix,
    evaluate_series,
    gauss_hermite,
    hermite_functions,
    position_matrix,
    projection_rule,
)
from scalerep.liecore import GroupElement


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


def test_projection_rule():
    xs, ws, H = projection_rule(32)
    assert projection_rule(32)[2] is H
    for arr in (xs, ws, H):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert xs is gauss_hermite(64)[0] and H.shape == (32, 64)


def test_project_roundtrip():
    # project the values of a 32-mode series on the 128-node rule back onto 32 modes
    xs, ws, H = projection_rule(64)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    back = H[:32] @ (ws * evaluate_series(coeffs, xs))
    assert np.max(np.abs(back - coeffs)) < 1e-12


def test_quadrature_spec_validation():
    with pytest.raises(UsageError):
        projection_rule(0)
    with pytest.raises(UsageError):
        gauss_hermite(10_000)
    assert projection_rule(64)[0].size == 128
    assert projection_rule(MAX_NODES)[0].size == MAX_NODES


def test_cached_rule_is_read_only():
    xs, ws = gauss_hermite(40)
    for arr in (xs, ws):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert gauss_hermite(40)[0] is xs


def _series_vectors():
    rng = np.random.default_rng(3)
    tail = np.zeros(160, dtype=complex)
    tail[:20] = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    dense = rng.standard_normal(160) + 1j * rng.standard_normal(160)
    return {"zero-tail": tail, "dense": dense, "zero": np.zeros(160, dtype=complex)}


@pytest.mark.parametrize("kind", ["zero-tail", "dense", "zero"])
def test_series_cut_is_bit_identical(kind):
    # oracle: the term-by-term sum over all modes, exact zeros included
    coeffs = _series_vectors()[kind]
    xs = gauss_hermite(320)[0] + 0.7
    table = hermite_functions(xs, coeffs.size)
    full = np.zeros(xs.size, dtype=complex)
    for c, row in zip(coeffs, table):
        full += c * row
    series = evaluate_series(coeffs, xs)
    assert np.array_equal(series, full)
    # and the one-product form of the same sum, to rounding
    assert np.max(np.abs(series - coeffs @ table)) <= 1e-13 * max(1.0, np.max(np.abs(full)))


def test_block_series_columns_equal_the_vector_series():
    # each column of a block is its own series at its own nodes, bit for bit
    rng = np.random.default_rng(5)
    coeffs = np.zeros((160, 4), dtype=complex)
    for j, live in enumerate((1, 7, 20, 40)):
        coeffs[:live, j] = rng.standard_normal(live) + 1j * rng.standard_normal(live)
    xs = gauss_hermite(320)[0][:, None] + rng.uniform(-2, 2, 4)
    block = evaluate_series(coeffs, xs)
    for j in range(4):
        assert np.array_equal(block[:, j], evaluate_series(coeffs[:, j], xs[:, j]))


def test_action_evaluates_only_the_live_modes(monkeypatch):
    fam = hermite_generators(160)
    phi = _series_vectors()["zero-tail"]
    projection_rule(160)  # build the cached table first: the spy counts the series only
    modes = []
    rows = hermite._hermite_rows

    def spy(xs):
        for k, row in enumerate(rows(xs)):
            modes.append(k + 1)
            yield row

    monkeypatch.setattr(hermite, "_hermite_rows", spy)
    fam.action_analytic(GroupElement(0.3, -0.2, 0.1), phi)
    assert modes and max(modes) <= 21
