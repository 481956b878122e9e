import numpy as np
import pytest

from scalerep import hermite
from scalerep.errors import ConvergenceError, UsageError
from scalerep.heisenberg import hermite_generators
from scalerep.hermite import (
    MAX_NODES,
    displace,
    gauss_hermite,
    golub_welsch_rule,
    hermite_functions,
    position_rows,
)
from scalerep.liecore import GroupElement

from conftest import dense


def test_basis_orthonormal_by_quadrature():
    xs, ws = gauss_hermite(160)
    H = hermite_functions(xs, 40)
    gram = (H * ws) @ H.T
    assert np.max(np.abs(gram - np.eye(40))) < 1e-12


def test_position_rows_against_quadrature():
    xs, ws = gauss_hermite(160)
    H = hermite_functions(xs, 24)
    oracle = (H * ws * xs) @ H.T
    assert np.max(np.abs(dense(position_rows(24)) - oracle)) < 1e-12
    # frozen entry <h1, x h0> = 1/sqrt(2)
    assert dense(position_rows(4))[1, 0] == pytest.approx(2 ** -0.5, abs=1e-15)


def hermgauss(n):
    """numpy's Gauss-Hermite rule with plain-dx weights (the oracle)."""
    xs, ws = np.polynomial.hermite.hermgauss(n)
    return xs, np.exp(np.log(ws) + xs * xs)


def signed_by_largest_entry(V):
    return V * np.sign(V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])])


@pytest.mark.parametrize("N", (8, 64, 160, 512, 1024))
def test_ladder_rule_against_lapack_and_numpy(N):
    # oracles: LAPACK's eigh of the dense position matrix built here, and
    # numpy's Gauss-Hermite rule; each bound is a stated multiple of eps N.
    # At N = 1024, e^{-x^2/2} underflows at the edge nodes (x^2/2 > 745).
    eps = np.finfo(float).eps
    x, weights, V = hermite._ladder_rule(N, N)
    off = np.sqrt(np.arange(1, N) / 2.0)
    J = np.diag(off, 1) + np.diag(off, -1)
    w, U = np.linalg.eigh(J)
    assert x[-1] ** 2 / 2 > 745 if N == 1024 else True
    assert np.max(np.abs(x - w)) <= 2 * eps * N
    assert np.max(np.abs(signed_by_largest_entry(V) - signed_by_largest_entry(U))) <= 2 * eps * N
    assert np.all(V[0] >= 0) and np.all(V[0, N // 4 : -N // 4] > 0)  # h_0 > 0 fixes the signs
    assert np.max(np.abs(J @ V - V * x)) <= eps * N
    assert np.max(np.abs(V.T @ V - np.eye(N))) <= eps * N
    if N <= MAX_NODES:
        xs, ws = hermgauss(N)
        assert np.max(np.abs(x - xs)) <= 2 * eps * N
        # e^{x^2} turns the rounding of x^2 ~ 2N into a relative 2N eps
        assert np.max(np.abs(weights - ws) / ws) <= 4 * eps * N


def test_ladder_rule_raises_when_the_nodes_do_not_converge(monkeypatch):
    monkeypatch.setattr(hermite, "NODE_ITERATIONS", 1)
    with pytest.raises(ConvergenceError):
        hermite._ladder_rule.__wrapped__(64, 64)


def test_derivative_matrix_against_finite_differences():
    # independent oracle: differentiate the evaluated series numerically
    xs = np.linspace(-4, 4, 31)
    step = 1e-5
    n = 12
    coeffs = np.zeros(n)
    coeffs[7] = 1.0
    fd = coeffs @ (hermite_functions(xs + step, n) - hermite_functions(xs - step, n)) / (2 * step)
    D = dense(hermite_generators(n + 1).x1)
    exact = D @ np.append(coeffs, 0.0) @ hermite_functions(xs, n + 1)
    assert np.max(np.abs(fd - exact)) < 1e-9


def test_golub_welsch_rule():
    # oracle: numpy's Gauss-Hermite rule and the pointwise Hermite functions
    w, V = golub_welsch_rule(32)
    assert golub_welsch_rule(32)[1] is V
    for arr in (w, V):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    xs, ws = hermgauss(64)
    assert V.shape == (32, 64)
    assert np.max(np.abs(w - xs)) < 1e-12
    # row k holds h_k at the nodes times the root weights, signed by h_0 > 0
    H = hermite_functions(xs, 32) * np.sqrt(ws)
    assert np.max(np.abs(V - H)) < 1e-12


def test_project_roundtrip():
    # the values of a 32-mode series at the 64 nodes project back onto its coefficients
    w, V = golub_welsch_rule(32)
    xs, ws = hermgauss(64)
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    H = hermite_functions(xs, 32)
    values = V.T @ coeffs
    assert np.max(np.abs(values - np.sqrt(ws) * (coeffs @ H))) < 1e-12
    assert np.max(np.abs(V @ (V.T @ coeffs) - coeffs)) < 1e-12


def test_quadrature_spec_validation():
    with pytest.raises(UsageError):
        golub_welsch_rule(0)
    with pytest.raises(UsageError):
        gauss_hermite(10_000)
    assert golub_welsch_rule(64)[0].size == 128
    # the oracle rule stops at MAX_NODES nodes; the Golub-Welsch rule does not
    assert golub_welsch_rule(MAX_NODES)[0].size == 2 * MAX_NODES


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
    # oracle: the same column beside a dense one, so every row of the
    # displacement recurrence runs, exact zeros included
    vectors = _series_vectors()
    alpha = np.array([0.4 - 1.1j, -0.9 + 0.3j])
    alone = displace(alpha[:1], vectors[kind][:, None])
    full = displace(alpha, np.stack([vectors[kind], vectors["dense"]], axis=1))
    assert np.array_equal(alone[:, 0], full[:, 0])


def test_block_series_columns_equal_the_vector_series():
    # each column of a block is its own displaced series, bit for bit
    rng = np.random.default_rng(5)
    coeffs = np.zeros((160, 4), dtype=complex)
    for j, live in enumerate((1, 7, 20, 40)):
        coeffs[:live, j] = rng.standard_normal(live) + 1j * rng.standard_normal(live)
    alpha = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
    block = displace(alpha, coeffs)
    for j in range(4):
        assert np.array_equal(block[:, j], displace(alpha[j : j + 1], coeffs[:, j : j + 1])[:, 0])


def test_action_evaluates_only_the_live_modes(monkeypatch):
    fam = hermite_generators(160)
    phi = _series_vectors()["zero-tail"]
    counted = []
    rows = hermite._displacement_rows

    def spy(a, n_rows, n_cols):
        for row in rows(a, n_rows, n_cols):
            counted.append(row.shape[0])
            yield row

    monkeypatch.setattr(hermite, "_displacement_rows", spy)
    fam.action_analytic(GroupElement(0.3, -0.2, 0.1), phi)
    # one row per mode up to the last live one, and row n runs over the N - n offsets
    assert len(counted) == np.flatnonzero(phi)[-1] + 1 == 20
    assert counted == list(range(160, 140, -1))
