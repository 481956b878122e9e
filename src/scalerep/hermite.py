"""Hermite-function basis utilities: evaluation, quadrature, projection.

The basis is the L^2-orthonormal Hermite functions h_k (eigenfunctions of
x^2 - d^2/dx^2), generated pointwise by the stable three-term recurrence

    h_0(x) = pi^{-1/4} exp(-x^2/2)
    h_{k+1}(x) = sqrt(2/(k+1)) x h_k(x) - sqrt(k/(k+1)) h_{k-1}(x)

which avoids factorial overflow at any order.  Integrals use Gauss-Hermite
nodes with the Gaussian weight folded back in, so arbitrary integrands of
Gaussian decay can be fed directly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError

# exp(x^2) overflows once nodes pass ~sqrt(709); cap well below that
MAX_NODES = 320


@lru_cache(maxsize=8)
def gauss_hermite(node_count: int):
    """Nodes and plain-dx weights: integral f(x) dx ~= sum w_q f(x_q).

    The returned weights already include exp(x_q^2), so the integrand is
    the bare function (it must decay like a Gaussian for the rule to make
    sense).  Computed in log space to dodge under/overflow at high order.
    Every caller shares the cached arrays, so they are read-only.
    """
    if node_count > MAX_NODES:
        raise UsageError(f"node_count {node_count} exceeds {MAX_NODES}")
    x, w = np.polynomial.hermite.hermgauss(node_count)
    w_plain = np.exp(np.log(w) + x * x)
    x.setflags(write=False)
    w_plain.setflags(write=False)
    return x, w_plain


def _hermite_rows(xs):
    """h_0(xs), h_1(xs), ... by the recurrence, one array of the shape of ``xs`` per mode."""
    prev = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    yield prev
    cur = np.sqrt(2.0) * xs * prev
    k = 1
    while True:
        yield cur
        nxt = np.sqrt(2.0 / (k + 1)) * xs
        nxt *= cur
        nxt -= np.sqrt(k / (k + 1.0)) * prev
        prev, cur = cur, nxt
        k += 1


def hermite_functions(xs, n_modes: int) -> np.ndarray:
    """Matrix H[k, q] = h_k(xs[q]) for k < n_modes."""
    xs = np.asarray(xs, dtype=float)
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    H = np.empty((n_modes, xs.size))
    for k, row in zip(range(n_modes), _hermite_rows(xs)):
        H[k] = row
    return H


def evaluate_series(coeffs, xs) -> np.ndarray:
    """Pointwise values of sum_k coeffs[k] h_k at xs, up to the last nonzero coefficient.

    Block form: ``coeffs`` of shape (n, K) and nodes ``xs`` of shape (q, K)
    give column j the series of coeffs[:, j] at xs[:, j].  Each term is
    added into one accumulator as the recurrence produces it, so no table
    of all modes at all nodes is built; a column with fewer live modes adds
    exact zeros for the rest.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    xs = np.asarray(xs, dtype=float)
    nz = np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
    total = np.zeros(np.broadcast_shapes(xs.shape, coeffs.shape[1:]), dtype=complex)
    term = np.empty_like(total)
    for c, h in zip(coeffs[: nz[-1] + 1 if nz.size else 1], _hermite_rows(xs)):
        total += np.multiply(c, h, out=term)
    return total


@lru_cache(maxsize=8)
def projection_rule(N: int):
    """Nodes, plain weights and H[k, q] = h_k(x_q) of the rule that projects onto N modes.

    The coefficients of f are <h_m, f> ~= (H @ (ws * f(xs)))[m] on a rule
    of 2N nodes, capped at ``MAX_NODES``.  Every caller shares the cached
    arrays, so they are read-only.
    """
    if N < 1:
        raise UsageError("need at least one mode")
    xs, ws = gauss_hermite(min(2 * N, MAX_NODES))
    H = hermite_functions(xs, N)
    H.setflags(write=False)
    return xs, ws, H


def position_matrix(N: int) -> np.ndarray:
    """Tridiagonal matrix of multiplication by x in the h_k basis."""
    k = np.arange(1, N)
    off = np.sqrt(k / 2.0)
    X = np.zeros((N, N))
    X[k, k - 1] = off
    X[k - 1, k] = off
    return X


def derivative_matrix(N: int) -> np.ndarray:
    """Antisymmetric tridiagonal matrix of d/dx in the h_k basis."""
    k = np.arange(1, N)
    off = np.sqrt(k / 2.0)
    D = np.zeros((N, N))
    D[k - 1, k] = off     # lowering part of d/dx
    D[k, k - 1] = -off
    return D
