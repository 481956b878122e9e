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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError

# exp(x^2) overflows once nodes pass ~sqrt(709); cap well below that
MAX_NODES = 320


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite rule size used for projections onto the basis."""

    node_count: int

    def __post_init__(self):
        if not (2 <= self.node_count <= MAX_NODES):
            raise UsageError(f"node_count must lie in 2..{MAX_NODES}")

    @staticmethod
    def for_dim(N: int) -> "QuadratureSpec":
        """Default rule for an N-mode truncation: 2N nodes."""
        return QuadratureSpec(min(2 * N, MAX_NODES))


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


def hermite_functions(xs, n_modes: int) -> np.ndarray:
    """Matrix H[k, q] = h_k(xs[q]) for k < n_modes."""
    xs = np.asarray(xs, dtype=float)
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    H = np.empty((n_modes, xs.size))
    H[0] = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    if n_modes > 1:
        H[1] = np.sqrt(2.0) * xs * H[0]
    for k in range(1, n_modes - 1):
        H[k + 1] = np.sqrt(2.0 / (k + 1)) * xs * H[k] - np.sqrt(k / (k + 1.0)) * H[k - 1]
    return H


def evaluate_series(coeffs, xs) -> np.ndarray:
    """Pointwise values of sum_k coeffs[k] h_k at xs."""
    coeffs = np.asarray(coeffs, dtype=complex)
    H = hermite_functions(xs, coeffs.size)
    return coeffs @ H


def project_function(values_at_nodes, n_modes: int, quad: QuadratureSpec) -> np.ndarray:
    """Coefficients <h_m, f> for f given by its values at the quadrature nodes."""
    xs, ws = gauss_hermite(quad.node_count)
    vals = np.asarray(values_at_nodes, dtype=complex)
    if vals.shape != xs.shape:
        raise UsageError(
            f"need values at the {xs.size} quadrature nodes, got shape {vals.shape}"
        )
    H = hermite_functions(xs, n_modes)
    return H @ (ws * vals)


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
