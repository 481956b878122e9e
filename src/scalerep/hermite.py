"""Hermite-function basis utilities: evaluation, quadrature, displacement.

The basis is the L^2-orthonormal Hermite functions h_k (eigenfunctions of
x^2 - d^2/dx^2), evaluated pointwise by the stable three-term recurrence
h_{k+1} = sqrt(2/(k+1)) x h_k - sqrt(k/(k+1)) h_{k-1} from
h_0 = pi^{-1/4} exp(-x^2/2), which avoids factorial overflow at any order.
Gauss-Hermite quadrature serves the oracles; the group action (``displace``)
and the closed-form resolvent (``golub_welsch_rule``) use no pointwise
values, so they hold at any N.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import UsageError
from .scale import read_only

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
    return read_only(x), read_only(np.exp(np.log(w) + x * x))


def hermite_functions(xs, n_modes: int) -> np.ndarray:
    """Matrix H[k, q] = h_k(xs[q]) for k < n_modes."""
    xs = np.asarray(xs, dtype=float)
    if n_modes < 1:
        raise UsageError("n_modes must be >= 1")
    H = np.zeros((n_modes + 1, xs.size))  # H[-1] stands for h_{-1} = 0
    H[0] = np.pi ** (-0.25) * np.exp(-0.5 * xs * xs)
    for k in range(n_modes - 1):
        H[k + 1] = np.sqrt(2.0 / (k + 1)) * xs * H[k] - np.sqrt(k / (k + 1.0)) * H[k - 1]
    return H[:n_modes]


def _displacement_rows(a, n_rows: int, n_cols: int):
    """Rows n < n_rows of F[n, d] = sqrt(n!/(n+d)!) a^d e^{-x/2} L_n^{(d)}(x), x = a^2.

    Row n is an (n_cols - n, K) array over d, one column per entry of ``a``,
    overwritten by the next row.  The Laguerre degree recurrence runs in
    difference form: U_0 = F_0, U_{n+1} = C U_n - x/(n+1) F_n and
    F_{n+1} = R (F_n + U_{n+1}).  Unlike the three-term form, whose double
    root at x = 0 loses 3e-13 by n = 256 at small a, it stays within 6e-16.
    """
    x, d, n = a * a, np.arange(n_cols), np.arange(n_rows)[:, None]
    C = np.where(n > 0, np.sqrt(n * (n + d)) / (n + 1), d)
    R, X = np.sqrt((n + 1) / (n + 1 + d)), x / (n + 1)
    # F[0, d] = e^{-x/2} a^d / sqrt(d!) as a running product
    row = np.cumprod(np.vstack([np.exp(-0.5 * x), a / np.sqrt(d[1:, None])]), axis=0)
    up, term = row.copy(), np.empty_like(row)
    for i in range(n_rows):
        yield row
        row, up, term = row[:-1], up[:-1], term[:-1]
        up *= C[i, : len(row), None]
        up -= np.multiply(row, X[i], out=term)
        row += up
        row *= R[i, : len(row), None]


def displace(alpha, phi) -> np.ndarray:
    """D(alpha) phi on the first N modes, column by column of an (N, K) block.

    With alpha = a e^{i theta}, <m|D|n> is e^{i theta (m-n)} F[n, m-n] for m >= n
    and (-e^{-i theta})^{n-m} F[m, n-m] for m < n: D phi = e^{i theta m} (M psi),
    psi_n = e^{-i theta n} phi_n, M real, its rows streamed to the last live mode.
    """
    N, K = phi.shape
    a = np.abs(alpha)
    theta = np.where(a > 0, np.angle(alpha), 0.0)
    k = 1 + np.max(np.flatnonzero(phi.any(axis=1)), initial=-1)  # live modes
    modes = np.arange(N)
    psi = phi[:k] * np.exp(-1j * np.multiply.outer(modes[:k], theta))
    sign = 1 - 2 * (modes[:k] & 1)[:, None, None]
    parts = np.stack([psi.real, psi.imag], axis=1)  # (k, 2, K)
    alt, upper = parts * sign, np.empty_like(parts)
    y, term = np.zeros((2, N, K)), np.empty((2, N, K))
    for n, row in enumerate(_displacement_rows(a, k, N)):
        # below the diagonal: y[n + d] += F[n, d] psi_n
        y[:, n:] += np.multiply(row, parts[n, :, None], out=term[:, n:])
        # above it: (-1)^n sum_{d >= 1} F[n, d] (-1)^{n+d} psi_{n + d}, summed
        # in order of d, so a column gets the same bits whatever the block's k
        np.sum(row[1 : k - n, None] * alt[n + 1 :], axis=0, out=upper[n])
    y[:, :k] += (upper * sign).transpose(1, 0, 2)
    return (y[0] + 1j * y[1]) * np.exp(1j * np.multiply.outer(modes, theta))


@lru_cache(maxsize=8)
def golub_welsch_rule(N: int):
    """Nodes w and first N rows V_N of the eigenvectors of ``position_matrix(2 * N)``.

    Row k of V is h_k at the 2N Gauss-Hermite nodes w times the root weights
    (Golub & Welsch 1969): V_N diag(f(w)) V_N^T is the 2N-node quadrature of
    <h_m, f h_n>, m, n < N.  The cached arrays are read-only.
    """
    if N < 1:
        raise UsageError("need at least one mode")
    w, V = np.linalg.eigh(position_matrix(2 * N))
    return read_only(w), read_only(np.ascontiguousarray(V[:N]))


def position_rows(N: int) -> np.ndarray:
    """(3, N) rows of x in the h_k basis: x h_k = sqrt(k/2) h_{k-1} + sqrt((k+1)/2) h_{k+1}."""
    off = np.sqrt(np.arange(1, N) / 2.0)
    rows = np.zeros((3, N))
    rows[0, 1:], rows[2, :-1] = off, off
    return read_only(rows)


def position_matrix(N: int) -> np.ndarray:
    """The same operator as a dense N x N matrix, for the eigendecompositions."""
    return sum(np.diag(position_rows(N)[2, :-1], k) for k in (-1, 1))
